import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golazo import penalty
from golazo.errors import InvalidBoundsError, NegativePenaltyError
from golazo.estimators import GraphSpec

from oracles import random_correlation


def off_fill(d, lo, hi):
    lower = np.full((d, d), float(lo))
    upper = np.full((d, d), float(hi))
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return lower, upper


class TestPenaltyBounds:
    def test_valid(self):
        lower, upper = off_fill(3, -0.5, 0.2)
        b = penalty.PenaltyBounds(lower, upper)
        assert b.dim == 3
        assert b.is_finite()

    def test_infinite_entries_allowed(self):
        lower, upper = off_fill(3, -np.inf, np.inf)
        b = penalty.PenaltyBounds(lower, upper)
        assert not b.is_finite()

    def test_nonzero_diag_rejected(self):
        lower, upper = off_fill(2, -0.1, 0.1)
        lower[0, 0] = -1.0
        with pytest.raises(InvalidBoundsError):
            penalty.PenaltyBounds(lower, upper)

    def test_asymmetric_rejected(self):
        lower, upper = off_fill(3, -0.1, 0.1)
        upper[0, 1] = 0.2
        with pytest.raises(InvalidBoundsError):
            penalty.PenaltyBounds(lower, upper)

    def test_nan_rejected_first(self):
        # A NaN anywhere, symmetric or not, is named as such.
        for i, j in ((0, 1), (1, 1)):
            for side in (0, 1):
                pair = off_fill(3, -0.1, 0.1)
                pair[side][i, j] = np.nan
                with pytest.raises(InvalidBoundsError, match="NaN"):
                    penalty.PenaltyBounds(*pair)
        with pytest.raises(InvalidBoundsError, match="NaN"):
            penalty.glasso_bounds(np.nan, 3)

    def test_sign_violation_rejected(self):
        lower, upper = off_fill(2, 0.1, 0.2)
        with pytest.raises(InvalidBoundsError):
            penalty.PenaltyBounds(lower, upper)
        lower, upper = off_fill(2, -0.2, -0.1)
        with pytest.raises(InvalidBoundsError):
            penalty.PenaltyBounds(lower, upper)

    def test_scaled(self):
        b = penalty.glasso_bounds(0.2, 3).scaled(0.5)
        assert b.upper[0, 1] == pytest.approx(0.1)
        assert b.lower[0, 1] == pytest.approx(-0.1)
        with pytest.raises(NegativePenaltyError):
            b.scaled(0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidBoundsError, match="finite"):
                b.scaled(bad)

    def test_scaled_keeps_infinities(self):
        b = penalty.mtp2_bounds(3).scaled(0.25)
        assert b.upper[0, 1] == np.inf
        assert b.lower[0, 1] == 0.0


class TestGolazoNorm:
    def test_glasso_is_twice_l1(self):
        k = np.array([[2.0, 0.3, -0.1],
                      [0.3, 2.0, 0.0],
                      [-0.1, 0.0, 2.0]])
        b = penalty.glasso_bounds(0.5, 3)
        # Each unordered pair contributes twice.
        assert penalty.golazo_norm(k, b) == pytest.approx(2 * 0.5 * (0.3 + 0.1))

    def test_zero_times_inf_is_zero(self):
        k = np.eye(3)
        b = penalty.mtp2_bounds(3)
        assert penalty.golazo_norm(k, b) == 0.0

    def test_infinite_when_constraint_violated(self):
        k = np.array([[1.0, 0.2], [0.2, 1.0]])
        b = penalty.mtp2_bounds(2)
        assert penalty.golazo_norm(k, b) == np.inf

    def test_asymmetric_rates(self):
        k = np.array([[1.0, 0.4], [0.4, 1.0]])
        b = penalty.asymmetric_bounds(0.3, 0.1, 2)
        assert penalty.golazo_norm(k, b) == pytest.approx(2 * 0.1 * 0.4)
        k[0, 1] = k[1, 0] = -0.4
        assert penalty.golazo_norm(k, b) == pytest.approx(2 * 0.3 * 0.4)

    def test_norm_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            k = rng.standard_normal((d, d))
            k = (k + k.T) / 2
            b = penalty.asymmetric_bounds(rng.uniform(0, 1), rng.uniform(0, 1), d)
            assert penalty.golazo_norm(k, b) >= 0.0


class TestNormProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_nonnegative_and_positively_homogeneous(self, seed, rn, rp):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        k = rng.standard_normal((d, d))
        k = (k + k.T) / 2
        b = penalty.asymmetric_bounds(rn, rp, d)
        value = penalty.golazo_norm(k, b)
        assert value >= 0.0
        assert penalty.golazo_norm(2.0 * k, b) == pytest.approx(2.0 * value, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 5.0))
    def test_scaling_bounds_scales_norm(self, seed, rho):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        k = rng.standard_normal((d, d))
        k = (k + k.T) / 2
        b = penalty.glasso_bounds(1.0, d)
        assert penalty.golazo_norm(k, b.scaled(rho)) == pytest.approx(
            rho * penalty.golazo_norm(k, b), rel=1e-12)


class TestClipToFinite:
    def test_clips_infinities(self):
        rng = np.random.default_rng(1)
        s = random_correlation(rng, 4)
        clipped = penalty.clip_to_finite(penalty.mtp2_bounds(4), s)
        assert clipped.is_finite()
        # U_ij becomes sqrt(S_ii S_jj) - S_ij = 1 - S_ij on correlation scale.
        assert clipped.upper[0, 1] == pytest.approx(1.0 - s[0, 1])
        assert np.all(clipped.lower[~np.eye(4, dtype=bool)] == 0.0)

    def test_finite_bounds_untouched_when_small(self):
        s = np.eye(3)
        b = penalty.glasso_bounds(0.1, 3)
        clipped = penalty.clip_to_finite(b, s)
        assert np.array_equal(clipped.lower, b.lower)
        assert np.array_equal(clipped.upper, b.upper)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        s = random_correlation(rng, 5)
        b = penalty.asymmetric_bounds(3.0, 5.0, 5)
        once = penalty.clip_to_finite(b, s)
        twice = penalty.clip_to_finite(once, s)
        assert np.array_equal(once.lower, twice.lower)
        assert np.array_equal(once.upper, twice.upper)


class TestPresets:
    def test_glasso(self):
        b = penalty.glasso_bounds(0.3, 3)
        assert b.lower[0, 1] == -0.3 and b.upper[0, 1] == 0.3

    def test_negative_rho_rejected(self):
        with pytest.raises(NegativePenaltyError):
            penalty.glasso_bounds(-0.1, 3)
        with pytest.raises(NegativePenaltyError):
            penalty.positive_glasso_bounds(-0.1, 3)
        with pytest.raises(NegativePenaltyError):
            penalty.asymmetric_bounds(-0.1, 0.1, 3)

    def test_positive(self):
        b = penalty.positive_glasso_bounds(0.3, 3)
        assert b.lower[0, 1] == 0.0 and b.upper[0, 1] == 0.3

    def test_ggm(self):
        g = GraphSpec(3, [(0, 1)])
        b = penalty.ggm_bounds(g)
        assert b.lower[0, 1] == 0.0 and b.upper[0, 1] == 0.0
        assert b.lower[0, 2] == -np.inf and b.upper[0, 2] == np.inf

    def test_dual_positivity(self):
        g = GraphSpec(3, [(1, 2)])
        b = penalty.dual_positivity_bounds(g)
        assert b.lower[1, 2] == -np.inf and b.upper[1, 2] == 0.0
        assert b.lower[0, 1] == 0.0 and b.upper[0, 1] == 0.0

    def test_dispatcher(self):
        b = penalty.preset_bounds("glasso", 4, rho=0.2)
        assert b.dim == 4
        with pytest.raises(ValueError):
            penalty.preset_bounds("nope", 4)

    def test_dispatcher_builds_every_preset(self):
        g = GraphSpec(3, [(0, 1)])
        built = {
            "glasso": (penalty.preset_bounds("glasso", 3, rho=0.2),
                       penalty.glasso_bounds(0.2, 3)),
            "asymmetric": (penalty.preset_bounds("asymmetric", 3, rho_neg=0.1, rho_pos=0.3),
                           penalty.asymmetric_bounds(0.1, 0.3, 3)),
            "positive": (penalty.preset_bounds("positive", 3, rho=0.2),
                         penalty.positive_glasso_bounds(0.2, 3)),
            "mtp2": (penalty.preset_bounds("mtp2", 3), penalty.mtp2_bounds(3)),
            "ggm": (penalty.preset_bounds("ggm", graph=g), penalty.ggm_bounds(g)),
            "dual_positivity": (penalty.preset_bounds("dual_positivity", graph=g),
                                penalty.dual_positivity_bounds(g)),
        }
        for got, want in built.values():
            assert np.array_equal(got.lower, want.lower)
            assert np.array_equal(got.upper, want.upper)

    def test_unknown_preset_message(self):
        expected = ("unknown preset 'nope'; expected one of ['asymmetric', "
                    "'dual_positivity', 'ggm', 'glasso', 'mtp2', 'positive']")
        with pytest.raises(ValueError) as info:
            penalty.preset_bounds("nope", 4)
        assert str(info.value) == expected
