import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golazo import boxqp, linalg
from golazo.boxqp import AT_LOWER, FREE, BoxQP, solve_boxqp
from golazo.errors import MaxIterationsExceededError, NotPositiveDefiniteError

from oracles import active_set_boxqp, projected_gradient_boxqp, random_pd, reference_boxqp


def qp(w, lower, upper):
    """The box QP  min y'Wy  on [lower, upper]; BoxQP takes A = W^{-1}."""
    return BoxQP(np.linalg.inv(w), lower, upper)


def test_unconstrained_minimum_is_zero():
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    y = solve_boxqp(qp(w, [-np.inf, -np.inf], [np.inf, np.inf]))
    assert np.allclose(y, 0.0, atol=1e-12)


def test_zero_inside_box():
    w = np.eye(3)
    y = solve_boxqp(qp(w, [-1.0] * 3, [1.0] * 3))
    assert np.allclose(y, 0.0, atol=1e-12)


def test_active_lower_bound():
    # Separable: each coordinate is pushed to the bound nearest zero.
    w = np.eye(2)
    y = solve_boxqp(qp(w, [0.5, -1.0], [2.0, 1.0]))
    assert np.allclose(y, [0.5, 0.0], atol=1e-12)


def test_equality_pinned_coordinates():
    w = np.array([[1.0, 0.4], [0.4, 1.0]])
    y = solve_boxqp(qp(w, [0.3, -1.0], [0.3, 1.0]))
    # y0 pinned at 0.3; y1 minimizes (0.3, y1)' W (0.3, y1) => y1 = -0.4*0.3.
    assert y[0] == 0.3
    assert y[1] == pytest.approx(-0.12, abs=1e-12)


def test_pinned_coordinate_is_never_released(monkeypatch):
    # y0 pinned at -0.3 has a multiplier of the sign that would release a
    # coordinate at its lower bound; pinned, it stays, so one face solve
    # reaches the optimum y1 = 0.12.
    calls = []
    original = boxqp._solve_face

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(boxqp, "_solve_face", counting)
    w = np.array([[1.0, 0.4], [0.4, 1.0]])
    y = solve_boxqp(qp(w, [-0.3, -1.0], [-0.3, 1.0]))
    assert y[0] == -0.3
    assert y[1] == pytest.approx(0.12, abs=1e-12)
    assert len(calls) == 1


def test_active_coordinates_are_exact():
    # Coordinates held at a bound come back bit-for-bit equal to it, also
    # when several are coupled through A.
    rng = np.random.default_rng(3)
    active = 0
    for _ in range(50):
        w = random_pd(rng, 6, 0.1)
        values = rng.random(3) + 0.5
        lower = np.r_[values, [-np.inf] * 3]
        upper = np.r_[values + 1.0, [np.inf] * 3]
        y = solve_boxqp(qp(w, lower, upper))
        near = np.abs(y - lower) < 1e-9
        assert np.array_equal(y[near], lower[near])
        active += int(np.count_nonzero(near))
    assert active >= 50


def test_coupled_2x2_hand_solution():
    w = np.array([[1.0, -0.9], [-0.9, 1.0]])
    # Minimizing y'Wy with y0 >= 1 pulls y1 up to 0.9.
    y = solve_boxqp(qp(w, [1.0, -np.inf], [np.inf, np.inf]))
    assert y[0] == pytest.approx(1.0, abs=1e-12)
    assert y[1] == pytest.approx(0.9, abs=1e-10)


def test_kkt_certificate_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = random_pd(rng, n, 0.05)
        lower = np.where(rng.random(n) < 0.3, -np.inf, -rng.random(n))
        upper = np.where(rng.random(n) < 0.3, np.inf, rng.random(n))
        # Occasionally shift the box away from zero.
        if rng.random() < 0.5:
            shift = rng.standard_normal(n) * 0.5
            lower = lower + shift
            upper = upper + shift
        y = solve_boxqp(qp(w, lower, upper), tol=1e-10)
        assert np.all(y >= lower - 1e-12) and np.all(y <= upper + 1e-12)
        g = 2.0 * (w @ y)
        for i in range(n):
            if abs(y[i] - lower[i]) < 1e-9 and lower[i] != upper[i]:
                assert g[i] >= -1e-8
            elif abs(y[i] - upper[i]) < 1e-9 and lower[i] != upper[i]:
                assert g[i] <= 1e-8
            elif lower[i] != upper[i]:
                assert abs(g[i]) <= 1e-8


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        w = random_pd(rng, n, 0.1)
        center = rng.standard_normal(n) * 0.4
        lower = center - rng.random(n)
        upper = center + rng.random(n)
        y = solve_boxqp(qp(w, lower, upper), tol=1e-12)
        ref = projected_gradient_boxqp(w, lower, upper, iters=30_000)
        assert float(y @ w @ y) <= float(ref @ w @ ref) + 1e-9
        assert np.max(np.abs(y - ref)) < 1e-5


def test_warm_start_gives_same_answer():
    rng = np.random.default_rng(21)
    w = random_pd(rng, 5, 0.1)
    lower = -rng.random(5)
    upper = rng.random(5)
    cold = solve_boxqp(qp(w, lower, upper))
    warm = solve_boxqp(qp(w, lower, upper), y0=upper)
    assert np.max(np.abs(cold - warm)) < 1e-9


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        BoxQP(np.eye(2), [1.0, 0.0], [0.0, 1.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        BoxQP(np.eye(3), [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        BoxQP(np.ones((2, 3)), [0.0, 0.0], [1.0, 1.0, 1.0])


def test_nan_box_end_rejected():
    for lower, upper in (([np.nan, -1.0, -1.0], [1.0, 1.0, 1.0]),
                         ([-1.0, -1.0, -1.0], [1.0, np.nan, 1.0])):
        with pytest.raises(ValueError, match="NaN"):
            BoxQP(np.eye(3), lower, upper)


def test_repeated_index_rejected():
    # A repeated row of a makes A = a[index][:, index] singular.
    with pytest.raises(ValueError, match="repeated"):
        BoxQP(np.eye(3) + 0.1, [0.5, 0.5], [1.0, 1.0], index=[1, 1])


def test_y0_size_must_match_the_box():
    problem = qp(np.eye(3), [-1.0] * 3, [1.0] * 3)
    for y0 in ([0.5], [0.5, 0.5], np.zeros(4), np.zeros((2, 2))):
        with pytest.raises(ValueError, match=f"y0 has {np.size(y0)} entries but the box has 3"):
            solve_boxqp(problem, y0=y0)


def test_dimension_mismatch_rejected_with_index():
    big = np.eye(4)
    with pytest.raises(ValueError):
        BoxQP(big, [0.0, 0.0], [1.0, 1.0], index=[0, 1, 2])
    with pytest.raises(ValueError):
        BoxQP(big, [0.0, 0.0], [1.0, 1.0], index=[0, 4])
    with pytest.raises(ValueError):
        BoxQP(big, [0.0, 0.0], [1.0, 1.0], index=[-1, 2])
    with pytest.raises(ValueError):
        BoxQP(np.ones((4, 3)), [0.0, 0.0], [1.0, 1.0], index=[0, 1])


def kkt_holds(w, y, lower, upper, tol=1e-8):
    """KKT of min y'Wy on the box, with g = 2 W y."""
    g = 2.0 * (w @ y)
    held = lower == upper
    at_lower = ~held & (np.abs(y - lower) < 1e-9)
    at_upper = ~held & ~at_lower & (np.abs(y - upper) < 1e-9)
    free = ~held & ~at_lower & ~at_upper
    return (np.all(y >= lower - 1e-12) and np.all(y <= upper + 1e-12)
            and np.all(g[at_lower] >= -tol) and np.all(g[at_upper] <= tol)
            and np.all(np.abs(g[free]) <= tol))


def test_index_form_matches_copied_block():
    # The QP on big[idx][:, idx] given as (big, index) or as the copied
    # block: infinite ends, pinned coordinates, cold and warm starts.
    rng = np.random.default_rng(31)
    for trial in range(320):
        m = int(rng.integers(2, 14))
        n = int(rng.integers(1, m + 1))
        big = random_pd(rng, m, 0.05)
        idx = rng.choice(m, n, replace=False)
        if trial % 2:
            idx = np.sort(idx)
        lower = np.where(rng.random(n) < 0.25, -np.inf, -rng.random(n))
        upper = np.where(rng.random(n) < 0.25, np.inf, rng.random(n))
        shift = rng.standard_normal(n) * 0.5 * (rng.random() < 0.5)
        lower, upper = lower + shift, upper + shift
        pin = rng.random(n) < 0.15
        lower[pin] = upper[pin] = np.where(np.isfinite(lower[pin]), lower[pin], 0.3)
        y0 = [None, np.where(np.isfinite(lower), lower, 0.0),
              np.where(np.isfinite(upper), upper, 0.0)][trial % 3]
        copied = solve_boxqp(BoxQP(big[np.ix_(idx, idx)], lower, upper), y0=y0)
        indexed = solve_boxqp(BoxQP(big, lower, upper, index=idx), y0=y0)
        assert np.max(np.abs(copied - indexed), initial=0.0) <= 1e-12
        assert np.array_equal(indexed[pin], lower[pin])
        assert kkt_holds(np.linalg.inv(big[np.ix_(idx, idx)]), indexed, lower, upper)


def test_ridge_fallback_on_singular_active_block(monkeypatch):
    # Coordinates 0 and 1 are the same variable, so A_CC is singular once
    # both are held at their lower bounds: the face solve must fall back to
    # the ridge and still return a feasible point.
    base = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
    lower = np.array([0.5, 0.5, -np.inf])
    upper = np.array([1.0, 1.0, np.inf])
    big = np.eye(5)
    idx = np.array([3, 1, 4])
    big[np.ix_(idx, idx)] = base
    failures = []
    original = linalg.cholesky_logdet

    def counting(a):
        try:
            return original(a)
        except NotPositiveDefiniteError:
            failures.append(a.shape[0])
            raise

    monkeypatch.setattr(linalg, "cholesky_logdet", counting)
    results = []
    for problem in (BoxQP(base, lower, upper), BoxQP(big, lower, upper, index=idx)):
        failures.clear()
        y = solve_boxqp(problem, y0=lower)
        assert failures == [2]
        assert np.all(y >= lower) and np.all(y <= upper)
        assert np.array_equal(y[:2], lower[:2])
        assert y[2] == pytest.approx(0.15, abs=1e-9)
        results.append(y)
    assert np.max(np.abs(results[0] - results[1])) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_matches_active_set_oracle(seed):
    # Block pivoting and the primal active-set method reach the same
    # optimum on index-form problems with infinite ends, pinned coordinates,
    # cold and warm starts.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    n = int(rng.integers(1, m + 1))
    big = random_pd(rng, m, 0.05)
    idx = rng.choice(m, n, replace=False)
    lower = np.where(rng.random(n) < 0.25, -np.inf, -rng.random(n))
    upper = np.where(rng.random(n) < 0.25, np.inf, rng.random(n))
    shift = rng.standard_normal(n) * rng.random()
    lower, upper = lower + shift, upper + shift
    pin = rng.random(n) < 0.15
    lower[pin] = upper[pin] = np.where(np.isfinite(lower[pin]), lower[pin], 0.3)
    y0 = [None, np.where(np.isfinite(lower), lower, 0.0),
          np.where(np.isfinite(upper), upper, 0.0)][int(rng.integers(3))]
    y = solve_boxqp(BoxQP(big, lower, upper, index=idx), y0=y0)
    ref, _ = active_set_boxqp(big[np.ix_(idx, idx)], lower, upper, y0=y0)
    assert np.max(np.abs(y - ref)) <= 1e-12
    assert np.array_equal(y[pin], lower[pin])
    for end in (lower, upper):
        near = np.abs(y - end) < 1e-9
        assert np.array_equal(y[near], end[near])
    assert kkt_holds(np.linalg.inv(big[np.ix_(idx, idx)]), y, lower, upper)


def test_murty_single_exchange_when_the_count_stalls(monkeypatch):
    # The first row QP of a glasso fit, from Sigma = S, on which full
    # exchanges stop reducing the infeasible count: pivoting then exchanges
    # only the largest infeasible index.
    rng = np.random.default_rng(86)
    mix = np.eye(8) + rng.standard_normal((8, 8)) * rng.uniform(0.1, 0.5)
    s = np.corrcoef(rng.standard_normal((16, 8)) @ mix, rowvar=False)
    rho = rng.choice([0.05, 0.1, 0.3])
    lower, upper = s[0, 1:] - rho, s[0, 1:] + rho
    problem = BoxQP(s, lower, upper, index=np.arange(1, 8))
    faces = []
    original = boxqp._solve_face

    def recording(problem, state, fixed):
        y, z = original(problem, state, fixed)
        faces.append((state.copy(), y, fixed, z))
        return y, z

    monkeypatch.setattr(boxqp, "_solve_face", recording)
    y = solve_boxqp(problem, y0=s[0, 1:])
    assert len(faces) <= 10
    single = 0
    for (state, target, fixed, z), (after, *_) in zip(faces, faces[1:]):
        infeasible = (state == FREE) & ((target < lower) | (target > upper))
        infeasible[fixed] = np.where(state[fixed] == AT_LOWER, -2.0 * z, 2.0 * z) > 1e-10
        changed = (after != state).nonzero()[0]
        if np.count_nonzero(infeasible) > 1 and changed.size == 1:
            assert changed[0] == infeasible.nonzero()[0][-1]
            single += 1
    assert single >= 1
    assert kkt_holds(np.linalg.inv(s[1:, 1:]), y, lower, upper)
    ref, _ = active_set_boxqp(s[1:, 1:], lower, upper, y0=s[0, 1:])
    assert np.max(np.abs(ref - y)) <= 1e-12


def test_pivot_rounds_count_against_max_iter():
    # From the lower ends, the optimum needs a second face solve.
    problem = qp(np.array([[1.0, -0.9], [-0.9, 1.0]]), [1.0, -2.0], [np.inf, 2.0])
    with pytest.raises(MaxIterationsExceededError):
        solve_boxqp(problem, y0=[1.0, -2.0], max_iter=1)
    y = solve_boxqp(problem, y0=[1.0, -2.0], max_iter=2)
    assert y == pytest.approx([1.0, 0.9], abs=1e-12)


def bit_identical(problem, **kwargs):
    """solve_boxqp and the first-written pivoting code agree bit for bit,
    also on the last iterate when both reach ``max_iter``."""
    try:
        ref = reference_boxqp(problem, **kwargs)
    except MaxIterationsExceededError as exc:
        with pytest.raises(MaxIterationsExceededError) as got:
            solve_boxqp(problem, **kwargs)
        return np.array_equal(got.value.iterate, exc.iterate)
    return np.array_equal(solve_boxqp(problem, **kwargs), ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_bits_match_the_reference_pivoting(seed):
    # Index-form problems with infinite ends, pinned coordinates, cold and
    # warm starts, seeds on and off the box, and tight boxes that hold many
    # coordinates at a bound.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    n = int(rng.integers(1, m + 1))
    big = random_pd(rng, m, rng.choice([0.0, 0.05, 1.0]))
    idx = rng.choice(m, n, replace=False)
    width = rng.choice([0.05, 0.5, 2.0])
    lower = np.where(rng.random(n) < 0.2, -np.inf, -width * rng.random(n))
    upper = np.where(rng.random(n) < 0.2, np.inf, width * rng.random(n))
    shift = rng.standard_normal(n) * rng.random()
    lower, upper = lower + shift, upper + shift
    pin = rng.random(n) < 0.15
    lower[pin] = upper[pin] = np.where(np.isfinite(lower[pin]), lower[pin], 0.3)
    y0 = [None, np.where(np.isfinite(lower), lower, 0.0),
          np.where(np.isfinite(upper), upper, 0.0),
          big[idx[0], idx] * rng.random(),
          np.where(rng.random(n) < 0.3, np.inf * rng.choice([-1, 1], n), 0.0)][int(rng.integers(5))]
    assert bit_identical(BoxQP(big, lower, upper, index=idx), y0=y0)


def test_bits_match_the_reference_on_a_ridged_face():
    # A singular A_CC: both codes take the ridge on the same face.
    base = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
    big = np.eye(5)
    idx = np.array([3, 1, 4])
    big[np.ix_(idx, idx)] = base
    lower = np.array([0.5, 0.5, -np.inf])
    upper = np.array([1.0, 1.0, np.inf])
    for problem in (BoxQP(base, lower, upper), BoxQP(big, lower, upper, index=idx)):
        for y0 in (lower, None, [1.0, 0.5, 3.0]):
            assert bit_identical(problem, y0=y0)


def first_glasso_row(rng, d):
    """The first row QP of a glasso fit from Sigma = S, on a sample
    correlation S of 2d draws, and its warm start."""
    mix = np.eye(d) + rng.standard_normal((d, d)) * rng.uniform(0.1, 0.5)
    s = np.corrcoef(rng.standard_normal((2 * d, d)) @ mix, rowvar=False)
    rho = rng.choice([0.05, 0.1, 0.3])
    return BoxQP(s, s[0, 1:] - rho, s[0, 1:] + rho, index=np.arange(1, d)), s[0, 1:]


@pytest.mark.parametrize("seed", [86, 24, 83, 89])
def test_bits_match_the_reference_through_murty_rounds(seed):
    # Rows on which full exchanges stall, so pivoting takes Murty rounds:
    # seed 86 is the case of test_murty_single_exchange_when_the_count_stalls
    # (only multipliers are infeasible there); in the others free and bound
    # coordinates are infeasible together, and the largest index is a free
    # one (24, 89) or a bound one (83).
    rng = np.random.default_rng(seed)
    problem, y0 = first_glasso_row(rng, 8 if seed == 86 else int(rng.integers(6, 16)))
    assert bit_identical(problem, y0=y0)
    # Stopped after each round: the same iterate comes back in the error.
    for max_iter in range(1, 11):
        assert bit_identical(problem, y0=y0, max_iter=max_iter)
