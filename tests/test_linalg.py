import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from golazo import linalg
from golazo.errors import NonpositiveDiagonalError, NotPositiveDefiniteError

from oracles import bruteforce_det, random_pd


def test_logdet_identity():
    _, logdet = linalg.cholesky_logdet(np.eye(3))
    assert logdet == 0.0


def test_logdet_diagonal():
    _, logdet = linalg.cholesky_logdet(np.diag([2.0, 2.0]))
    assert logdet == pytest.approx(2.0 * np.log(2.0), abs=1e-14)


def test_logdet_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])  # det = 3
    _, logdet = linalg.cholesky_logdet(a)
    assert logdet == pytest.approx(np.log(3.0), abs=1e-14)


def test_cholesky_reconstructs():
    rng = np.random.default_rng(3)
    a = random_pd(rng, 6, 0.1)
    factor, _ = linalg.cholesky_logdet(a)
    assert np.allclose(factor @ factor.T, a, atol=1e-12)


def test_cholesky_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        linalg.cholesky_logdet(a)
    assert exc.value.pivot_index == 1


# Pivot 1 is positive, about 2e-13, but below PIVOT_RTOL times its a_ii = 1.
NEAR_SINGULAR = np.array([[1.0, 1.0 - 1e-13, 0.0], [1.0 - 1e-13, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_cholesky_pivot_index_at_relative_tolerance():
    # Each pivot is tested against its own diagonal entry: a tiny a_ii with
    # a pivot of its size passes beside a large one, and a pivot far below
    # its a_ii fails.
    _, logdet = linalg.cholesky_logdet(np.diag([1.0, 1e-13, 1.0]))
    assert logdet == pytest.approx(np.log(1e-13), rel=1e-15)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        linalg.cholesky_logdet(NEAR_SINGULAR)
    assert exc.value.pivot_index == 1


def _cases_near_the_tolerance(rng):
    """PD matrices and ones with a pivot at or just past PIVOT_RTOL * a_ii."""
    for _ in range(40):
        d = int(rng.integers(2, 7))
        v = rng.standard_normal((d, d + 1))
        yield v @ v.T
        # A column made (nearly) a multiple of the one before it.
        j = int(rng.integers(1, d))
        w = v.copy()
        w[j] = w[j - 1] * rng.uniform(0.5, 2.0) + v[j] * float(rng.choice([0.0, 1e-7, 1e-6, 1e-5]))
        yield w @ w.T
    yield NEAR_SINGULAR
    yield np.diag([1.0, 1e-13, 1.0])


def test_pivot_decisions_do_not_change_with_a_power_of_two_scale():
    # D A D with D a diagonal of powers of two has the factor D L, bit for
    # bit, so it passes or fails at the same pivot as A: a unit-scale pivot
    # beside an a_ii of 2^60 is tested against its own a_ii.
    rng = np.random.default_rng(5)
    outcomes = set()
    for a in _cases_near_the_tolerance(rng):
        scale = np.ldexp(1.0, rng.integers(-30, 31, a.shape[0]))
        try:
            linalg.cholesky_logdet(a)
            expected = None
        except NotPositiveDefiniteError as exc:
            expected = exc.pivot_index
        try:
            linalg.cholesky_logdet(scale[:, None] * a * scale)
            got = None
        except NotPositiveDefiniteError as exc:
            got = exc.pivot_index
        assert got == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_check_square_symmetric_rejects_non_finite():
    a = np.eye(3)
    a[1, 2] = np.nan  # also asymmetric: non-finite must be reported first
    with pytest.raises(ValueError, match="non-finite"):
        linalg.check_square_symmetric(a)
    a[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linalg.check_square_symmetric(a)


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_check_square_symmetric_keeps_huge_symmetric_entries(big):
    # (a + a.T) / 2 overflowed here to inf, with a RuntimeWarning (an error
    # under this suite's warning filter).
    a = np.array([[1.0, big], [big, 1.0]])
    assert linalg.check_square_symmetric(a).tobytes() == a.tobytes()


@settings(max_examples=400, deadline=None)
@given(a=st.integers(1, 4).flatmap(lambda d: hnp.arrays(np.float64, (d, d), elements=(
    st.floats(allow_subnormal=True) | st.sampled_from([1e308, -1e308, 1.7e308, 5e-324, -0.0])))))
@example(a=np.array([[1.0, 1e308], [1.7e308, 1.0]]))
@example(a=np.array([[1.0, -1.7e308], [-1.7e308, 1.0]]))
@example(a=np.array([[-0.0, 0.0], [-0.0, 0.0]]))
def test_sym_is_the_plain_average_wherever_that_is_finite(a):
    with np.errstate(over="ignore", invalid="ignore"):
        want = (a + a.T) / 2.0
        got = linalg.sym(a)
    finite = np.isfinite(want)
    assert got[finite].tobytes() == want[finite].tobytes()
    # Where only the sum overflows, the mean is still formed: finite, and
    # the entry itself where the pair is exactly equal.
    over = ~finite & np.isfinite(a) & np.isfinite(a.T)
    assert np.isfinite(got[over]).all()
    assert np.array_equal(got[over & (a == a.T)], a[over & (a == a.T)])
    assert np.array_equal(got, got.T, equal_nan=True)


def test_positive_diagonal_names_the_first_entry_at_or_below_zero():
    a = np.diag([2.0, 3.0])
    assert np.array_equal(linalg.positive_diagonal(a), [2.0, 3.0])
    for diag, index in (([1.0, 0.0, -1.0], 1), ([-0.0, 1.0], 0)):
        with pytest.raises(NonpositiveDiagonalError,
                           match=f"^diagonal entry {index} is not strictly positive$") as exc:
            linalg.positive_diagonal(np.diag(diag))
        assert exc.value.index == index


def test_logdet_matches_cofactor_expansion():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        a = random_pd(rng, d, 0.2)
        _, logdet = linalg.cholesky_logdet(a)
        assert logdet == pytest.approx(np.log(bruteforce_det(a)), rel=1e-10)


def test_invert_identity_and_diagonal():
    assert np.array_equal(linalg.invert_pd(np.eye(4)), np.eye(4))
    assert np.allclose(linalg.invert_pd(np.diag([2.0, 4.0])),
                       np.diag([0.5, 0.25]), atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 7, 40, 150])
def test_invert_is_exactly_symmetric_and_matches_numpy(d):
    # dpotri fills one triangle; invert_pd mirrors it.
    a = random_pd(np.random.default_rng(d), d)
    k = linalg.invert_pd(a)
    assert np.array_equal(k, k.T)
    ref = np.linalg.inv(a)
    assert np.max(np.abs(k - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("blocks", [False, True], ids=["random", "block-diagonal"])
def test_invert_mirrors_dpotri_bit_for_bit_without_negative_zero(blocks):
    rng = np.random.default_rng(0)
    a = random_pd(rng, 12)
    if blocks:  # three interleaved blocks: OpenBLAS's dpotri leaves -0.0 between them
        label = rng.integers(0, 3, 12)
        a = np.where(label[:, None] == label, a, 0.0)
    inv, _ = scipy.linalg.lapack.dpotri(linalg.cholesky_logdet(a)[0], lower=True)
    want = np.tril(inv) + np.tril(inv, -1).T
    k = linalg.invert_pd(a)
    assert np.array_equal(k.view(np.uint64), want.view(np.uint64))
    assert not np.signbit(k[k == 0.0]).any()


def test_invert_2x2_adjugate():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert np.allclose(linalg.invert_pd(a), expected, atol=1e-14)


def test_invert_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 21))
        a = random_pd(rng, d, 0.05)
        assert np.max(np.abs(linalg.invert_pd(linalg.invert_pd(a)) - a)) < 1e-8


def test_schur_logdet_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        a = random_pd(rng, d, 0.1)
        _, full = linalg.cholesky_logdet(a)
        for j in range(d):
            keep = np.r_[0:j, j + 1:d]
            sub = a[np.ix_(keep, keep)]
            schur = a[j, j] - a[j, keep] @ linalg.invert_pd(sub) @ a[keep, j]
            _, part = linalg.cholesky_logdet(sub)
            assert full == pytest.approx(part + np.log(schur), abs=1e-9)


def test_is_m_matrix():
    assert linalg.is_m_matrix(np.eye(3))
    assert not linalg.is_m_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert linalg.is_m_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    # Nonpositive off-diagonal but indefinite.
    assert not linalg.is_m_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))


def test_solve_pd_matches_factor_then_solve_bit_for_bit(monkeypatch):
    # One dposv call gives the bits of dpotrf then dpotrs, and a solve that
    # succeeds forms no log-determinant.
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(60):
        d = int(rng.integers(1, 40))
        a = random_pd(rng, d, float(rng.choice([0.0, 0.05, 1.0])))
        b = rng.standard_normal(d)
        factor, _ = linalg.cholesky_logdet(a)
        cases.append((a, b, scipy.linalg.lapack.dpotrs(factor, b, lower=True)[0]))
    monkeypatch.setattr(linalg, "cholesky_logdet", None)
    for a, b, expected in cases:
        assert np.array_equal(linalg.solve_pd(a, b), expected)


def walked_first_bad_pivot(a, factor, count=None):
    """``linalg._first_bad_pivot`` one pivot at a time, each p_i against
    PIVOT_RTOL * a_ii."""
    for i, p in enumerate(factor.diagonal().tolist()[:count]):
        if not p * p > linalg.PIVOT_RTOL * a[i, i]:
            return i
    return None


def diagonal_pair(pivots, diagonal):
    """A diagonal factor with these pivots and a with this diagonal, both
    padded with 1.0 to one size; a NaN a_ii makes its pivot NaN, as it does
    in ``dpotrf``."""
    n = max(len(pivots), len(diagonal))
    a = np.diag((diagonal + [1.0] * n)[:n])
    pivots = np.array((pivots + [1.0] * n)[:n])
    pivots[np.isnan(a.diagonal())] = np.nan
    return np.diag(pivots), a


_PIVOTS = st.sampled_from([1.0, 0.5, 2.0, 1e-6, 1e-7, 0.0, -0.0, -1.0, -1e-7, np.inf,
                           np.nan, 1e300, 5e-324])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIVOTS, max_size=8), st.lists(_PIVOTS, min_size=1, max_size=8),
       st.one_of(st.none(), st.integers(0, 8)))
def test_first_bad_pivot_matches_the_walk(pivots, diagonal, count):
    # The one-pass test over the pivot list gives the index the walk gives:
    # NaN, zero, negative, tiny and infinite pivots, a NaN a_ii, and counts.
    factor, a = diagonal_pair(pivots, diagonal)
    assert linalg._first_bad_pivot(a, factor, count) == walked_first_bad_pivot(a, factor, count)


_DIAGONAL = st.one_of(st.floats(1e-8, 1e8), st.sampled_from([np.nan, 0.0, -1.0, -1e8, 5e-324]))
_NEAR_TOLERANCE = st.one_of(_PIVOTS, st.floats(1e-10, 1e5), st.floats(-1e-3, 0.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(_NEAR_TOLERANCE, min_size=1, max_size=8), st.lists(_DIAGONAL, min_size=1, max_size=8),
       st.lists(_DIAGONAL, max_size=8), st.one_of(st.none(), st.integers(0, 8)))
@example([1e-5, 1.0], [1.0], [1e8], None)  # the block's bound fails, the face's own passes
@example([1e-7, 1.0], [1.0], [1e8], 1)     # both fail
@example([1.0, 1e-5], [1e8, 1.0], [], None)  # fails at the face's largest a_ii, passes its own
@example([1e-5, np.nan], [1.0], [1.0], 1)  # a NaN pivot past ``count``
def test_block_bound_reaches_the_walks_decision(pivots, face, rest, count):
    # solve_pd passes a face whose pivots all pass its block's bound, and
    # else walks them at the face's own tolerance.  The block holds the
    # face's diagonal, so that is the walk's decision on every input: NaN,
    # zero, negative and tiny pivots and a_ii, a_ii from 1e-8 to 1e8, counts.
    factor, a = diagonal_pair(pivots, face)
    bound = linalg._pivot_tol(np.diag([*a.diagonal().tolist(), *rest]))
    walked = linalg._first_bad_pivot(a, factor, count) is None
    assert walked == (walked_first_bad_pivot(a, factor, count) is None)
    if linalg._pivots_pass(factor.diagonal().tolist()[:count], bound):
        assert walked


def test_solve_pd_falls_back_to_the_face_tolerance(monkeypatch):
    # A face of a block with a_ii = 1e8: its pivot 1e-5 fails the block's
    # bound 1e-4 but passes its own test, so the walk runs and the face
    # solves; a pivot of about 4.5e-7 on a_ii = 1 fails both and raises at
    # that pivot.
    walks = []
    original = linalg._first_bad_pivot

    def counting(a, factor, count=None):
        walks.append(a.shape[0])
        return original(a, factor, count)

    monkeypatch.setattr(linalg, "_first_bad_pivot", counting)
    bound = linalg._pivot_tol(np.diag([1.0, 1e8]))
    b = np.array([1.0, 2.0])
    a = np.diag([1.0, 1e-10])
    assert np.array_equal(linalg.solve_pd(a, b, bound), linalg.solve_pd(a, b))
    assert walks == [2, 2]
    assert linalg.solve_pd(np.eye(2), b, bound).tolist() == b.tolist() and walks == [2, 2]
    with pytest.raises(NotPositiveDefiniteError) as got:
        linalg.solve_pd(NEAR_SINGULAR[:2, :2], b, bound)
    assert got.value.pivot_index == 1


def test_strict_lower_mask_is_shared_and_read_only():
    assert linalg._strict_lower(4) is linalg._strict_lower(4)
    assert np.array_equal(linalg._strict_lower(4), np.tri(4, k=-1, dtype=bool))
    assert not linalg._strict_lower(4).flags.writeable


@pytest.mark.parametrize("a, pivot", [
    (np.array([[1.0, 2.0], [2.0, 1.0]]), 1),        # LAPACK fails at pivot 1
    (NEAR_SINGULAR, 1),                             # positive, below the relative tolerance
    (np.diag([-1.0, 1.0]), 0),
    (np.array([[1.0, 0.5], [0.5, np.nan]]), 1),     # max skips the NaN; LAPACK stops at it
    (np.zeros((2, 2)), 0),
], ids=["indefinite", "tiny-pivot", "negative-diagonal", "nan", "zero"])
def test_solve_pd_fails_at_the_cholesky_pivot(a, pivot):
    with pytest.raises(NotPositiveDefiniteError) as expected:
        linalg.cholesky_logdet(a)
    with pytest.raises(NotPositiveDefiniteError) as got:
        linalg.solve_pd(a, np.ones(a.shape[0]))
    assert expected.value.pivot_index == pivot
    assert got.value.pivot_index == pivot
