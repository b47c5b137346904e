import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golazo import boxqp, linalg
from golazo.boxqp import AT_LOWER, FREE, row_problems, solve_boxqp
from golazo.errors import MaxIterationsExceededError, NotPositiveDefiniteError

from oracles import (
    active_set_boxqp,
    face_of,
    feasible_seed,
    projected_gradient_boxqp,
    random_pd,
    reference_boxqp,
)


def problem_of(a, lower, upper):
    """The one problem ``row_problems`` builds on A = a for the box
    [lower, upper], given as one row."""
    box = [np.atleast_2d(np.asarray(end, dtype=float)) for end in (lower, upper)]
    return row_problems(np.asarray(a, dtype=float), *box)[0]


def qp(w, lower, upper):
    """The box QP  min y'Wy  on [lower, upper]; the problem takes A = W^{-1}."""
    return problem_of(np.linalg.inv(w), lower, upper)


def on_face(problem, state, y0=None):
    """A point of the box on the face ``state``: its ends bit for bit where
    the face holds a coordinate, and elsewhere y0 (None for the zero vector)
    moved into the box as ``reference_boxqp`` moves its seed."""
    return np.where(state > 0, problem.upper,
                    np.where(state < 0, problem.lower, feasible_seed(problem, y0)))


def solve(problem, y0=None):
    """solve_boxqp from the face of y0 (None for the zero vector) and the
    point on it that ``on_face`` gives."""
    state = face_of(problem, y0)
    return solve_boxqp(problem, state, on_face(problem, state, y0))


def test_unconstrained_minimum_is_zero():
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    y = solve(qp(w, [-np.inf, -np.inf], [np.inf, np.inf]))
    assert np.allclose(y, 0.0, atol=1e-12)


def test_zero_inside_box():
    w = np.eye(3)
    y = solve(qp(w, [-1.0] * 3, [1.0] * 3))
    assert np.allclose(y, 0.0, atol=1e-12)


def test_active_lower_bound():
    # Separable: each coordinate is pushed to the bound nearest zero.
    w = np.eye(2)
    y = solve(qp(w, [0.5, -1.0], [2.0, 1.0]))
    assert np.allclose(y, [0.5, 0.0], atol=1e-12)


def test_equality_pinned_coordinates():
    w = np.array([[1.0, 0.4], [0.4, 1.0]])
    y = solve(qp(w, [0.3, -1.0], [0.3, 1.0]))
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
    y = solve(qp(w, [-0.3, -1.0], [-0.3, 1.0]))
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
        y = solve(qp(w, lower, upper))
        near = np.abs(y - lower) < 1e-9
        assert np.array_equal(y[near], lower[near])
        active += int(np.count_nonzero(near))
    assert active >= 50


def test_coupled_2x2_hand_solution():
    w = np.array([[1.0, -0.9], [-0.9, 1.0]])
    # Minimizing y'Wy with y0 >= 1 pulls y1 up to 0.9.
    y = solve(qp(w, [1.0, -np.inf], [np.inf, np.inf]))
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
        y = solve(qp(w, lower, upper))
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
        y = solve(qp(w, lower, upper))
        ref = projected_gradient_boxqp(w, lower, upper, iters=30_000)
        assert float(y @ w @ y) <= float(ref @ w @ ref) + 1e-9
        assert np.max(np.abs(y - ref)) < 1e-5


def test_warm_start_gives_same_answer():
    rng = np.random.default_rng(21)
    w = random_pd(rng, 5, 0.1)
    lower = -rng.random(5)
    upper = rng.random(5)
    problem = qp(w, lower, upper)
    cold = solve(problem)
    warm = solve(problem, upper)
    assert np.max(np.abs(cold - warm)) < 1e-9


def test_empty_box_rejected():
    with pytest.raises(ValueError, match="empty box"):
        problem_of(np.eye(2), [1.0, 0.0], [0.0, 1.0])


def test_dimension_mismatch_rejected():
    for a, lower, upper in ((np.eye(3), [0.0, 0.0], [1.0, 1.0]),
                            (np.ones((2, 3)), [0.0, 0.0], [1.0, 1.0]),
                            (np.eye(2), [0.0, 0.0], [1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="dimension"):
            problem_of(a, lower, upper)
    with pytest.raises(ValueError, match="dimension"):
        row_problems(np.eye(2), np.zeros(2), np.ones(2))  # one row, but not as a matrix


def test_nan_box_end_rejected():
    for lower, upper in (([np.nan, -1.0, -1.0], [1.0, 1.0, 1.0]),
                         ([-1.0, -1.0, -1.0], [1.0, np.nan, 1.0])):
        with pytest.raises(ValueError, match="NaN"):
            problem_of(np.eye(3), lower, upper)


def test_row_problems_are_the_single_row_problems():
    # One check of the block's box gives each row the arrays it gets as a
    # box of its own, bit for bit, a pinned coordinate's -0.0 end included;
    # every problem reads the same A, and has the block's pivot bound and
    # the round cap 50 (n + 5).
    rng = np.random.default_rng(3)
    a = random_pd(rng, 5)
    lower = -rng.uniform(0.0, 1.0, (5, 5))
    upper = rng.uniform(0.0, 1.0, (5, 5))
    lower[1, 3], upper[1, 3] = 0.0, -0.0
    lower[2, 0] = upper[2, 0] = np.inf
    problems = row_problems(a, lower, upper)
    assert len(problems) == 5
    for i, got in enumerate(problems):
        ref = row_problems(a, lower[i:i + 1], upper[i:i + 1])[0]
        assert got.a is a and ref.a is a
        assert got.pivot_bound == ref.pivot_bound == linalg._pivot_tol(a)
        assert got.max_rounds == ref.max_rounds == 500
        for name in ("lower", "upper", "movable"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert problems[1].upper[3:4].tobytes() == lower[1, 3:4].tobytes()  # +0.0, not -0.0


def test_row_problems_check_the_box():
    box = np.zeros((2, 2))
    for lower, upper, match in ((box + 1.0, box, "empty box"), (box + np.nan, box, "NaN"),
                                (box, box + np.nan, "NaN"), (box, np.zeros((2, 3)), "dimension")):
        with pytest.raises(ValueError, match=match):
            row_problems(np.eye(2), lower, upper)


def test_nan_face_value_is_neither_below_nor_above(monkeypatch):
    # inf - inf in the free column of A's fixed rows makes that face value
    # NaN: it differs from its clip into the box but is no bound crossing,
    # so the first face is returned as it is, as the first-written code
    # returns it.
    calls = []
    original = boxqp._solve_face

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(boxqp, "_solve_face", counting)
    a = np.array([[1.0, 0.0, np.inf], [0.0, 1.0, -np.inf], [np.inf, -np.inf, 1.0]])
    problem = problem_of(a, [1.0, 1.0, -1.0], [1.0, 1.0, 1.0])
    with np.errstate(invalid="ignore"):
        y = solve(problem)
        assert y[:2].tolist() == [1.0, 1.0] and np.isnan(y[2]) and len(calls) == 1
        assert bit_identical(problem)


def test_pinned_coordinate_takes_the_lower_end_bit_for_bit():
    # Ends that differ only in the sign of a zero pin the coordinate at
    # lower, -0.0, in every face solve, however the clip into the box
    # breaks the tie; coordinate 2 leaves the box on the first face.
    w = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, -0.9], [0.5, -0.9, 2.0]])
    problem = qp(w, [-0.0, 0.2, -0.01], [0.0, 1.0, 0.01])
    assert np.signbit(problem.upper[0]) and problem.upper[2] == 0.01
    for y0 in (None, [0.0, 0.2, 0.0]):
        state = face_of(problem, y0)
        y = solve_boxqp(problem, state, on_face(problem, state, y0))
        assert np.signbit(y[0]) and y[1] == 0.2 and state[2] != FREE
        assert bit_identical(problem, y0=y0)


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


def full_width(lower, upper, j, value=0.0):
    """The box with a free coordinate (-inf, inf) inserted at j, and a
    function that inserts ``value`` at j into a vector of the other ones."""
    def insert(v):
        return None if v is None else np.insert(np.asarray(v, dtype=float), j, value)
    return np.insert(lower, j, -np.inf), np.insert(upper, j, np.inf), insert


def test_full_width_matches_copied_block(monkeypatch):
    # The QP on big with coordinate j free is the QP on the copied block
    # big_{-j,-j}: the same optimum off j after the same face solves, with
    # infinite ends, pinned coordinates, cold and warm starts.
    calls = []
    original = boxqp._solve_face

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(boxqp, "_solve_face", counting)
    rng = np.random.default_rng(31)
    for trial in range(320):
        m = int(rng.integers(2, 14))
        big = random_pd(rng, m, 0.05)
        j = int(rng.integers(m))
        keep = np.delete(np.arange(m), j)
        n = m - 1
        lower = np.where(rng.random(n) < 0.25, -np.inf, -rng.random(n))
        upper = np.where(rng.random(n) < 0.25, np.inf, rng.random(n))
        shift = rng.standard_normal(n) * 0.5 * (rng.random() < 0.5)
        lower, upper = lower + shift, upper + shift
        pin = rng.random(n) < 0.15
        lower[pin] = upper[pin] = np.where(np.isfinite(lower[pin]), lower[pin], 0.3)
        y0 = [None, np.where(np.isfinite(lower), lower, 0.0),
              np.where(np.isfinite(upper), upper, 0.0)][trial % 3]
        calls.clear()
        copied = solve(problem_of(big[np.ix_(keep, keep)], lower, upper), y0)
        copied_faces = len(calls)
        wide_lower, wide_upper, insert = full_width(lower, upper, j, big[j, j])
        calls.clear()
        wide = solve(problem_of(big, wide_lower, wide_upper), insert(y0))
        assert len(calls) == copied_faces
        assert np.max(np.abs(copied - wide[keep]), initial=0.0) <= 1e-12
        assert np.array_equal(wide[keep][pin], lower[pin])
        assert kkt_holds(np.linalg.inv(big[np.ix_(keep, keep)]), wide[keep], lower, upper)
        assert kkt_holds(np.linalg.inv(big), wide, wide_lower, wide_upper)


def test_ridge_fallback_on_singular_active_block(monkeypatch):
    # Coordinates 0 and 1 are the same variable, so A_CC is singular once
    # both are held at their lower bounds: the face solve must fall back to
    # the ridge and still return a feasible point.
    base = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
    lower = np.array([0.5, 0.5, -np.inf])
    upper = np.array([1.0, 1.0, np.inf])
    # The same QP in full-width form, with a free coordinate at 2.
    big = np.eye(4)
    keep = np.array([0, 1, 3])
    big[np.ix_(keep, keep)] = base
    wide_lower, wide_upper, insert = full_width(lower, upper, 2)
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
    for problem, y0, take in ((problem_of(base, lower, upper), lower, np.arange(3)),
                              (problem_of(big, wide_lower, wide_upper), insert(lower), keep)):
        failures.clear()
        y = solve(problem, y0)[take]
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
    # optimum on principal blocks of a larger matrix, with infinite ends,
    # pinned coordinates, cold and warm starts.
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
    y = solve(problem_of(big[np.ix_(idx, idx)], lower, upper), y0)
    ref, _ = active_set_boxqp(big[np.ix_(idx, idx)], lower, upper, y0=y0)
    assert np.max(np.abs(y - ref)) <= 1e-12
    assert np.array_equal(y[pin], lower[pin])
    for end in (lower, upper):
        near = np.abs(y - end) < 1e-9
        assert np.array_equal(y[near], end[near])
    assert kkt_holds(np.linalg.inv(big[np.ix_(idx, idx)]), y, lower, upper)


def test_murty_single_exchange_when_the_count_stalls(monkeypatch):
    # The first row QP of a glasso fit, from Sigma = S, in the full-width
    # form the solver builds, on which full exchanges stop reducing the
    # infeasible count: pivoting then exchanges only the largest infeasible
    # index.
    rng = np.random.default_rng(86)
    mix = np.eye(8) + rng.standard_normal((8, 8)) * rng.uniform(0.1, 0.5)
    s = np.corrcoef(rng.standard_normal((16, 8)) @ mix, rowvar=False)
    rho = rng.choice([0.05, 0.1, 0.3])
    lower, upper = np.r_[-np.inf, s[0, 1:] - rho], np.r_[np.inf, s[0, 1:] + rho]
    problem = problem_of(s, lower, upper)
    state = face_of(problem, s[0])
    faces = []
    original = boxqp._solve_face

    def recording(problem, values, fixed):
        # The fixed coordinates are the ones the state, updated in place,
        # holds at an end, and the face sits on the ends it names.
        assert np.array_equal(fixed, state.nonzero()[0])
        target, z = original(problem, values, fixed)
        assert np.array_equal(target[fixed], np.where(state[fixed] == AT_LOWER,
                                                      lower[fixed], upper[fixed]))
        faces.append((state.copy(), target, fixed, z))
        return target, z

    monkeypatch.setattr(boxqp, "_solve_face", recording)
    y = solve_boxqp(problem, state, s[0])
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
    assert kkt_holds(np.linalg.inv(s[1:, 1:]), y[1:], lower[1:], upper[1:])
    ref, _ = active_set_boxqp(s[1:, 1:], lower[1:], upper[1:], y0=s[0, 1:])
    assert np.max(np.abs(ref - y[1:])) <= 1e-12


def test_pivot_rounds_count_against_max_rounds():
    # From the lower ends, the optimum needs a second face solve.
    problem = qp(np.array([[1.0, -0.9], [-0.9, 1.0]]), [1.0, -2.0], [np.inf, 2.0])
    with pytest.raises(MaxIterationsExceededError):
        solve(dataclasses.replace(problem, max_rounds=1), [1.0, -2.0])
    y = solve(dataclasses.replace(problem, max_rounds=2), [1.0, -2.0])
    assert y == pytest.approx([1.0, 0.9], abs=1e-12)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def bit_identical(problem, y0=None):
    """solve_boxqp from the face of y0 and the point of the box on it that
    ``on_face`` gives, and the first-written pivoting code from that point,
    agree bit for bit: in the vector, or in the last iterate when both reach
    the problem's round cap.  The point's free entries are not read."""
    state = face_of(problem, y0)
    point = on_face(problem, state, y0)
    try:
        ref = reference_boxqp(problem, y0=point, max_iter=problem.max_rounds)
    except MaxIterationsExceededError as exc:
        with pytest.raises(MaxIterationsExceededError) as got:
            solve_boxqp(problem, state, point)
        return same_bits(got.value.iterate, exc.iterate)
    return same_bits(solve_boxqp(problem, state, point), ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_bits_match_the_reference_pivoting(seed):
    # Principal blocks of a larger matrix, half of them in full-width form
    # with a free coordinate, with infinite ends, pinned coordinates, cold
    # and warm starts, seeds on and off the box, and tight boxes that hold
    # many coordinates at a bound; each solved from its face and a point
    # on it.
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
    if rng.random() < 0.5:
        j = int(rng.integers(n))
        lower[j], upper[j] = -np.inf, np.inf
    assert bit_identical(problem_of(big[np.ix_(idx, idx)], lower, upper), y0=y0)


def test_bits_match_the_reference_on_a_ridged_face():
    # A singular A_CC: both codes take the ridge on the same face.
    base = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
    big = np.eye(4)
    keep = np.array([0, 1, 3])
    big[np.ix_(keep, keep)] = base
    lower = np.array([0.5, 0.5, -np.inf])
    upper = np.array([1.0, 1.0, np.inf])
    wide_lower, wide_upper, insert = full_width(lower, upper, 2, 1.0)
    for y0 in (lower, None, [1.0, 0.5, 3.0]):
        assert bit_identical(problem_of(base, lower, upper), y0=y0)
        assert bit_identical(problem_of(big, wide_lower, wide_upper), y0=insert(y0))


def first_glasso_row(rng, d):
    """The first row QP of a glasso fit from Sigma = S, on a sample
    correlation S of 2d draws, in the full-width form the solver builds
    (coordinate 0 free), and its warm start."""
    mix = np.eye(d) + rng.standard_normal((d, d)) * rng.uniform(0.1, 0.5)
    s = np.corrcoef(rng.standard_normal((2 * d, d)) @ mix, rowvar=False)
    rho = rng.choice([0.05, 0.1, 0.3])
    lower, upper, _ = full_width(s[0, 1:] - rho, s[0, 1:] + rho, 0)
    return problem_of(s, lower, upper), s[0]


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
    for rounds in range(1, 11):
        assert bit_identical(dataclasses.replace(problem, max_rounds=rounds), y0=y0)
