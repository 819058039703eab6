import itertools
import math

import numpy as np
import pytest

from advice_csp.errors import InputError
from advice_csp.lp import OPT_TOL, LinearProgram, _expand_rows, _Simplex, solve_lp
from advice_csp.verify import lp_oracle_disagreements, lp_vertex_optimum, random_lp


def test_ranged_row_optimum():
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        rows=np.array([[1.0, 1.0]]),
        row_lo=np.array([1.0]),
        row_hi=np.array([1.5]),
        lo=np.zeros(2),
        hi=np.ones(2),
    )
    out = solve_lp(lp)
    assert out.is_optimal
    assert out.value == pytest.approx(1.5, abs=1e-9)


def test_box_infeasible_row():
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        rows=np.array([[1.0, 1.0]]),
        row_lo=np.array([3.0]),
        row_hi=np.array([4.0]),
        lo=np.zeros(2),
        hi=np.ones(2),
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(c=np.array([1.0]), lo=np.array([0.0]), hi=np.array([math.inf]))
    assert solve_lp(lp).status == "unbounded"


def test_empty_program_returns_offset():
    out = solve_lp(LinearProgram(c=np.zeros(0), offset=2.0))
    assert out.is_optimal and out.value == 2.0


def test_optimal_point_feasible_by_resubstitution():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lp = random_lp(rng)
        out = solve_lp(lp)
        if not out.is_optimal:
            continue
        assert np.all(out.x >= lp.lo - 1e-7) and np.all(out.x <= lp.hi + 1e-7)
        for a, lo, hi in zip(lp.rows, lp.row_lo, lp.row_hi):
            v = float(a @ out.x)
            assert lo - 1e-6 <= v <= hi + 1e-6
        assert out.value == pytest.approx(float(lp.c @ out.x) + lp.offset, rel=1e-7, abs=1e-7)


def test_dominates_feasible_witness():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 30:
        lp = random_lp(rng)
        out = solve_lp(lp)
        if not out.is_optimal:
            continue
        # Perturb the optimum back into the box to build a feasible witness.
        witness = np.clip(out.x + rng.normal(scale=0.01, size=lp.p), lp.lo, lp.hi)
        ok = all(lo - 1e-9 <= float(a @ witness) <= hi + 1e-9
                 for a, lo, hi in zip(lp.rows, lp.row_lo, lp.row_hi))
        if not ok:
            continue
        assert float(lp.c @ witness) <= out.value - lp.offset + 1e-7
        checked += 1


def test_determinism():
    assert lp_oracle_disagreements(np.random.default_rng(11), 30) == (0, 0)


def test_equality_like_rows_need_phase_one():
    lp = LinearProgram(
        c=np.array([1.0, -2.0, 0.5]),
        rows=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
        row_lo=np.array([1.5, 0.2]),
        row_hi=np.array([1.5, 0.2]),
        lo=np.zeros(3),
        hi=np.ones(3),
    )
    out = solve_lp(lp)
    assert out.is_optimal
    assert float(out.x.sum()) == pytest.approx(1.5, abs=1e-7)
    assert float(out.x[0] - out.x[1]) == pytest.approx(0.2, abs=1e-7)
    assert out.value == pytest.approx(lp_vertex_optimum(lp).value, abs=1e-6)


def test_nan_rejected():
    with pytest.raises(InputError):
        LinearProgram(c=np.array([math.nan]))
    with pytest.raises(InputError):
        LinearProgram(
            c=np.array([1.0]),
            rows=np.array([[math.nan]]),
            row_hi=np.array([1.0]),
            lo=np.zeros(1),
            hi=np.ones(1),
        )


def test_invalid_ranges_rejected():
    with pytest.raises(InputError):
        LinearProgram(
            c=np.array([1.0]),
            rows=np.array([[1.0]]),
            row_lo=np.array([2.0]),
            row_hi=np.array([1.0]),
            lo=np.zeros(1),
            hi=np.ones(1),
        )
    with pytest.raises(InputError):
        LinearProgram(c=np.array([1.0]), lo=np.array([1.0]), hi=np.array([0.0]))


def lp_with_rows(rows, row_lo=None, row_hi=None, p=None):
    rows = np.asarray(rows, dtype=np.float64)
    p = rows.shape[1] if p is None else p
    return LinearProgram(c=np.ones(p), rows=rows, row_lo=row_lo, row_hi=row_hi,
                         lo=np.zeros(p), hi=np.ones(p))


def first_row_fault(rows, row_lo, row_hi):
    """The message the checks give, row by row in the order they run."""
    for a, lo, hi in zip(rows, row_lo, row_hi):
        if not np.all(np.isfinite(a)):
            return "constraint coefficients must be finite"
        if math.isnan(lo) or math.isnan(hi):
            return "row range must not be NaN"
        if lo > hi:
            return "row range requires lo <= hi"
    return None


def test_first_faulty_row_names_the_error():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(300):
        m, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        rows = rng.normal(size=(m, p))
        row_lo, row_hi = rng.normal(size=m) - 1.0, rng.normal(size=m) + 1.0
        for _ in range(int(rng.integers(1, 4))):
            r, kind = int(rng.integers(m)), int(rng.integers(4))
            if kind == 0:
                rows[r, int(rng.integers(p))] = rng.choice([math.nan, math.inf, -math.inf])
            elif kind == 1:
                row_lo[r] = math.nan
            elif kind == 2:
                row_hi[r] = math.nan
            else:
                row_lo[r], row_hi[r] = row_hi[r] + 1.0, row_lo[r]
        want = first_row_fault(rows, row_lo, row_hi)
        if want is None:
            lp_with_rows(rows, row_lo, row_hi)
            continue
        with pytest.raises(InputError) as err:
            lp_with_rows(rows, row_lo, row_hi)
        assert str(err.value) == want
        checked += 1
    assert checked > 250


@pytest.mark.parametrize("rows, row_lo, row_hi, message", [
    (np.ones((2, 3)), None, None, "constraint row length must match the variable count"),
    (np.ones(2), None, None, "constraint row length must match the variable count"),
    (np.ones((2, 2)), np.zeros(3), None, "row ranges must match the row count"),
    (np.ones((2, 2)), None, np.zeros(1), "row ranges must match the row count"),
])
def test_row_shapes_checked(rows, row_lo, row_hi, message):
    with pytest.raises(InputError, match=message):
        lp_with_rows(rows, row_lo, row_hi, p=2)


def expand_by_rows(lp):
    """Per-row presolve: the reference for the whole-matrix ``_expand_rows``."""
    G, h = [], []
    for a, lo, hi in zip(lp.rows, lp.row_lo, lp.row_hi):
        pos, neg = a > 0, a < 0
        rmin = float(np.dot(a[pos], lp.lo[pos]) + np.dot(a[neg], lp.hi[neg]))
        rmax = float(np.dot(a[pos], lp.hi[pos]) + np.dot(a[neg], lp.lo[neg]))
        scale = max(1.0, abs(lo) if math.isfinite(lo) else 0.0,
                    abs(hi) if math.isfinite(hi) else 0.0)
        if rmin > hi + 1e-7 * scale or rmax < lo - 1e-7 * scale:
            return None
        if math.isfinite(hi) and not rmax <= hi:
            G.append(a)
            h.append(hi)
        if math.isfinite(lo) and not rmin >= lo:
            G.append(-a)
            h.append(-lo)
    return np.array(G).reshape(-1, lp.p), np.array(h, dtype=np.float64)


def test_presolve_matches_row_by_row_reference():
    # zero rows, infinite ends and one-sided boxes, against the per-row loop
    rng = np.random.default_rng(13)
    outcomes = set()
    for _ in range(400):
        m, p = int(rng.integers(0, 7)), int(rng.integers(1, 5))
        rows = rng.normal(size=(m, p)) * (rng.random((m, p)) < 0.7)
        rows[rng.random(m) < 0.25] = 0.0
        mid, width = 2 * rng.normal(size=m), 2 * rng.random(m)
        ends = rng.integers(0, 4, size=m)
        row_lo = np.where(ends == 1, -math.inf, mid - width)
        row_hi = np.where(ends == 2, math.inf, mid + width)
        row_lo[ends == 3], row_hi[ends == 3] = -math.inf, math.inf
        lo, hi = -rng.random(p), rng.random(p)
        lo[rng.random(p) < 0.2] = -math.inf
        hi[rng.random(p) < 0.2] = math.inf
        lp = LinearProgram(c=rng.normal(size=p), rows=rows, row_lo=row_lo, row_hi=row_hi,
                           lo=lo, hi=hi)
        got, want = _expand_rows(lp), expand_by_rows(lp)
        assert (got is None) == (want is None)
        if got is None:
            outcomes.add("infeasible")
            continue
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        outcomes.add(("kept", min(got[1].size, 2)))
    assert outcomes == {"infeasible", ("kept", 0), ("kept", 1), ("kept", 2)}


def test_zero_rows_and_infinite_ends():
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    lp = lp_with_rows(rows, np.array([-1.0, -math.inf, -math.inf, 0.5]),
                      np.array([1.0, math.inf, 1.5, math.inf]))
    G, h = _expand_rows(lp)
    # the zero rows hold on the whole box; x0 + x1 <= 1.5 and x0 - x1 >= 0.5 bind
    assert np.array_equal(G, [[1.0, 1.0], [-1.0, 1.0]]) and np.array_equal(h, [1.5, -0.5])
    # a zero row whose range excludes 0 makes the program infeasible
    lp = lp_with_rows(np.zeros((1, 2)), np.array([1.0]), np.array([2.0]))
    assert _expand_rows(lp) is None and solve_lp(lp).status == "infeasible"


def test_no_rows():
    lp = LinearProgram(c=np.array([1.0, -1.0]), rows=np.zeros((0, 2)),
                       lo=np.zeros(2), hi=np.full(2, 3.0))
    out = solve_lp(lp)
    assert out.is_optimal and np.array_equal(out.x, [3.0, 0.0]) and out.value == 3.0
    assert len(LinearProgram(c=np.ones(2)).rows) == 0


def test_no_variables():
    rows = np.zeros((2, 0))
    feasible = LinearProgram(c=np.zeros(0), rows=rows, row_lo=np.array([-1.0, 0.0]),
                             row_hi=np.array([1.0, math.inf]), offset=1.5)
    out = solve_lp(feasible)
    assert out.is_optimal and out.value == 1.5
    infeasible = LinearProgram(c=np.zeros(0), rows=rows, row_lo=np.array([-1.0, 0.5]))
    assert solve_lp(infeasible).status == "infeasible"


def test_huge_finite_coefficients_accepted():
    lp = lp_with_rows(np.array([[1e308, -1e308]]), np.array([-1e308]), np.array([1e308]))
    assert len(lp.rows) == 1


def box_lp(rows, row_lo, p=2):
    """maximize -sum(x) over [0, 1]^p with lower-bounded rows: x = 0 violates each row."""
    return LinearProgram(c=-np.ones(p), rows=np.asarray(rows, dtype=np.float64),
                         row_lo=np.asarray(row_lo, dtype=np.float64),
                         lo=np.zeros(p), hi=np.ones(p))


def test_outcome_counts_pivots_and_phase_one():
    lp = box_lp([[1.0, 0.5]], [0.5])
    plain = solve_lp(lp)
    assert plain.phase1_used and plain.pivots >= 1
    free = solve_lp(LinearProgram(c=np.ones(2), lo=np.zeros(2), hi=np.ones(2)))
    assert not free.phase1_used and free.pivots == 0


def test_artificials_left_basic_in_a_redundant_row_pivot_out(monkeypatch):
    # 2x >= 2 stated twice: phase 1 ends with both artificials basic at level
    # 0, and each pivots out on its own row's slack, so no row is lost
    left = []
    drop = _Simplex.drop_artificials

    def recording(sx):
        left.append(int(np.count_nonzero(sx.basis >= sx.ncols - sx.n_art)))
        m = sx.m
        drop(sx)
        assert sx.m == m and np.all(sx.basis < sx.ncols)

    monkeypatch.setattr(_Simplex, "drop_artificials", recording)
    lp = box_lp([[2.0], [2.0]], [2.0, 2.0], p=1)
    out, want = solve_lp(lp), lp_vertex_optimum(lp)
    assert left == [2]
    assert out.is_optimal and want.is_optimal
    assert out.value == pytest.approx(want.value, abs=1e-9) and np.allclose(out.x, want.x)


def tableau_optimum(lp):
    """(x, value) of the simplex run on a program whose presolve keeps no
    inequality: the reference for ``solve_lp``'s box optimum."""
    G, h = _expand_rows(lp)
    sx = _Simplex(G, h, lp.lo.copy(), lp.hi.copy(), lp.p)
    assert sx.add_artificials() is None
    assert sx.optimize(lp.c.copy(), 2000 + 200 * sx.ncols) == "optimal"
    sx._refresh_values()
    x = np.clip(sx.xval[:lp.p], lp.lo, lp.hi)
    return x, float(lp.c @ x) + lp.offset


def test_box_optimum_matches_the_tableau():
    # no row, or only rows the box implies; some zero spans and c = 0; the last
    # two variables, on [0, 1], have c exactly at the simplex's tolerance and
    # just above it
    rng = np.random.default_rng(14)
    for trial in range(300):
        p, m = int(rng.integers(1, 8)), int(rng.integers(0, 4))
        c = rng.normal(size=p) * 10.0 ** rng.integers(-3, 4) * (rng.random(p) < 0.8)
        if trial % 10 == 0:
            c[:] = 0.0
        tol = OPT_TOL * max(1.0, float(np.abs(c).max()))
        c = np.append(c, [tol, np.nextafter(tol, math.inf)])
        lo = np.append(3 * rng.normal(size=p), [0.0, 0.0])
        hi = lo + np.append(rng.random(p) * (rng.random(p) < 0.7), [1.0, 1.0])
        rows = rng.normal(size=(m, p + 2))
        rmin = np.where(rows > 0, rows * lo, rows * hi).sum(axis=1)
        rmax = np.where(rows > 0, rows * hi, rows * lo).sum(axis=1)
        row_lo = np.where(rng.random(m) < 0.3, -math.inf, rmin - 1.0 - np.abs(rmin))
        row_hi = np.where(rng.random(m) < 0.3, math.inf, rmax + 1.0 + np.abs(rmax))
        lp = LinearProgram(c=c, rows=rows, row_lo=row_lo, row_hi=row_hi, lo=lo, hi=hi,
                           offset=float(rng.normal()))
        assert _expand_rows(lp)[1].size == 0
        out = solve_lp(lp)
        x, value = tableau_optimum(lp)
        assert out.is_optimal and out.x.tobytes() == x.tobytes() and out.value == value
        assert (out.pivots, out.phase1_used) == (0, False)
        assert (out.x[-2], out.x[-1]) == (0.0, 1.0)


def test_infinite_bounds_keep_the_tableau_path():
    # no row either way; an infinite bound is never read as a box optimum
    lp = LinearProgram(c=np.array([0.0, 1.0]), lo=np.zeros(2), hi=np.array([1.0, math.inf]))
    assert solve_lp(lp).status == "unbounded"
    lp = LinearProgram(c=np.array([0.0, -1.0]), lo=np.zeros(2), hi=np.array([1.0, math.inf]))
    out = solve_lp(lp)
    assert out.is_optimal and np.array_equal(out.x, [0.0, 0.0])
    with pytest.raises(InputError, match="without any finite bound"):
        solve_lp(LinearProgram(c=np.zeros(2), lo=np.array([0.0, -math.inf]),
                               hi=np.array([1.0, math.inf])))


def vertex_optimum_by_loop(lp, tol=1e-7):
    """One linear solve per active set: the reference for the batched oracle."""
    lows, highs = np.concatenate([lp.row_lo, lp.lo]), np.concatenate([lp.row_hi, lp.hi])
    ends = np.column_stack([lows, highs])
    usable = np.isfinite(ends) & np.column_stack([np.ones(lows.size, bool), highs != lows])
    normals = np.repeat(np.vstack([lp.rows, np.eye(lp.p)]), 2, axis=0)[usable.ravel()]
    offsets = ends[usable]
    best_x, best_v = None, -math.inf
    for combo in itertools.combinations(range(len(offsets)), lp.p):
        try:
            x = np.linalg.solve(normals[list(combo)], offsets[list(combo)])
        except np.linalg.LinAlgError:
            continue
        v = lp.rows @ x
        if (not np.all(np.isfinite(x)) or np.any(x < lp.lo - tol) or np.any(x > lp.hi + tol)
                or np.any((v < lp.row_lo - tol) | (v > lp.row_hi + tol))):
            continue
        value = float(lp.c @ x)
        if value > best_v:
            best_x, best_v = x, value
    return best_x, best_v


def test_batched_vertex_oracle_matches_the_loop():
    # the 200 LPs of A8
    rng = np.random.default_rng(8)
    statuses = set()
    for _ in range(200):
        lp = random_lp(rng)
        got = lp_vertex_optimum(lp)
        want_x, want_v = vertex_optimum_by_loop(lp)
        statuses.add(got.status)
        assert got.status == ("infeasible" if want_x is None else "optimal")
        if want_x is not None:
            assert np.array_equal(got.x, want_x) and got.value == want_v + lp.offset
    assert statuses == {"optimal", "infeasible"}
