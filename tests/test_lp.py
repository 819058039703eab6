import math

import numpy as np
import pytest

from advice_csp.errors import InputError
from advice_csp.lp import LinearProgram, RangedRow, solve_lp
from advice_csp.verify import lp_oracle_disagreements, lp_vertex_optimum, random_lp


def test_ranged_row_optimum():
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        rows=(RangedRow(a=np.array([1.0, 1.0]), lo=1.0, hi=1.5),),
        lo=np.zeros(2),
        hi=np.ones(2),
    )
    out = solve_lp(lp)
    assert out.is_optimal
    assert out.value == pytest.approx(1.5, abs=1e-9)


def test_box_infeasible_row():
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        rows=(RangedRow(a=np.array([1.0, 1.0]), lo=3.0, hi=4.0),),
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
        for row in lp.rows:
            v = float(row.a @ out.x)
            assert row.lo - 1e-6 <= v <= row.hi + 1e-6
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
        ok = all(row.lo - 1e-9 <= float(row.a @ witness) <= row.hi + 1e-9 for row in lp.rows)
        if not ok:
            continue
        assert float(lp.c @ witness) <= out.value - lp.offset + 1e-7
        checked += 1


def test_determinism():
    assert lp_oracle_disagreements(np.random.default_rng(11), 30) == (0, 0)


def test_equality_like_rows_need_phase_one():
    lp = LinearProgram(
        c=np.array([1.0, -2.0, 0.5]),
        rows=(
            RangedRow(a=np.array([1.0, 1.0, 1.0]), lo=1.5, hi=1.5),
            RangedRow(a=np.array([1.0, -1.0, 0.0]), lo=0.2, hi=0.2),
        ),
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
            rows=(RangedRow(a=np.array([math.nan]), hi=1.0),),
            lo=np.zeros(1),
            hi=np.ones(1),
        )


def test_invalid_ranges_rejected():
    with pytest.raises(InputError):
        LinearProgram(
            c=np.array([1.0]),
            rows=(RangedRow(a=np.array([1.0]), lo=2.0, hi=1.0),),
            lo=np.zeros(1),
            hi=np.ones(1),
        )
    with pytest.raises(InputError):
        LinearProgram(c=np.array([1.0]), lo=np.array([1.0]), hi=np.array([0.0]))
