"""Dense bounded-variable linear programming for small ranged-constraint LPs.

The solver maximizes c.x subject to per-row ranges L_r <= a_r.x <= U_r and
a per-variable box.  The rows are one (m, p) matrix with range vectors
beside it.  Ranged rows expand to at most two inequalities at solve time
after an interval-arithmetic presolve that drops rows the box already
implies.  The core is a dense tableau simplex over bounded variables
(with bound flips); pricing is steepest-coefficient and switches to
Bland's anti-cycling rule when the objective stalls.

The simplex starts from the slack basis with every variable at its lower
bound, or at its upper bound where the lower one is infinite.  Phase 1
runs only when that start violates an inequality, and only with
artificials on the violated ones.  There is no other start: a caller
that wants no phase 1 states its program so that this start is feasible
(``qp_advice`` splits each l1 penalty by the sign it has there).

When presolve keeps no inequality and every bound is finite, no tableau
is built: the answer is the box optimum, each variable at its upper bound
where its objective coefficient exceeds the simplex's optimality
tolerance and the box leaves it room, else at its lower bound.  That is
the point, byte for byte, where the simplex's bound flips would end, with
no pivot.  The whole pipeline is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
_STALL_LIMIT = 40
_REFRESH = 128
_BLOCK = 1 << 14  # matrix entries per presolve block

_LO, _HI, _BASIC = 0, 1, 2
_DIRECTION = np.array([1.0, -1.0, 0.0])  # by status: a column at _LO may rise, at _HI fall


_ROW_FAULTS = ("constraint coefficients must be finite", "row range must not be NaN",
               "row range requires lo <= hi")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c.x + offset over box(lo, hi) and row_lo <= rows @ x <= row_hi,
    ``rows`` being an (m, p) matrix; a range end left out is infinite."""

    c: np.ndarray
    rows: np.ndarray | None = None
    row_lo: np.ndarray | None = None
    row_hi: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1:
            raise InputError("objective must be a vector")
        if np.any(np.isnan(c)) or np.any(np.isinf(c)):
            raise InputError("objective coefficients must be finite")
        p = c.shape[0]
        lo = np.full(p, -math.inf) if self.lo is None else np.asarray(self.lo, dtype=np.float64)
        hi = np.full(p, math.inf) if self.hi is None else np.asarray(self.hi, dtype=np.float64)
        if lo.shape != (p,) or hi.shape != (p,):
            raise InputError("box bounds must match the variable count")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise InputError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise InputError("box requires lo <= hi")
        rows = np.zeros((0, p)) if self.rows is None else np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != p:
            raise InputError("constraint row length must match the variable count")
        m = rows.shape[0]
        row_lo, row_hi = (np.full(m, end) if v is None else np.asarray(v, dtype=np.float64)
                          for v, end in ((self.row_lo, -math.inf), (self.row_hi, math.inf)))
        if row_lo.shape != (m,) or row_hi.shape != (m,):
            raise InputError("row ranges must match the row count")
        # One column per check, in the order a row is checked: the first True
        # in row-major order is the first faulty row's first failing check.
        finite = (np.isfinite(rows.max(axis=1, initial=0.0))
                  & np.isfinite(rows.min(axis=1, initial=0.0)))
        faults = np.column_stack((~finite,
                                  np.isnan(row_lo) | np.isnan(row_hi),
                                  row_lo > row_hi))
        if faults.any():
            raise InputError(_ROW_FAULTS[int(np.argmax(faults.ravel())) % 3])
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_lo", row_lo)
        object.__setattr__(self, "row_hi", row_hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def p(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """A solve's result; ``pivots`` counts simplex pivots and
    ``phase1_used`` says whether phase 1 ran."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0
    phase1_used: bool = False

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _row_extremes(A: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(2, m) smallest and largest a.x over the box per row a of A, summed as a dot
    product of one row sums them: positive and negative terms each left to right."""
    pos, neg = A > 0, A < 0
    terms = np.empty((2,) + A.shape)
    extremes = np.empty((2, A.shape[0]))
    for k, (at_pos, at_neg) in enumerate(((lo, hi), (hi, lo))):
        terms.fill(0.0)
        np.multiply(A, at_pos, out=terms[0], where=pos)
        np.multiply(A, at_neg, out=terms[1], where=neg)
        sums = np.cumsum(terms, axis=2, out=terms)[:, :, -1]
        np.add(sums[0], sums[1], out=extremes[k])
    return extremes


def _expand_rows(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray] | None:
    """Presolve and expand ranged rows to G x <= h; None means infeasible.
    Each row's upper then lower inequality is kept unless the box implies it."""
    A, r_lo, r_hi = lp.rows, lp.row_lo, lp.row_hi
    # Blocks of rows bound the presolve's temporaries to a few times _BLOCK.
    step = max(1, _BLOCK // lp.p)
    rmin, rmax = np.empty((2, A.shape[0]))
    for i in range(0, A.shape[0], step):
        rmin[i:i + step], rmax[i:i + step] = _row_extremes(A[i:i + step], lp.lo, lp.hi)
    fin_lo, fin_hi = np.isfinite(r_lo), np.isfinite(r_hi)
    scale = np.maximum(1.0, np.maximum(np.abs(np.where(fin_lo, r_lo, 0.0)),
                                       np.abs(np.where(fin_hi, r_hi, 0.0))))
    if np.any((rmin > r_hi + FEAS_TOL * scale) | (rmax < r_lo - FEAS_TOL * scale)):
        return None
    # Inequality 2r is row r's upper end, 2r + 1 its lower end, negated.
    kept = np.flatnonzero(np.column_stack((fin_hi & ~(rmax <= r_hi),
                                           fin_lo & ~(rmin >= r_lo))))
    upper = kept % 2 == 0
    G = A[kept // 2]
    np.negative(G, out=G, where=~upper[:, None])
    h = np.where(upper, r_hi[kept // 2], -r_lo[kept // 2])
    return G, h


class _Simplex:
    """Tableau state shared by both phases."""

    def __init__(self, G, h, lo, hi, p):
        m = G.shape[0]
        self.m, self.p = m, p
        self.ncols = p + m
        self.lo = np.concatenate([lo, np.zeros(m)])
        self.hi = np.concatenate([hi, np.full(m, math.inf)])
        self.D = np.hstack([G, np.eye(m), h.reshape(-1, 1)])
        finite_lo = np.isfinite(lo)
        if not np.all(finite_lo | np.isfinite(hi)):
            raise InputError("variables without any finite bound are unsupported")
        self.status = np.full(self.ncols, _BASIC, dtype=np.int8)
        self.status[:p] = np.where(finite_lo, _LO, _HI)
        self.xval = np.zeros(self.ncols)
        self.xval[:p] = np.where(finite_lo, lo, hi)
        self.basis = np.arange(p, p + m)
        self.xval[self.basis] = h - G @ self.xval[:p]
        self.n_art = 0
        self.pivots = 0

    def add_artificials(self):
        """One artificial column per infeasible slack; returns phase-1 costs."""
        viol = np.flatnonzero(self.xval[self.basis] < -FEAS_TOL)
        self.n_art = viol.size
        if self.n_art == 0:
            return None
        # Flip violated rows so each incoming artificial carries coefficient +1.
        self.D[viol] *= -1.0
        first_art = self.ncols
        arts = np.arange(self.n_art)
        art_cols = np.zeros((self.m, self.n_art))
        art_cols[viol, arts] = 1.0
        slacks = self.basis[viol]
        self.status[slacks], self.xval[slacks] = _LO, 0.0
        self.basis[viol] = first_art + arts
        rhs = self.D[:, -1].copy()
        self.D = np.hstack([self.D[:, :-1], art_cols, rhs.reshape(-1, 1)])
        self.lo = np.concatenate([self.lo, np.zeros(self.n_art)])
        self.hi = np.concatenate([self.hi, np.full(self.n_art, math.inf)])
        self.status = np.concatenate([self.status, np.full(self.n_art, _BASIC, dtype=np.int8)])
        self.xval = np.concatenate([self.xval, np.zeros(self.n_art)])
        self.ncols += self.n_art
        cost = np.zeros(self.ncols)
        cost[first_art:] = -1.0
        self._refresh_values()
        return cost

    def _refresh_values(self):
        vals = self.xval.copy()
        vals[self.basis] = 0.0
        self.xval[self.basis] = self.D[:, -1] - self.D[:, :-1] @ vals

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = cost[self.basis] @ self.D[:, :-1]
        return cost - y

    def drop_artificials(self):
        """Pivot out basic artificials, then cut their columns.

        Every row keeps a pivot: the artificial of a flipped row is the exact
        negative of that row's slack, column for column (pivots act on both
        alike, and negation is exact), so while the artificial is basic the
        slack is nonbasic with entry -1 in the artificial's row.
        """
        first_art = self.ncols - self.n_art
        for r in np.flatnonzero(self.basis >= first_art):
            row = self.D[r, :first_art]
            cand = np.flatnonzero((np.abs(row) > PIVOT_TOL) & (self.status[:first_art] != _BASIC))
            self._pivot(r, int(cand[np.argmax(np.abs(row[cand]))]))
        self.D = np.hstack([self.D[:, :first_art], self.D[:, -1:]])
        self.lo = self.lo[:first_art]
        self.hi = self.hi[:first_art]
        self.status = self.status[:first_art]
        self.xval = self.xval[:first_art]
        self.ncols = first_art
        self.n_art = 0
        self._refresh_values()

    def _pivot(self, r: int, j: int):
        b = self.basis[r]
        col = self.D[:, j]
        prow = self.D[r] / col[r]
        self.D -= np.outer(col, prow)
        self.D[r] = prow
        self.basis[r] = j
        self.status[j] = _BASIC
        self.pivots += 1
        return b

    def optimize(self, cost: np.ndarray, max_iter: int) -> str:
        """Run the simplex loop; returns "optimal" or "unbounded"."""
        rc = self.reduced_costs(cost)
        use_bland = False
        stalled = 0
        tol = OPT_TOL * max(1.0, float(np.max(np.abs(cost))) if cost.size else 1.0)
        span = self.hi - self.lo
        movable = span > 0
        # Direction each column may move, kept in step with status: +1 at the
        # lower bound, -1 at the upper, 0 when basic or fixed.
        sign = np.where(movable, _DIRECTION[self.status], 0.0)
        for it in range(max_iter):
            if it and it % _REFRESH == 0:
                self._refresh_values()
                rc = self.reduced_costs(cost)
            j = _entering(rc * sign, tol, use_bland)
            if j < 0:
                self._refresh_values()
                rc = self.reduced_costs(cost)
                j = _entering(rc * sign, tol, use_bland)
                if j < 0:
                    return "optimal"
            direction = sign[j]
            col = self.D[:, j]
            denom = col * direction
            size = np.abs(denom)
            limit = span[j]
            bvars = self.basis
            xb = self.xval[bvars]
            # Ratio test: a basic variable falls to its lower bound where the
            # step decreases it (denom > 0) and rises to its upper bound where
            # it increases it; rows with |denom| <= PIVOT_TOL never block.
            room = np.where(denom > 0, xb - self.lo[bvars], self.hi[bvars] - xb)
            t = np.where(size > PIVOT_TOL, room, math.inf) / size
            np.maximum(t, 0.0, out=t)
            t_min = float(t[t.argmin()]) if self.m else math.inf
            t_star = min(limit, t_min)
            if math.isinf(t_star):
                return "unbounded"
            delta = direction * t_star
            gain = rc[j] * delta
            stalled = stalled + 1 if gain <= tol else 0
            if stalled > _STALL_LIMIT:
                use_bland = True
            if t_star > 0:
                self.xval[bvars] = xb - col * delta
                self.xval[j] += delta
            if limit <= t_min:
                # The entering variable runs to its other bound: a flip.
                self.status[j] = _HI if self.status[j] == _LO else _LO
                self.xval[j] = self.hi[j] if self.status[j] == _HI else self.lo[j]
                sign[j] = -direction
                continue
            ties = t <= t_star + PIVOT_TOL
            r = int(np.where(ties, bvars, self.ncols).argmin() if use_bland
                    else np.where(ties, size, -1.0).argmax())
            leaves_low = denom[r] > 0
            leaving = self._pivot(r, j)
            self.status[leaving] = _LO if leaves_low else _HI
            self.xval[leaving] = self.lo[leaving] if leaves_low else self.hi[leaving]
            sign[j] = 0.0
            if movable[leaving]:
                sign[leaving] = 1.0 if leaves_low else -1.0
            rc -= rc[j] * self.D[r, :-1]
        raise InternalError("simplex iteration cap exceeded")


def _entering(score: np.ndarray, tol: float, use_bland: bool) -> int:
    """The column with the largest score above tol (the first on ties), or
    under Bland's rule the first such column; -1 when there is none."""
    j = int((score > tol).argmax() if use_bland else score.argmax())
    return j if score[j] > tol else -1


def _box_optimum(lp: LinearProgram) -> np.ndarray:
    """Where the simplex ends on a finite box with no inequality: its flip loop
    moves each variable with c_j above its tolerance, and room to move, to the
    upper bound and leaves the rest at the lower one."""
    tol = OPT_TOL * max(1.0, float(np.max(np.abs(lp.c))))
    return np.where((lp.c > tol) & (lp.hi > lp.lo), lp.hi, lp.lo)


def _violates_rows(lp: LinearProgram, x: np.ndarray) -> bool:
    """True when a row leaves its range by more than FEAS_TOL * max(1, max|a| max|x|)."""
    v = lp.rows @ x
    a_max = np.maximum(lp.rows.max(axis=1, initial=0.0), -lp.rows.min(axis=1, initial=0.0))
    scale = np.maximum(1.0, a_max * np.abs(x).max(initial=0.0))
    return bool(np.any((v < lp.row_lo - FEAS_TOL * scale) | (v > lp.row_hi + FEAS_TOL * scale)))


def _check_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    if np.any(x < lp.lo - FEAS_TOL) or np.any(x > lp.hi + FEAS_TOL):
        raise InternalError("solver returned a point outside the variable box")
    if _violates_rows(lp, x):
        raise InternalError("solver returned a point violating a constraint row")


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Maximize the program; outcomes are optimal, infeasible, or unbounded."""
    p = lp.p
    if p == 0:
        if _violates_rows(lp, np.zeros(0)):
            return LpOutcome(status="infeasible")
        return LpOutcome(status="optimal", x=np.zeros(0), value=lp.offset)
    expanded = _expand_rows(lp)
    if expanded is None:
        return LpOutcome(status="infeasible")
    G, h = expanded
    if not h.size and np.all(np.isfinite(lp.lo) & np.isfinite(lp.hi)):
        x, pivots, phase1_used = _box_optimum(lp), 0, False
    else:
        sx = _Simplex(G, h, lp.lo.copy(), lp.hi.copy(), p)
        max_iter = 2000 + 200 * (sx.m + sx.ncols)
        phase1_cost = sx.add_artificials()
        phase1_used = phase1_cost is not None
        if phase1_used:
            status = sx.optimize(phase1_cost, max_iter)
            if status != "optimal":
                raise InternalError("phase 1 cannot be unbounded")
            infeas = -float(phase1_cost @ sx.xval)
            if infeas > FEAS_TOL * max(1.0, float(np.max(np.abs(h))) if h.size else 1.0):
                return LpOutcome(status="infeasible", pivots=sx.pivots, phase1_used=True)
            sx.drop_artificials()
        cost = np.concatenate([lp.c, np.zeros(sx.ncols - p)])
        status = sx.optimize(cost, max_iter)
        if status == "unbounded":
            return LpOutcome(status="unbounded", pivots=sx.pivots, phase1_used=phase1_used)
        sx._refresh_values()
        x, pivots = sx.xval[:p], sx.pivots
    x = np.clip(x, lp.lo, lp.hi)
    _check_feasible(lp, x)
    value = float(lp.c @ x) + lp.offset
    return LpOutcome(status="optimal", x=x, value=value, pivots=pivots,
                     phase1_used=phase1_used)
