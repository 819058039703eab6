"""Boolean parity-constraint instances, graphs, planted generators, evaluation.

Variables take values in {-1, +1}.  A Max k-Lin constraint asks that the
product of k distinct variables equal a right-hand side in {-1, +1}; each
constraint carries a nonnegative weight.  Max-Cut graphs are the special
case of arity 2 with every right-hand side equal to -1 and unit weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, InputError, InternalError

Constraint = tuple[tuple[int, ...], int, float]

_MAX_RESTARTS = 100


def _as_pm1(values, n=None, what="assignment"):
    """Validate and return a +-1 integer vector."""
    x = np.asarray(values)
    if x.ndim != 1:
        raise InputError(f"{what} must be one-dimensional")
    if n is not None and x.shape[0] != n:
        raise InputError(f"{what} has length {x.shape[0]}, expected {n}")
    if x.dtype.kind in "iu":  # integers need no rounding check: one pass
        if not (np.abs(x) == 1).all():
            raise InputError(f"{what} entries must be -1 or +1")
        return x.astype(np.int8)
    xi = x.astype(np.int64, copy=False)
    if not np.array_equal(xi, x) or not np.all(np.abs(xi) == 1):
        raise InputError(f"{what} entries must be -1 or +1")
    return xi.astype(np.int8)


def _readonly(a, dtype) -> np.ndarray:
    """A read-only array of ``dtype`` that no caller can write through.

    An array that is already read-only and owns its memory, such as
    another instance's column, passes through; anything else is copied.
    """
    arr = np.asarray(a, dtype=dtype)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _raise_first_fault(checks, m: int) -> None:
    """Raise the message of the first failing (row mask, message) check on the first faulty row."""
    first = [int(np.argmax(bad.reshape(m, -1).any(axis=1))) if bad.any() else m
             for bad, _ in checks]
    r = min(first)
    if r < m:
        raise InputError(checks[first.index(r)][1](r))


@dataclass(frozen=True, eq=False)
class KLinInstance:
    """Max k-Lin instance: parity constraints with +-1 right-hand sides.

    Constraints are stored as columns, row r being constraint r: ``idx``
    holds m x k int64 variable indices, ``rhs`` int8 right-hand sides in
    {-1, +1} and ``w`` float64 nonnegative weights.  A constraint of arity
    a < k (mixed unary/binary instances arise from the 3-Lin reduction)
    fills the first a columns of its row and pads the rest with -1.  The
    arrays are read-only copies the instance owns, so the values derived
    from them and cached here (arity, total weight, pair coefficients) stay
    valid; duplicates are kept verbatim.  Literal instances are built with
    ``from_constraints``.
    """

    k: int
    n: int
    idx: np.ndarray
    rhs: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise InputError("arity and variable count must be >= 1")
        idx, rhs, w = np.asarray(self.idx), np.asarray(self.rhs), np.asarray(self.w)
        m = rhs.size
        if idx.size == 0:
            idx = idx.reshape(0, self.k)
        elif idx.dtype.kind not in "iu":
            raise InputError("constraint indices must be integers")
        elif idx.dtype.kind == "u" and idx.max() >= self.n:  # as int64 it could wrap to -1
            raise InputError(f"index {idx.max()} out of range")
        if idx.shape != (m, self.k) or rhs.shape != (m,) or w.shape != (m,):
            raise InputError(f"constraint columns must have shapes (m, {self.k}), (m,), (m,)")
        object.__setattr__(self, "idx", _readonly(idx, np.int64))
        object.__setattr__(self, "w", _readonly(w, np.float64))
        idx, arity, w = self.idx, self.arity, self.w
        pad = idx == -1
        dup = np.zeros(m, dtype=bool)
        for a in range(self.k):
            for b in range(a + 1, self.k):
                dup |= (idx[:, a] == idx[:, b]) & ~pad[:, a]

        def row(r):
            return tuple(idx[r, : arity[r]].tolist())

        checks = (
            (arity < 1, lambda r: f"constraint arity {arity[r]} outside 1..{self.k}"),
            (dup, lambda r: f"repeated index in constraint {row(r)}"),
            ((idx < -1) | (idx >= self.n), lambda r: f"index out of range in constraint {row(r)}"),
            # padding must trail
            (pad[:, :-1] & ~pad[:, 1:], lambda r: f"index out of range in constraint {row(r)}"),
            ((rhs != 1) & (rhs != -1), lambda r: f"right-hand side must be -1 or +1, got {rhs[r].item()}"),
            (~(np.isfinite(w) & (w >= 0)), lambda r: f"weight must be finite and nonnegative, got {w[r]}"),
        )
        _raise_first_fault(checks, m)
        object.__setattr__(self, "rhs", _readonly(rhs, np.int8))

    @classmethod
    def from_constraints(cls, k: int, n: int, constraints) -> KLinInstance:
        """Build from ``(indices, rhs, weight)`` triples, in order."""
        cons = list(constraints)
        idx = np.full((len(cons), max(k, 0)), -1, dtype=np.int64)
        for r, (ids, _, _) in enumerate(cons):
            if not 1 <= len(ids) <= k:
                raise InputError(f"constraint arity {len(ids)} outside 1..{k}")
            if -1 in ids:  # would read as padding
                raise InputError(f"index out of range in constraint {tuple(ids)}")
            if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in ids):
                raise InputError(f"constraint indices must be integers, got {tuple(ids)}")
            idx[r, : len(ids)] = ids
        return cls(k, n, idx, [c[1] for c in cons], [c[2] for c in cons])

    @property
    def m(self) -> int:
        return self.idx.shape[0]

    @cached_property
    def arity(self) -> np.ndarray:
        """Per-row arity: the number of non-padding indices."""
        pad = self.idx == -1
        return _readonly(self.k - sum(pad[:, c] for c in range(self.k)), np.int64)

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The ``(indices, rhs, weight)`` tuples, built on first use."""
        rows = [r[:a] for r, a in zip(self.idx.tolist(), self.arity.tolist())]
        return tuple(zip(map(tuple, rows), self.rhs.tolist(), self.w.tolist()))

    @cached_property
    def total_weight(self) -> float:
        """Weights summed left to right from 0.0, as Python's sum() does."""
        return float(np.cumsum(np.append(0.0, self.w))[-1])

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """Read-only n x n matrix A: a_ij = a_ji sums rhs * weight over the
        arity-2 constraints on {i, j}, in constraint order."""
        n, two = self.n, self.arity == 2
        i, j = self.idx[two, 0], self.idx[two, 1]
        flat = np.stack([i * n + j, j * n + i], axis=1).ravel()
        a = np.bincount(flat, weights=np.repeat((self.rhs * self.w)[two], 2), minlength=n * n)
        a = a.astype(np.float64, copy=False)  # bincount gives integers when nothing is counted
        a.resize((n, n))  # in place, so A owns its memory and QpMatrix can share it
        a.setflags(write=False)
        return a

    @cached_property
    def unary_vector(self) -> np.ndarray:
        """Read-only L: L_i sums rhs * weight over the unary constraints on i, in row order."""
        one = self.arity == 1
        lin = np.bincount(self.idx[one, 0], weights=(self.rhs * self.w)[one], minlength=self.n)
        return _readonly(lin, np.float64)

    @cached_property
    def _quadratic_matrix(self) -> QpMatrix:
        """Built on first use by ``to_quadratic_matrix``, which checks arities."""
        return QpMatrix(self.pair_matrix)

    @cached_property
    def _arity_rows(self) -> list:
        """Row indices per arity in order of first appearance, the order in
        which satisfied weight is summed."""
        values, first = np.unique(self.arity, return_index=True)
        return [np.flatnonzero(self.arity == a) for a in values[np.argsort(first)]]


@dataclass(frozen=True, eq=False)
class GraphInstance:
    """Undirected multigraph: ``edges`` is a read-only (E, 2) int64 array
    that the graph owns, one edge per row as in ``KLinInstance.idx`` for
    k = 2.  Generated and parsed graphs keep u < v in each row and the rows
    sorted."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        try:
            e = np.asarray(self.edges)
        except (ValueError, OverflowError):  # ragged rows or too-large integers
            raise InputError("edges must be (u, v) pairs of integer vertex indices") from None
        if e.size == 0:
            e = np.zeros((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
            raise InputError("edges must be (u, v) pairs of integer vertex indices")
        u, v = e.T
        _raise_first_fault((
            (u == v, lambda r: f"self-loop at vertex {u[r]}"),
            ((e < 0) | (e >= self.n), lambda r: f"edge ({u[r]},{v[r]}) out of range"),
        ), e.shape[0])
        object.__setattr__(self, "edges", _readonly(e, np.int64))

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.neighbour_sums(np.ones(self.n, dtype=np.int64))

    def neighbour_sums(self, values) -> np.ndarray:
        """sum of values[j] over the neighbours j of each vertex, with multiplicity."""
        u, v = self.edges.T
        values = np.asarray(values, dtype=np.int64)
        return np.bincount(u, values[v], self.n).astype(np.int64) + np.bincount(
            v, values[u], self.n).astype(np.int64)

    @property
    def regular_degree(self) -> int | None:
        """The common degree d, or None if the graph is irregular."""
        deg = self.degrees
        if self.n == 0 or np.all(deg == deg[0]):
            return int(deg[0]) if self.n else 0
        return None


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """A generated instance together with its planted assignment."""

    instance: KLinInstance | GraphInstance
    x_star: np.ndarray
    planted_value: float
    noise_rate: float

    def __post_init__(self):
        object.__setattr__(self, "x_star", _as_pm1(self.x_star, what="planted assignment"))
        if isinstance(self.instance, GraphInstance):
            got = cut_value(self.instance, self.x_star)
        else:
            got, _ = evaluate(self.instance, self.x_star)
        if abs(got - self.planted_value) > 1e-9 * max(1.0, abs(self.planted_value)):
            raise InputError(
                f"planted value {self.planted_value} does not match evaluation {got}"
            )


@dataclass(frozen=True, eq=False)
class QpMatrix:
    """Symmetric zero-diagonal coefficient matrix of a +-1 quadratic form.

    ``a`` is a read-only array the matrix owns, so one matrix can be
    shared; ``memo`` holds state that solvers derive from ``a`` and keep
    with it (``qp_advice`` keeps its surrogate LP box and optima there).
    """

    a: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        a = _readonly(self.a, np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("coefficient matrix must be square")
        if not np.all(np.isfinite(a)):
            raise InputError("coefficient matrix must be finite")
        if not np.allclose(a, a.T, atol=1e-12, rtol=0):
            raise InputError("coefficient matrix must be symmetric")
        if np.any(np.abs(np.diag(a)) > 0):
            raise InputError("coefficient matrix must have zero diagonal")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.a))

    def form_value(self, x) -> float:
        """The quadratic form over ordered pairs at a point in [-1,1]^n."""
        x = np.asarray(x, dtype=np.float64)
        return float(x @ self.a @ x)


def _products(instance: KLinInstance, xv: np.ndarray) -> np.ndarray:
    """Per-constraint product of the assigned +-1 values."""
    xe = np.ones(instance.n + 1, dtype=np.int8)  # padding index -1 reads the last +1
    xe[:-1] = xv
    prods = xe[instance.idx[:, 0]]
    for c in range(1, instance.k):
        prods = prods * xe[instance.idx[:, c]]
    return prods


def evaluate(instance: KLinInstance, x) -> tuple[float, float]:
    """Satisfied weight and satisfied fraction of an assignment.

    The fraction is satisfied weight over total weight; an instance of
    zero total weight, such as one with no constraints, evaluates to
    (0.0, 1.0).
    """
    xv = _as_pm1(x, instance.n)
    total = instance.total_weight
    if total == 0.0:
        return 0.0, 1.0
    sat_mask = _products(instance, xv) == instance.rhs
    sat = 0.0
    for rows in instance._arity_rows:
        sat += float(instance.w[rows][sat_mask[rows]].sum())
    return sat, sat / total


def satisfied_mask(instance: KLinInstance, x) -> np.ndarray:
    """Boolean mask over constraints, in instance order."""
    return _products(instance, _as_pm1(x, instance.n)) == instance.rhs


def cut_value(graph: GraphInstance, x) -> int:
    """Number of edges cut by the +-1 side assignment (+1 side is S)."""
    xv = _as_pm1(x, graph.n)
    u, v = graph.edges.T
    return int(np.count_nonzero(xv[u] != xv[v]))


def graph_to_klin(graph: GraphInstance) -> KLinInstance:
    """View a graph as a Max-Cut 2-Lin instance (all rhs -1, unit weights)."""
    m = len(graph.edges)
    return KLinInstance(k=2, n=graph.n, idx=graph.edges,
                        rhs=np.full(m, -1, dtype=np.int8), w=np.ones(m))


def to_quadratic_matrix(instance: KLinInstance) -> QpMatrix:
    """Coefficient matrix of the satisfied-weight identity for arity-2 instances.

    Parallel constraints merge additively: a_ij = a_ji = sum of rhs * weight
    over constraints on {i, j}.  For any assignment x the satisfied weight
    equals W/2 + <x, A x>/4, with the form summed over ordered pairs.  The
    matrix wraps the instance's cached ``pair_matrix`` with no copy.
    """
    if (instance.arity != 2).any():
        raise InputError("quadratic matrix requires every constraint to have arity 2")
    return instance._quadratic_matrix


def quadratic_identity_value(instance: KLinInstance, qp: QpMatrix, x) -> float:
    """Satisfied weight reconstructed from the quadratic form identity."""
    return instance.total_weight / 2.0 + qp.form_value(np.asarray(x, dtype=np.float64)) / 4.0


def _pair_swap_repair(
    pairs: np.ndarray, rng, bipartite: bool, max_sweeps: int = 500
) -> bool:
    """Rewire a stub pairing in place until it is simple; False if stuck.

    A conflicted pair (self-loop or duplicate edge) swaps its second
    endpoint with a uniformly random other pair; repeats until clean.
    Bipartite pairings hold (left, right) rows, where orientation matters
    and self-loops are impossible.
    """
    mpairs = pairs.shape[0]
    for _ in range(max_sweeps):
        key = pairs if bipartite else np.sort(pairs, axis=1)
        bad = np.zeros(mpairs, dtype=bool)
        if not bipartite:
            bad |= key[:, 0] == key[:, 1]
        order = np.lexsort((key[:, 1], key[:, 0]))
        sk = key[order]
        same = np.all(sk[1:] == sk[:-1], axis=1)
        bad[order[1:][same]] = True
        bad[order[:-1][same]] = True
        bad_idx = np.flatnonzero(bad)
        if bad_idx.size == 0:
            return True
        others = rng.integers(0, mpairs, size=bad_idx.size)
        for b, c in zip(bad_idx, others):
            pairs[b, 1], pairs[c, 1] = pairs[c, 1], pairs[b, 1]
    return False


def _random_regular_pairing(nodes: np.ndarray, d: int, rng) -> np.ndarray:
    """Simple d-regular graph on increasing nodes by stub pairing; (E, 2) rows, u < v."""
    half = nodes.shape[0]
    if (half * d) % 2 != 0:
        raise ConstructionError(f"{d}-regular graph on {half} vertices needs an even stub count")
    if d > half - 1:
        raise ConstructionError(f"degree {d} impossible on {half} vertices")
    for _ in range(_MAX_RESTARTS):
        stubs = np.repeat(np.arange(half), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if _pair_swap_repair(pairs, rng, bipartite=False):
            return nodes[np.sort(pairs, axis=1)]
    raise ConstructionError("regular pairing failed after restart cap")


def _random_biregular_pairing(left: np.ndarray, right: np.ndarray, d: int, rng) -> np.ndarray:
    """Simple d-regular bipartite pairing of two equal-size sides; (E, 2) (left, right) rows."""
    half = left.shape[0]
    if d > half:
        raise ConstructionError(f"cross degree {d} impossible with {half} vertices per side")
    for _ in range(_MAX_RESTARTS):
        lstubs = np.repeat(np.arange(half), d)
        rstubs = np.repeat(np.arange(half), d)
        rng.shuffle(rstubs)
        pairs = np.stack([lstubs, rstubs], axis=1)
        # Self-loops are impossible across sides; only duplicates need repair.
        if _pair_swap_repair(pairs, rng, bipartite=True):
            return np.column_stack([left[pairs[:, 0]], right[pairs[:, 1]]])
    raise ConstructionError("bipartite pairing failed after restart cap")


def plant_bipartite_regular(n: int, d: int, gamma: float, seed: int) -> PlantedInstance:
    """Plant a balanced cut in a d-regular graph.

    Vertices 0..n/2-1 form the planted side S* (assignment +1), the rest
    T* (-1).  Every vertex gets ceil((1-gamma)*d) cross edges and the
    remainder inside its own side, so gamma=0 yields a bipartite d-regular
    graph whose planted cut is exactly optimal.
    """
    if n < 2 or n % 2 != 0:
        raise InputError("vertex count must be even and >= 2")
    if d < 1:
        raise InputError("degree must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise InputError("intra-side fraction must lie in [0, 1]")
    if d >= n // 2:
        raise ConstructionError(f"degree {d} too large for {n} vertices")
    half = n // 2
    d_cross = math.ceil((1.0 - gamma) * d)
    d_intra = d - d_cross
    if (half * d_intra) % 2 != 0:
        raise ConstructionError(
            f"intra-side degree {d_intra} on {half} vertices has odd stub parity"
        )
    rng = np.random.default_rng(seed)
    left = np.arange(half)
    right = np.arange(half, n)
    edges = np.concatenate([
        _random_biregular_pairing(left, right, d_cross, rng),
        _random_regular_pairing(left, d_intra, rng),
        _random_regular_pairing(right, d_intra, rng),
    ])
    graph = GraphInstance(n=n, edges=edges[np.lexsort((edges[:, 1], edges[:, 0]))])
    if graph.regular_degree != d:
        raise InternalError(f"generator produced a non-{d}-regular graph")
    x_star = np.concatenate([np.ones(half, dtype=np.int8), -np.ones(half, dtype=np.int8)])
    return PlantedInstance(
        instance=graph,
        x_star=x_star,
        planted_value=float(half * d_cross),
        noise_rate=gamma,
    )


def plant_klin(n: int, k: int, m: int, delta: float, seed: int) -> PlantedInstance:
    """Plant an assignment in a random unweighted Max k-Lin instance.

    Each constraint picks a uniform tuple of k distinct variables; its
    right-hand side matches the planted assignment except with probability
    delta, so the planted fraction concentrates at 1 - delta.
    """
    if m < 1:
        raise InputError("constraint count must be >= 1")
    if k > n:
        raise InputError(f"arity {k} exceeds variable count {n}")
    if not 0.0 <= delta <= 1.0:
        raise InputError("noise rate must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    x_star = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    idx = np.empty((m, k), dtype=np.int64)
    pending = np.arange(m)
    while pending.size:
        draw = rng.integers(0, n, size=(pending.size, k))
        if k > 1:
            ok = np.all(np.diff(np.sort(draw, axis=1), axis=1) != 0, axis=1)
        else:
            ok = np.ones(pending.size, dtype=bool)
        idx[pending[ok]] = draw[ok]
        pending = pending[~ok]
    rhs = x_star[idx].prod(axis=1, dtype=np.int64)
    flips = rng.random(m) < delta
    rhs[flips] *= -1
    instance = KLinInstance(k=k, n=n, idx=idx, rhs=rhs, w=np.ones(m))
    return PlantedInstance(
        instance=instance,
        x_star=x_star,
        planted_value=float(m - int(flips.sum())),
        noise_rate=delta,
    )
