"""Boolean parity-constraint instances, graphs, planted generators, evaluation.

Variables take values in {-1, +1}.  A Max k-Lin constraint asks that the
product of k distinct variables equal a right-hand side in {-1, +1}; each
constraint carries a nonnegative weight.  Max-Cut graphs are the special
case of arity 2 with every right-hand side equal to -1 and unit weights.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, InputError, InternalError

Constraint = tuple[tuple[int, ...], int, float]

# What np.random.default_rng accepts; callers pass ints and tuples of ints.
SeedLike = (int | Sequence[int] | np.random.SeedSequence | np.random.BitGenerator
            | np.random.Generator | None)

_MAX_RESTARTS = 100
# A swap-repair sweep re-sorts every row unless the rows the last sweep
# touched number under (rows - _FULL_SWEEP_ROWS) / _FULL_SWEEP: a re-sort
# makes a dozen numpy calls, looking the touched rows up makes three times
# as many, and those only pay off on a large enough pairing.
_FULL_SWEEP = 4
_FULL_SWEEP_ROWS = 2048


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


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as ``dtype``, marked read-only in place; no copy if the dtype matches."""
    arr = np.asarray(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """The dataclass ``cls`` holding ``fields`` as given, with no check,
    conversion or copy; a name of a cached property seeds that cache.
    ``verify.rebuild_failures`` proves such a value equal to a checked one."""
    self = object.__new__(cls)
    vars(self).update(fields)
    return self


def _padding(idx: np.ndarray) -> np.ndarray:
    """``idx == -1``, one contiguous row per column: reductions across the
    columns of a tall (m, k) array are slow, across these rows they are not."""
    return np.ascontiguousarray(idx.T == -1)


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
    arrays are read-only and owned by the instance, so the values derived
    from them and cached here (arity, total weight, pair coefficients) stay
    valid; duplicates are kept verbatim.  The constructor copies and checks
    its arguments; literal instances are built with ``from_constraints``,
    and the instances the package derives from validated ones with
    ``_derived``.
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
        pad = _padding(idx)
        # columns past the last one some row fills are padding only and hold
        # no repeat, so the header's k alone adds no column pairs
        width = int(np.flatnonzero(~pad.all(axis=1)).max(initial=-1)) + 1
        dup = np.zeros(m, dtype=bool)
        for a in range(width):
            for b in range(a + 1, width):
                dup |= (idx[:, a] == idx[:, b]) & ~pad[a]

        def row(r):
            return tuple(idx[r, : arity[r]].tolist())

        checks = (
            (arity < 1, lambda r: f"constraint arity {arity[r]} outside 1..{self.k}"),
            (dup, lambda r: f"repeated index in constraint {row(r)}"),
            ((idx < -1) | (idx >= self.n), lambda r: f"index out of range in constraint {row(r)}"),
            # padding must trail
            ((pad[:-1] & ~pad[1:]).any(axis=0), lambda r: f"index out of range in constraint {row(r)}"),
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

    @classmethod
    def _derived(cls, k: int, n: int, idx, rhs, w, arity=None,
                 total_weight: float | None = None) -> KLinInstance:
        """An instance over columns the package has just built from a
        validated instance, or over read-only columns another instance owns.

        The columns are marked read-only where they stand, with no copy and
        no row check; only k and n are checked.  ``arity`` and
        ``total_weight``, when the caller knows them, seed those caches.
        ``verify.derived_instance_failures`` rebuilds every derived instance
        through the public constructor.
        """
        if k < 1 or n < 1:
            raise InputError("arity and variable count must be >= 1")
        seeds = {} if arity is None else {"arity": _frozen(arity, np.int64)}
        if total_weight is not None:
            seeds["total_weight"] = total_weight
        return _unchecked(cls, k=k, n=n, idx=_frozen(idx, np.int64), rhs=_frozen(rhs, np.int8),
                          w=_frozen(w, np.float64), **seeds)

    @property
    def m(self) -> int:
        return self.idx.shape[0]

    @cached_property
    def arity(self) -> np.ndarray:
        """Per-row arity: the number of non-padding indices."""
        return _frozen(self.k - _padding(self.idx).sum(axis=0), np.int64)

    @cached_property
    def _width(self) -> int:
        """The columns some row fills; every column past them is padding."""
        return int(self.arity.max(initial=0))

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
        rows = [np.flatnonzero(self.arity == a) for a in range(1, self._width + 1)]
        return sorted((r for r in rows if r.size), key=lambda r: r[0])


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
    shared; ``memo`` holds state that solvers derive and keep with it.
    ``qp_advice`` keeps its surrogate LP box there and, on the matrix
    ``to_quadratic_matrix`` returns, its answers: that matrix is one
    instance's own cached matrix, so state that depends on the instance,
    such as a satisfied weight, may live in its memo.
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
    for c in range(1, instance._width):  # padding columns multiply by +1
        prods = prods * xe[instance.idx[:, c]]
    return prods


def evaluate(instance: KLinInstance, x, *, mask=None) -> tuple[float, float]:
    """Satisfied weight and satisfied fraction of an assignment.

    The fraction is satisfied weight over total weight; an instance of
    zero total weight, such as one with no constraints, evaluates to
    (0.0, 1.0).  ``mask``, x's ``satisfied_mask`` when the caller already
    holds it, is used instead of recomputing it.
    """
    xv = _as_pm1(x, instance.n)
    total = instance.total_weight
    if total == 0.0:
        return 0.0, 1.0
    sat_mask = _products(instance, xv) == instance.rhs if mask is None else mask
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
    return KLinInstance._derived(2, graph.n, graph.edges, np.full(m, -1, dtype=np.int8),
                                 np.ones(m))


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


def _require_ints(**args) -> None:
    """Raise InputError naming the first argument that is no Python or numpy integer."""
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending; sorts ``a`` in place.

    np.unique builds a hash table first, which costs several times more
    on the repair's integer arrays."""
    a.sort()
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _found(sorted_key: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of ``key`` occur in ``sorted_key``, and where there."""
    at = np.searchsorted(sorted_key, key)
    hit = at < sorted_key.size
    hit[hit] = sorted_key[at[hit]] == key[hit]
    return hit, at[hit]


def _pair_swap_repair(
    pairs: np.ndarray, rng, bipartite: bool, max_sweeps: int = 500
) -> bool:
    """Rewire a stub pairing in place until it is simple; False if stuck.

    A conflicted pair (self-loop or duplicate edge) swaps its second
    endpoint with a uniformly random other pair, in row order; repeats
    until clean.  Bipartite pairings hold (left, right) rows, where
    orientation matters and self-loops are impossible.  A row's flat key
    is lo * size + hi, size exceeding every stub id: lo and hi are the two
    columns of a bipartite row and the row's min and max otherwise.

    Every conflicted row is swapped, so a row no swap touched was
    conflict-free and keeps its key: a sweep can find it in conflict only
    through a key that the last sweep's swaps made.  So a sweep sorts only
    the rows the last one touched and looks their keys up among the
    others': in the keys of the last full sweep, which sorted every row
    (the first sweep is one), where a row touched since no longer counts,
    and among the rows touched since then, kept sorted.  The swaps and
    their ``rng`` draws, and so every pairing and the stream after it, are
    those of a two-column lexsort of all rows on every sweep.
    """
    mpairs = pairs.shape[0]
    # swaps only permute the second column, so the largest id stays put
    size = int(pairs.max()) + 1 if mpairs else 0
    first, second = pairs[:, 0], pairs[:, 1]
    stamp = np.full(mpairs, -1, dtype=np.intp)  # the last sweep that touched a row
    slot = np.empty(mpairs, dtype=np.intp)  # a touched row's place in ``dirty``
    dirty = None  # the rows the last sweep touched, ascending
    # Each temporary is deleted once spent: a full sweep's temporaries set
    # the plant's peak memory.
    for sweep in range(max_sweeps):
        full = dirty is None or _FULL_SWEEP * dirty.size + _FULL_SWEEP_ROWS > mpairs
        u, v = (first, second) if full else (first[dirty], second[dirty])
        if bipartite:  # left and right ids overlap, so lo == hi is no self-loop
            key = u * size
            key += v
            bad = np.zeros(key.size, dtype=bool)
        else:
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            bad = lo == hi
            key = lo * size
            key += hi
            del lo, hi
        del u, v
        order = np.argsort(key)
        key, bad = key[order], bad[order]
        rows = order if full else dirty[order]
        del order
        same = key[1:] == key[:-1]
        bad[1:] |= same
        bad[:-1] |= same
        del same
        found = []
        if full:
            base_key, base_row, base_sweep = key, rows, sweep
            recent_key = recent_row = np.empty(0, dtype=np.intp)
        else:
            # A key that two rows held at base_sweep had both swapped, so the
            # leftmost entry of a key is its only row still as it was, if any.
            hit, at = _found(base_key, key)
            owner = base_row[at]
            live = stamp[owner] < base_sweep
            hit[np.flatnonzero(hit)[~live]] = False
            recent_hit, recent_at = _found(recent_key, key)
            bad |= hit | recent_hit
            found = [owner[live], recent_row[recent_at]]
        bad_idx = _sorted_unique(np.concatenate([rows[bad], *found]))
        if bad_idx.size == 0:
            return True
        others = rng.integers(0, mpairs, size=bad_idx.size)
        dirty = _sorted_unique(np.concatenate([bad_idx, others]))
        # the same transpositions, on a list of just the touched rows' ids
        slot[dirty] = np.arange(dirty.size)
        col = second[dirty].tolist()
        for b, c in zip(slot[bad_idx].tolist(), slot[others].tolist()):
            col[b], col[c] = col[c], col[b]
        second[dirty] = col
        stamp[dirty] = sweep
        if not full:  # the rows moved since base_sweep that this sweep left alone
            keep, fresh = stamp[recent_row] != sweep, stamp[rows] != sweep
            # two sorted runs, which a stable sort merges in one pass
            recent_key = np.concatenate([recent_key[keep], key[fresh]])
            recent_row = np.concatenate([recent_row[keep], rows[fresh]])
            order = np.argsort(recent_key, kind="stable")
            recent_key, recent_row = recent_key[order], recent_row[order]
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
            u, v = pairs.T
            return nodes[np.column_stack([np.minimum(u, v), np.maximum(u, v)])]
    raise ConstructionError("regular pairing failed after restart cap")


def _random_biregular_pairing(left: np.ndarray, right: np.ndarray, d: int, rng) -> np.ndarray:
    """Simple d-regular bipartite pairing of two equal-size sides; (E, 2) (left, right) rows."""
    half = left.shape[0]
    if d > half:
        raise ConstructionError(f"cross degree {d} impossible with {half} vertices per side")
    for _ in range(_MAX_RESTARTS):
        pairs = np.empty((half * d, 2), dtype=np.int64)
        pairs[:, 0] = np.repeat(np.arange(half), d)
        pairs[:, 1] = pairs[:, 0]
        rng.shuffle(pairs[:, 1])  # in place, as a contiguous copy would shuffle
        # Self-loops are impossible across sides; only duplicates need repair.
        if _pair_swap_repair(pairs, rng, bipartite=True):
            return np.column_stack([left[pairs[:, 0]], right[pairs[:, 1]]])
    raise ConstructionError("bipartite pairing failed after restart cap")


def plant_bipartite_regular(n: int, d: int, gamma: float, seed: SeedLike) -> PlantedInstance:
    """Plant a balanced cut in a d-regular graph.

    Vertices 0..n/2-1 form the planted side S* (assignment +1), the rest
    T* (-1).  Every vertex gets ceil((1-gamma)*d) cross edges and the
    remainder inside its own side, so gamma=0 yields a bipartite d-regular
    graph whose planted cut is exactly optimal.
    """
    _require_ints(n=n, d=d)
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
    # the graph is simple with u < v in each row, so its keys u * n + v are
    # distinct and sorting them sorts the rows
    key = edges[:, 0] * n
    key += edges[:, 1]
    key.sort()
    edges = np.empty_like(edges)
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    edges.setflags(write=False)  # the graph takes these rows without a copy
    graph = GraphInstance(n=n, edges=edges)
    if graph.regular_degree != d:
        raise InternalError(f"generator produced a non-{d}-regular graph")
    x_star = np.concatenate([np.ones(half, dtype=np.int8), -np.ones(half, dtype=np.int8)])
    return PlantedInstance(
        instance=graph,
        x_star=x_star,
        planted_value=float(half * d_cross),
        noise_rate=gamma,
    )


def plant_klin(n: int, k: int, m: int, delta: float, seed: SeedLike) -> PlantedInstance:
    """Plant an assignment in a random unweighted Max k-Lin instance.

    Each constraint picks a uniform tuple of k distinct variables; its
    right-hand side matches the planted assignment except with probability
    delta, so the planted fraction concentrates at 1 - delta.
    """
    _require_ints(n=n, k=k, m=m)
    if k < 1:
        raise InputError(f"arity k must be >= 1, got {k}")
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
        ok = np.ones(pending.size, dtype=bool)
        for a in range(k):
            for b in range(a + 1, k):
                ok &= draw[:, a] != draw[:, b]
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
