"""Plain-text file formats for instances, assignments, and advice.

Instance files::

    p klin <k> <n> <m>
    <i1> ... <ik> <rhs(+1|-1)> <weight>     (m constraint lines, 0-based)

Max-Cut graphs travel as ``p klin 2`` instances with every rhs -1.  The
header arity is an upper bound; a constraint line may carry fewer indices
(the 3-Lin reduction emits mixed unary/binary instances).  Assignment
files are ``s assign <n>`` followed by n lines of ``+1``/``-1``.  Advice
files are ``a label <n> <epsilon>`` followed by n label lines, or
``a subset <n> <epsilon>`` followed by ``<index> <+1|-1>`` lines.

Blank lines and ``#`` comments are ignored everywhere; both LF and CRLF
endings are accepted.  Writing then reading any value is the identity.
"""

from __future__ import annotations

import itertools

import numpy as np

from .advice import LabelAdvice, SubsetAdvice
from .errors import InputError, ParseError
from .instances import GraphInstance, KLinInstance, graph_to_klin, _as_pm1


def _content_lines(path):
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def _first_line(path, what):
    """The content-line iterator and its first line number and tokens."""
    lines = _content_lines(path)
    try:
        return (lines, *next(lines))
    except StopIteration:
        raise ParseError(path, 1, f"missing {what} header") from None


def _pm1_lines(lines, path, lineno, n: int, what: str) -> np.ndarray:
    """n lines of one +1/-1 each; a count mismatch names the last line read."""
    values = []
    for lineno, tokens in lines:
        if len(tokens) != 1:
            raise ParseError(path, lineno, "expected one +1/-1 per line")
        values.append(_parse_pm1(tokens[0], path, lineno))
    if len(values) != n:
        raise ParseError(path, lineno, f"header promises {n} {what}, found {len(values)}")
    return np.array(values, dtype=np.int8)


def _parse_pm1(token: str, path, lineno, what="value") -> int:
    try:
        v = int(token)
    except ValueError:
        raise ParseError(path, lineno, f"{what} must be +1 or -1, got {token!r}") from None
    if v not in (-1, 1):
        raise ParseError(path, lineno, f"{what} must be +1 or -1, got {token!r}")
    return v


def write_instance(path, instance: KLinInstance | GraphInstance) -> None:
    if isinstance(instance, GraphInstance):
        instance = graph_to_klin(instance)
    k = instance.k
    # tolist() yields Python ints and floats; %d and %r print them as str and repr.
    fmt = {a: " ".join(["%d"] * a) + " %+d %r\n" for a in range(1, k + 1)}
    cols = [instance.idx[:, c].tolist() for c in range(k)]
    lines = [
        fmt[a] % (*ids[:a], rhs, w)
        for ids, a, rhs, w in zip(
            zip(*cols), instance.arity.tolist(), instance.rhs.tolist(), instance.w.tolist()
        )
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p klin {k} {instance.n} {instance.m}\n")
        fh.write("".join(lines))


def _parse_constraint(tokens, k, n, path, lineno) -> tuple[tuple[int, ...], int, float]:
    """One constraint line, checked field by field in reading order."""
    if len(tokens) < 3 or len(tokens) > k + 2:
        raise ParseError(path, lineno, f"expected 1..{k} indices, rhs, and weight")
    try:
        idx = tuple(int(t) for t in tokens[:-2])
    except ValueError:
        raise ParseError(path, lineno, "indices must be integers") from None
    if any(i < 0 or i >= n for i in idx):
        raise ParseError(path, lineno, f"index out of range in {tokens[:-2]}")
    if len(set(idx)) != len(idx):
        raise ParseError(path, lineno, "indices within a constraint must be distinct")
    rhs = _parse_pm1(tokens[-2], path, lineno, what="rhs")
    try:
        w = float(tokens[-1])
    except ValueError:
        raise ParseError(path, lineno, f"weight must be a number, got {tokens[-1]!r}") from None
    if not np.isfinite(w) or w < 0:
        raise ParseError(path, lineno, f"weight must be finite and nonnegative, got {w}")
    return idx, rhs, w


def _columns(k, n, arity, ids, rhs, w) -> KLinInstance:
    """Token columns to an instance; raises on any malformed line."""
    arity = np.array(arity, dtype=np.int64)
    if np.any((arity < 1) | (arity > k)):
        raise ValueError("arity")
    flat = np.array(list(map(int, ids)), dtype=np.int64)
    if np.any(flat < 0):
        raise ValueError("negative index")
    idx = np.full((arity.size, k), -1, dtype=np.int64)
    idx[np.arange(k) < arity[:, None]] = flat  # row-major: each row's leading columns
    rhs = np.array(list(map(int, rhs)), dtype=np.int64)
    w = np.array(list(map(float, w)), dtype=np.float64)
    return KLinInstance(k=k, n=n, idx=idx, rhs=rhs, w=w)


def read_instance(path) -> KLinInstance:
    lines, lineno, header = _first_line(path, "instance")
    if len(header) != 5 or header[0] != "p" or header[1] != "klin":
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        k, n, m = (int(t) for t in header[2:])
    except ValueError:
        raise ParseError(path, lineno, "header fields must be integers") from None
    if k < 1 or n < 1 or m < 0:
        raise ParseError(path, lineno, f"invalid header values k={k} n={n} m={m}")
    # Flat lists of token strings: unlike one list per line, they leave the
    # cyclic garbage collector nothing to rescan as the parse grows.
    arity, ids, rhs, w = [], [], [], []
    for lineno, tokens in lines:
        arity.append(len(tokens) - 2)
        ids += tokens[:-2]
        rhs += tokens[-2:-1]
        w.append(tokens[-1])
    try:
        instance = _columns(k, n, arity, ids, rhs, w)
    except (ValueError, OverflowError, InputError):
        # Some line is malformed: reparse line by line to name the first one.
        body = itertools.islice(_content_lines(path), 1, None)
        cons = [_parse_constraint(tokens, k, n, path, ln) for ln, tokens in body]
        instance = KLinInstance.from_constraints(k, n, cons)
    if instance.m != m:
        raise ParseError(path, lineno, f"header promises {m} constraints, found {instance.m}")
    return instance


def instance_to_graph(instance: KLinInstance) -> GraphInstance:
    """Interpret a Max-Cut shaped 2-Lin instance as an unweighted graph."""
    if np.any(instance.arity != 2) or np.any(instance.rhs != -1) or np.any(instance.w != 1.0):
        raise InputError("graph form requires arity 2, rhs -1, and unit weights")
    e = np.sort(instance.idx[:, :2].reshape(-1, 2), axis=1)  # (0, 2) when k = 1
    return GraphInstance(n=instance.n, edges=e[np.lexsort((e[:, 1], e[:, 0]))])


def write_assignment(path, values) -> None:
    vals = _as_pm1(values, what="assignment")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"s assign {vals.shape[0]}\n")
        for v in vals:
            fh.write(f"{int(v):+d}\n")


def read_assignment(path) -> np.ndarray:
    lines, lineno, header = _first_line(path, "assignment")
    if len(header) != 3 or header[0] != "s" or header[1] != "assign":
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        n = int(header[2])
    except ValueError:
        raise ParseError(path, lineno, "assignment length must be an integer") from None
    return _pm1_lines(lines, path, lineno, n, "values")


def write_advice(path, advice: LabelAdvice | SubsetAdvice) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(advice, LabelAdvice):
            fh.write(f"a label {advice.n} {advice.epsilon!r}\n")
            for v in advice.values:
                fh.write(f"{int(v):+d}\n")
        else:
            fh.write(f"a subset {advice.n} {advice.epsilon!r}\n")
            for i, v in zip(advice.indices, advice.values):
                fh.write(f"{int(i)} {int(v):+d}\n")


def read_advice(path) -> LabelAdvice | SubsetAdvice:
    lines, lineno, header = _first_line(path, "advice")
    if len(header) != 4 or header[0] != "a" or header[1] not in ("label", "subset"):
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    kind = header[1]
    try:
        n = int(header[2])
        epsilon = float(header[3])
    except ValueError:
        raise ParseError(path, lineno, "header needs an integer length and a float epsilon") from None
    if kind == "label":
        return LabelAdvice(values=_pm1_lines(lines, path, lineno, n, "labels"), epsilon=epsilon)
    indices, values = [], []
    for lineno, tokens in lines:
        if len(tokens) != 2:
            raise ParseError(path, lineno, "expected '<index> <+1|-1>' per line")
        try:
            indices.append(int(tokens[0]))
        except ValueError:
            raise ParseError(path, lineno, "index must be an integer") from None
        values.append(_parse_pm1(tokens[1], path, lineno))
    return SubsetAdvice(
        n=n,
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.int8),
        epsilon=epsilon,
    )
