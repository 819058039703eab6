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

import warnings
from itertools import compress, count

import numpy as np

from .advice import LabelAdvice, SubsetAdvice, _check_epsilon
from .errors import InputError, ParseError
from .instances import GraphInstance, KLinInstance, graph_to_klin, _as_pm1


def _content_lines(path) -> tuple[list[int], list[str]]:
    """Line numbers and stripped text of the lines that are neither blank nor comments."""
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        text = fh.read()
    lines = list(map(str.strip, text.split("\n")))
    # Without a "#" anywhere, a line is content exactly when it is non-empty.
    keep = [s and s[0] != "#" for s in lines] if "#" in text else lines
    return list(compress(count(1), keep)), list(compress(lines, keep))


def _first_line(path, what):
    """Numbers and text of the content lines after the first; its number and tokens."""
    numbers, lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, f"missing {what} header")
    return numbers[1:], lines[1:], numbers[0], lines[0].split()


def _pm1_lines(numbers, lines, path, lineno, n: int, what: str) -> np.ndarray:
    """n lines of one +1/-1 each; a count mismatch names the last line read."""
    values = []
    for lineno, line in zip(numbers, lines):
        tokens = line.split()
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
    # Each distinct token is printed once, with its trailing separator, and
    # the padding index -1 prints as "".  Index tokens cover 0..n-1 unless n
    # exceeds the index count.  Weights are told apart by bit pattern so
    # that -0.0 keeps its sign under repr.
    if instance.n <= instance.idx.size:
        ids, id_pos = np.arange(-1, instance.n), instance.idx + 1
    else:
        ids, id_pos = np.unique(instance.idx, return_inverse=True)
    id_tok = np.array([f"{i} " if i >= 0 else "" for i in ids.tolist()], dtype=object)
    bits, w_pos = np.unique(instance.w.view(np.int64), return_inverse=True)
    w_tok = np.array([f"{w!r}\n" for w in bits.view(np.float64).tolist()], dtype=object)
    rhs_tok = np.array(["-1 ", "", "+1 "], dtype=object)
    cells = np.concatenate([
        id_tok[id_pos.reshape(instance.idx.shape)],
        rhs_tok[instance.rhs + 1][:, None],
        w_tok[w_pos.reshape(-1)][:, None],
    ], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p klin {instance.k} {instance.n} {instance.m}\n" + "".join(cells.ravel().tolist()))


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


def _load_columns(k, n, lines) -> KLinInstance:
    """A body of one arity in one np.loadtxt pass; raises on mixed arity and on all the
    line checker rejects, and otherwise gives the columns it gives."""
    a = len(lines[0].split()) - 2
    if not 1 <= a <= k:
        raise ValueError("arity")
    fields = [("idx", np.int64, (a,)), ("rhs", np.int64), ("w", np.float64)]
    with warnings.catch_warnings():
        # numpy 1.x reads "1.0" as an integer with only a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        # comments=None: an inline "#" is an error, not a comment
        table = np.loadtxt(lines, dtype=fields, comments=None, ndmin=1)
    if table.size != len(lines):
        raise ValueError("line count")
    if np.any(table["idx"] < 0):  # -1 would read as padding
        raise ValueError("negative index")
    idx = np.full((table.size, k), -1, dtype=np.int64)
    idx[:, :a] = table["idx"]
    return KLinInstance(k=k, n=n, idx=idx, rhs=table["rhs"], w=table["w"])


def read_instance(path) -> KLinInstance:
    numbers, body, lineno, header = _first_line(path, "instance")
    if len(header) != 5 or header[0] != "p" or header[1] != "klin":
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        k, n, m = (int(t) for t in header[2:])
    except ValueError:
        raise ParseError(path, lineno, "header fields must be integers") from None
    if k < 1 or n < 1 or m < 0:
        raise ParseError(path, lineno, f"invalid header values k={k} n={n} m={m}")
    try:
        instance = _load_columns(k, n, body)
    except Exception:
        # Any failure (mixed arity, an empty body, a malformed line) defers
        # to the line checker, the reference, which names the first bad line.
        cons = [_parse_constraint(line.split(), k, n, path, ln) for ln, line in zip(numbers, body)]
        instance = KLinInstance.from_constraints(k, n, cons)
    lineno = numbers[-1] if numbers else lineno
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
        fh.write(f"s assign {vals.shape[0]}\n" + "".join(f"{v:+d}\n" for v in vals.tolist()))


def read_assignment(path) -> np.ndarray:
    numbers, lines, lineno, header = _first_line(path, "assignment")
    if len(header) != 3 or header[0] != "s" or header[1] != "assign":
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        n = int(header[2])
    except ValueError:
        raise ParseError(path, lineno, "assignment length must be an integer") from None
    return _pm1_lines(numbers, lines, path, lineno, n, "values")


def write_advice(path, advice: LabelAdvice | SubsetAdvice) -> None:
    if isinstance(advice, LabelAdvice):
        kind, rows = "label", [f"{v:+d}\n" for v in advice.values.tolist()]
    else:
        kind, rows = "subset", [
            f"{i} {v:+d}\n" for i, v in zip(advice.indices.tolist(), advice.values.tolist())
        ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"a {kind} {advice.n} {advice.epsilon!r}\n" + "".join(rows))


def read_advice(path) -> LabelAdvice | SubsetAdvice:
    numbers, lines, lineno, header = _first_line(path, "advice")
    if len(header) != 4 or header[0] != "a" or header[1] not in ("label", "subset"):
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        n = int(header[2])
        epsilon = float(header[3])
    except ValueError:
        raise ParseError(path, lineno, "header needs an integer length and a float epsilon") from None
    # The advice constructors' checks, made here so that a fault names its line.
    if n < 0:
        raise ParseError(path, lineno, f"advice length must be >= 0, got {n}")
    try:
        _check_epsilon(epsilon)
    except InputError as exc:
        raise ParseError(path, lineno, str(exc)) from None
    if header[1] == "label":
        return LabelAdvice(values=_pm1_lines(numbers, lines, path, lineno, n, "labels"), epsilon=epsilon)
    indices, values, seen = [], [], set()
    for lineno, line in zip(numbers, lines):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(path, lineno, "expected '<index> <+1|-1>' per line")
        try:
            i = int(tokens[0])
        except ValueError:
            raise ParseError(path, lineno, "index must be an integer") from None
        if not 0 <= i < n:
            raise ParseError(path, lineno, f"revealed index {i} out of range for n={n}")
        if i in seen:
            raise ParseError(path, lineno, f"revealed index {i} repeated")
        seen.add(i)
        indices.append(i)
        values.append(_parse_pm1(tokens[1], path, lineno))
    return SubsetAdvice(n=n, indices=np.array(indices, dtype=np.int64),
                        values=np.array(values, dtype=np.int8), epsilon=epsilon)
