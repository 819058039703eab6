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

Blank lines and ``#`` comments are ignored everywhere; LF, CRLF and lone
CR endings are all accepted.  Writing then reading any value is the
identity.

Every reader first tries the block grammar.  The header is the first
line that is neither blank nor a comment; the body is read in blocks of
``_BLOCK`` bytes, each cut after its last line break, and each block is
tokenized on a numpy view of its bytes:

- tokens are separated by runs of spaces and tabs, and a line ends at LF,
  CRLF or a lone CR, which may fall on a block edge;
- blank lines and leading or trailing whitespace are skipped, and the last
  line needs no line break;
- a line whose first token starts with ``#`` is a comment and is dropped
  with all its tokens; only a block that holds a ``#`` pays for the test;
- an index is 1 to 18 ASCII digits, an rhs, label or assignment value is
  exactly ``+1`` or ``-1``, and a weight is ``float()`` of its token of at
  most 32 bytes, called once per distinct token in a block;
- each constraint line has its own token count, so arities 1..k may mix.

Anything else sends the whole file to the line checker: a ``#`` that
does not start a line's first token (no token may hold one), any other
control byte or a non-ASCII byte (in a comment too), a token count,
index or sign outside the grammar, a line count that is not the header's,
or a value the instance or advice constructor rejects.  The line checker
(``_parse_constraint`` and the header and sign checks) re-reads the file
with ``str.split``, is the reference for every value and every error
message, and names the first bad line.  Its grammar is wider (``int()``
takes ``+5`` and ``1_0``); on the block grammar the two give the same
columns, bit for bit.

Memory: the block reader holds one block and its token arrays besides the
output columns.  It allocates the columns from the header's m and fills
them in place; they are read-only and owned, so the instance keeps them
without a copy.  A header whose m exceeds one line per 7 bytes of file
(the shortest line, ``0 +1 1`` and its break) goes to the line checker
before anything is allocated.  The line checker holds the whole file as a
list of lines.  The writer joins and writes ``_ROWS`` constraint rows at a
time.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import chain, compress, count
from typing import NamedTuple

import numpy as np

from .advice import LabelAdvice, SubsetAdvice, _check_epsilon
from .errors import InputError, ParseError
from .instances import GraphInstance, KLinInstance, graph_to_klin, _as_pm1

_BLOCK = 1 << 18  # bytes read per body block
_PAD = b" " * 32 + b"\n"  # brackets each block: byte gathers next to a token stay inside
_ROWS = 1 << 14  # constraint rows joined per write


def _chunks(fh):
    """The rest of ``fh`` in pieces of about ``_BLOCK`` bytes, each cut after
    its last line break; the last piece is whatever follows the last break."""
    pending = []  # the reads since the last break, joined once one holds a break
    while more := fh.read(_BLOCK):
        cut = max(more.rfind(b"\n"), more.rfind(b"\r")) + 1
        if cut:
            yield b"".join([*pending, more[:cut]])
            pending = []
        pending.append(more[cut:])
    yield b"".join(pending)


class _Tokens(NamedTuple):
    """One block's bytes, each token's start and size, and each non-blank
    line's first token number and token count."""

    u: np.ndarray
    start: np.ndarray
    size: np.ndarray
    first: np.ndarray
    count: np.ndarray


def _tokenize(chunk: bytes) -> _Tokens | None:
    """The tokens of ``chunk``, or None when a byte needs the line checker."""
    block = _PAD + chunk + _PAD
    if not block.isascii():
        return None
    u = np.frombuffer(block, np.uint8)
    eol = u == ord("\n")
    if b"\r" in block:
        eol |= u == ord("\r")
    breaks = np.flatnonzero(eol)
    tabs = np.count_nonzero(u == ord("\t")) if b"\t" in block else 0
    if np.count_nonzero(u < ord(" ")) != breaks.size + tabs:  # another control byte
        return None
    # the block starts and ends with whitespace, so token edges come in pairs
    tok = u > ord(" ")
    edge = np.flatnonzero(tok[1:] != tok[:-1])
    start, size = edge[0::2] + 1, edge[1::2] - edge[0::2]
    before = np.searchsorted(start, breaks)  # tokens before each line break
    count = np.diff(before, prepend=0)
    line = count > 0
    if b"#" in block:  # a line whose first token starts with "#" is a comment: drop its tokens
        line[line] = u[start[(before - count)[line]]] != ord("#")
        keep = np.repeat(line, count)
        start, size, count = start[keep], size[keep], count * line
        before = np.cumsum(count)
    return _Tokens(u, start, size, (before - count)[line], count[line])


def _by_blocks(path, header, body):
    """``body(blocks, *header(tokens, path, 1))``, where ``tokens`` are the
    header line's and ``blocks`` yields the ``_Tokens`` of each block of the
    rest, or None for one that needs the line checker; None when only the line
    checker can read ``path``."""
    with open(path, "rb") as fh:
        chunks = _chunks(fh)
        first, start = next(chunks), 0  # the header: the first line neither blank nor a comment
        while True:
            end = min((p for p in (first.find(b"\n", start), first.find(b"\r", start)) if p >= 0),
                      default=len(first))
            line = first[start:end].strip()
            if line and not line.startswith(b"#"):
                break
            if end < len(first):
                start = end + 1
            elif (more := next(chunks, None)) is not None:  # each piece but the last ends a line
                first += more
            else:
                return None
        head = _tokenize(first[:end])  # the lines before the header pass the body's byte checks
        if head is None or head.first.size != 1:
            return None
        try:
            fields = header(line.decode().split(), path, 1)
        except ParseError:
            return None
        return body(map(_tokenize, chain([first[end:]], chunks)), *fields)


def _digits(t: _Tokens, tok) -> np.ndarray | None:
    """int64 values of tokens ``tok`` of 1..18 ASCII digits, else None: the
    sum over digit positions o, counted from each token's end, of digit * 10**o."""
    start, size = t.start[tok], t.size[tok]
    width = int(size.max(initial=0))
    if width > 18:
        return None
    end = start + size - 1
    values = (t.u[end] - ord("0")).astype(np.int64)
    bad = values > 9
    for o in range(1, width):
        digit = (t.u[end - o] - ord("0")) * (size > o)  # uint8: any other byte wraps past 9
        bad |= digit > 9
        values += digit * np.int64(10**o)
    return None if bad.any() else values


def _signs(t: _Tokens, tok) -> np.ndarray | None:
    """int8 values of tokens ``tok`` that are exactly "+1" or "-1", else None."""
    start = t.start[tok]
    sign = t.u[start]
    if (np.any(t.size[tok] != 2) or np.any(t.u[start + 1] != ord("1"))
            or np.any((sign != ord("+")) & (sign != ord("-")))):
        return None
    return np.where(sign == ord("+"), 1, -1).astype(np.int8)


def _floats(t: _Tokens, tok) -> np.ndarray | None:
    """``float()`` of tokens ``tok``, called once per distinct token; None if
    it rejects one or a token is longer than 32 bytes."""
    start, size = t.start[tok], t.size[tok]
    width = int(size.max(initial=0))
    if width > 32:
        return None
    if width == 0:
        return np.zeros(0)
    chars = np.empty((start.size, width), dtype=np.uint8)
    for o in range(width):
        chars[:, o] = t.u[start + o] * (size > o)
    keys = chars.view(f"S{width}")[:, 0]  # a bytes key per token; no token holds a NUL
    if np.all(keys == keys[0]):
        distinct, where = keys[:1], np.zeros(keys.size, dtype=np.intp)
    else:
        distinct, where = np.unique(keys, return_inverse=True)
    try:
        return np.array([float(key) for key in distinct.tolist()])[where]
    except ValueError:
        return None


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


def _pm1_blocks(blocks, n: int) -> np.ndarray | None:
    """The block reader's ``_pm1_lines``: n lines of one sign each, else None."""
    parts = []
    for t in blocks:
        values = None if t is None or np.any(t.count != 1) else _signs(t, t.first)
        if values is None:
            return None
        parts.append(values)
    values = np.concatenate(parts)
    return values if values.size == n else None


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
    # exceeds the index count.  A row ends in one "<rhs> <weight>\n" token
    # per (rhs, weight) pair; weights are told apart by bit pattern so that
    # -0.0 keeps its sign under repr.  Only the columns some row fills are
    # tokenized: the rest hold padding, which prints as "".
    idx = instance.idx[:, :instance._width]
    if instance.n <= idx.size:
        ids, id_pos = np.arange(-1, instance.n), idx + 1
    else:
        ids, id_pos = np.unique(idx, return_inverse=True)
    id_tok = np.array([f"{i} " if i >= 0 else "" for i in ids.tolist()], dtype=object)
    id_pos = id_pos.reshape(idx.shape)
    bits, w_pos = np.unique(instance.w.view(np.int64), return_inverse=True)
    tail_tok = np.array([f"{rhs} {w!r}\n" for w in bits.view(np.float64).tolist()
                         for rhs in ("-1", "+1")], dtype=object)
    tail_pos = 2 * w_pos.reshape(-1) + (instance.rhs > 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p klin {instance.k} {instance.n} {instance.m}\n")
        for r in range(0, instance.m, _ROWS):
            rows = slice(r, r + _ROWS)
            cells = np.concatenate([id_tok[id_pos[rows]], tail_tok[tail_pos[rows], None]], axis=1)
            fh.write("".join(cells.ravel().tolist()))


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


def _instance_header(header, path, lineno) -> tuple[int, int, int]:
    if len(header) != 5 or header[0] != "p" or header[1] != "klin":
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        k, n, m = (int(t) for t in header[2:])
    except ValueError:
        raise ParseError(path, lineno, "header fields must be integers") from None
    if k < 1 or n < 1 or m < 0:
        raise ParseError(path, lineno, f"invalid header values k={k} n={n} m={m}")
    return k, n, m


def _instance_blocks(blocks, k: int, n: int, m: int, *, size: int) -> KLinInstance | None:
    """The block reader's instance: columns allocated from the header's m and
    filled block by block, then validated once by the constructor, which
    keeps them uncopied; None when only the line checker can read it."""
    if m > size // 7:  # the shortest constraint line, "0 +1 1" and its break, has 7 bytes
        return None
    idx = np.full((m, k), -1, dtype=np.int64)
    rhs, w = np.empty(m, dtype=np.int8), np.empty(m)
    r = 0
    for t in blocks:
        if t is None or r + t.first.size > m:
            return None
        arity = t.count - 2
        if t.first.size and (arity.min() < 1 or arity.max() > k):
            return None
        # index tokens are all but the last two of each line, in row-major order
        index = np.ones(t.start.size, dtype=bool)
        index[t.first + arity] = index[t.first + arity + 1] = False
        values = _digits(t, np.flatnonzero(index))
        signs, weights = _signs(t, t.first + arity), _floats(t, t.first + arity + 1)
        if values is None or signs is None or weights is None:
            return None
        rows = slice(r, r + t.first.size)
        idx[rows][np.arange(k) < arity[:, None]] = values
        rhs[rows], w[rows] = signs, weights
        r = rows.stop
    if r != m:
        return None
    for column in (idx, rhs, w):
        column.setflags(write=False)
    try:
        return KLinInstance(k=k, n=n, idx=idx, rhs=rhs, w=w)
    except InputError:
        return None


def _read_instance_lines(path) -> KLinInstance:
    numbers, body, lineno, header = _first_line(path, "instance")
    k, n, m = _instance_header(header, path, lineno)
    cons = [_parse_constraint(line.split(), k, n, path, ln) for ln, line in zip(numbers, body)]
    instance = KLinInstance.from_constraints(k, n, cons)
    lineno = numbers[-1] if numbers else lineno
    if instance.m != m:
        raise ParseError(path, lineno, f"header promises {m} constraints, found {instance.m}")
    return instance


def read_instance(path) -> KLinInstance:
    instance = _by_blocks(path, _instance_header,
                          partial(_instance_blocks, size=os.path.getsize(path)))
    return _read_instance_lines(path) if instance is None else instance


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


def _assignment_header(header, path, lineno) -> tuple[int]:
    if len(header) != 3 or header[0] != "s" or header[1] != "assign":
        raise ParseError(path, lineno, f"malformed header {' '.join(header)!r}")
    try:
        return (int(header[2]),)
    except ValueError:
        raise ParseError(path, lineno, "assignment length must be an integer") from None


def _read_assignment_lines(path) -> np.ndarray:
    numbers, lines, lineno, header = _first_line(path, "assignment")
    (n,) = _assignment_header(header, path, lineno)
    return _pm1_lines(numbers, lines, path, lineno, n, "values")


def read_assignment(path) -> np.ndarray:
    values = _by_blocks(path, _assignment_header, _pm1_blocks)
    return _read_assignment_lines(path) if values is None else values


def write_advice(path, advice: LabelAdvice | SubsetAdvice) -> None:
    if isinstance(advice, LabelAdvice):
        kind, rows = "label", [f"{v:+d}\n" for v in advice.values.tolist()]
    else:
        kind, rows = "subset", [
            f"{i} {v:+d}\n" for i, v in zip(advice.indices.tolist(), advice.values.tolist())
        ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"a {kind} {advice.n} {advice.epsilon!r}\n" + "".join(rows))


def _advice_header(header, path, lineno) -> tuple[str, int, float]:
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
    return header[1], n, epsilon


def _advice_blocks(blocks, kind: str, n: int, epsilon: float) -> LabelAdvice | SubsetAdvice | None:
    """The block reader's advice, or None when only the line checker can read it."""
    if kind == "label":
        values = _pm1_blocks(blocks, n)
        return None if values is None else LabelAdvice(values=values, epsilon=epsilon)
    indices, values = [], []
    for t in blocks:
        if t is None or np.any(t.count != 2):
            return None
        indices.append(_digits(t, t.first))
        values.append(_signs(t, t.first + 1))
        if indices[-1] is None or values[-1] is None:
            return None
    try:
        return SubsetAdvice(n=n, indices=np.concatenate(indices),
                            values=np.concatenate(values), epsilon=epsilon)
    except InputError:  # an index out of range or repeated
        return None


def _read_advice_lines(path) -> LabelAdvice | SubsetAdvice:
    numbers, lines, lineno, header = _first_line(path, "advice")
    kind, n, epsilon = _advice_header(header, path, lineno)
    if kind == "label":
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


def read_advice(path) -> LabelAdvice | SubsetAdvice:
    advice = _by_blocks(path, _advice_header, _advice_blocks)
    return _read_advice_lines(path) if advice is None else advice
