import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest

from advice_csp import fileio
from advice_csp.advice import LabelAdvice, SubsetAdvice, gen_label_advice, gen_subset_advice
from advice_csp.errors import InputError, ParseError
from advice_csp.instances import (GraphInstance, KLinInstance, graph_to_klin,
                                  plant_bipartite_regular, plant_klin)
from advice_csp.max3lin import build_psi
from advice_csp.verify import random_2lin, same_columns


@pytest.fixture
def instance():
    return KLinInstance.from_constraints(
        k=3,
        n=6,
        constraints=(
            ((0, 1, 2), 1, 1.0),
            ((3, 4, 5), -1, 2.5),
            ((1, 3, 5), 1, 0.125),
        ),
    )


def test_instance_round_trip(tmp_path, instance):
    path = tmp_path / "inst.klin"
    fileio.write_instance(path, instance)
    back = fileio.read_instance(path)
    assert back.k == instance.k and back.n == instance.n
    assert same_columns(back, instance)


def test_weights_round_trip_bit_exact(tmp_path):
    inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), 1, 0.1 + 0.2),))
    path = tmp_path / "w.klin"
    fileio.write_instance(path, inst)
    assert fileio.read_instance(path).w[0] == 0.1 + 0.2


def test_graph_round_trip(tmp_path):
    plant = plant_bipartite_regular(16, 3, 0.0, seed=0)
    path = tmp_path / "graph.klin"
    fileio.write_instance(path, plant.instance)
    back = fileio.read_instance(path)
    assert back.k == 2 and back.m == len(plant.instance.edges)
    graph = fileio.instance_to_graph(back)
    assert np.array_equal(graph.edges, plant.instance.edges)


def test_empty_unary_instance_reads_as_empty_graph(tmp_path):
    path = tmp_path / "empty.klin"
    path.write_text("p klin 1 4 0\n")
    graph = fileio.instance_to_graph(fileio.read_instance(path))
    assert graph.n == 4 and graph.edges.shape == (0, 2)


def test_crlf_and_comments_accepted(tmp_path):
    body = "# a comment\r\np klin 2 3 2\r\n\r\n0 1 +1 1.0\r\n1 2 -1 2.0\r\n"
    lf = tmp_path / "lf.klin"
    crlf = tmp_path / "crlf.klin"
    lf.write_bytes(body.replace("\r\n", "\n").encode())
    crlf.write_bytes(body.encode())
    assert same_columns(fileio.read_instance(lf), fileio.read_instance(crlf))


def test_bad_rhs_names_line(tmp_path):
    path = tmp_path / "bad.klin"
    path.write_text("p klin 2 3 1\n0 1 2 1.0\n")
    with pytest.raises(ParseError) as err:
        fileio.read_instance(path)
    assert ":2:" in str(err.value)


def test_index_out_of_range(tmp_path):
    path = tmp_path / "bad.klin"
    path.write_text("p klin 2 3 1\n0 9 +1 1.0\n")
    with pytest.raises(ParseError):
        fileio.read_instance(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.klin"
    path.write_text("p maxsat 2 3 1\n")
    with pytest.raises(ParseError):
        fileio.read_instance(path)


def test_count_mismatch(tmp_path):
    path = tmp_path / "bad.klin"
    path.write_text("p klin 2 3 2\n0 1 +1 1.0\n")
    with pytest.raises(ParseError):
        fileio.read_instance(path)


@pytest.mark.parametrize("reader, text", [
    (fileio.read_instance, "# c1\n# c2\np klin 3 5 2\n"),
    (fileio.read_assignment, "# c1\n# c2\ns assign 2\n"),
    (fileio.read_advice, "# c1\n# c2\na label 2 0.5\n"),
])
def test_empty_body_count_mismatch_names_header(tmp_path, reader, text):
    path = tmp_path / "short.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=r":3: header promises 2 \w+, found 0"):
        reader(path)
    path.write_text(text + "\n# trailing comment\n")
    with pytest.raises(ParseError, match=":3: header promises"):
        reader(path)


def test_count_mismatch_names_last_content_line(tmp_path):
    path = tmp_path / "short.klin"
    path.write_text("p klin 2 3 3\n0 1 +1 1.0\n# gap\n1 2 -1 1.0\n\n")
    with pytest.raises(ParseError, match=":4: header promises 3 constraints, found 2"):
        fileio.read_instance(path)


@pytest.mark.parametrize("bad, message", [
    ("0 1 2 +1 1.0", "expected 1..2 indices"),
    ("0", "expected 1..2 indices"),
    ("99999999999999999999 1 +1 1.0", "index out of range"),
    ("0 x +1 1.0", "indices must be integers"),
    ("2 -1 +1 1.0", "index out of range"),
    ("1 1 +1 1.0", "indices within a constraint must be distinct"),
    ("0 1 +2 1.0", "rhs must be"),
    ("0 1 +1 heavy", "weight must be a number"),
    ("0 1 +1 nan", "weight must be finite and nonnegative"),
])
def test_first_bad_line_is_named(tmp_path, bad, message):
    path = tmp_path / "bad.klin"
    # the later line is also malformed; the first one must be reported
    path.write_text(f"p klin 2 3 3\n0 +1 1.0\n{bad}\n0 0 0 0 0\n")
    with pytest.raises(ParseError, match=f":3: {message}"):
        fileio.read_instance(path)


def test_mixed_arity_round_trip(tmp_path):
    inst = KLinInstance.from_constraints(k=2, n=3, constraints=(((0,), 1, 1.0), ((1, 2), -1, 2.0)))
    path = tmp_path / "mixed.klin"
    fileio.write_instance(path, inst)
    back = fileio.read_instance(path)
    assert same_columns(back, inst)
    assert path.read_text() == "p klin 2 3 2\n0 +1 1.0\n1 2 -1 2.0\n"


@pytest.mark.parametrize("n", [4, 10**6])  # index tokens for 0..n-1, or only for those used
def test_instance_bytes_keep_signed_zero(tmp_path, n):
    inst = KLinInstance.from_constraints(k=2, n=n, constraints=(((3, 1), 1, -0.0), ((2,), -1, 0.0)))
    path = tmp_path / "zero.klin"
    fileio.write_instance(path, inst)
    assert path.read_bytes() == f"p klin 2 {n} 2\n3 1 +1 -0.0\n2 -1 0.0\n".encode()


def test_assignment_round_trip(tmp_path):
    plant = plant_klin(9, 3, 10, 0.1, seed=1)
    path = tmp_path / "assign.txt"
    fileio.write_assignment(path, plant.x_star)
    assert np.array_equal(fileio.read_assignment(path), plant.x_star)


def test_assignment_bad_value(tmp_path):
    path = tmp_path / "assign.txt"
    path.write_text("s assign 2\n+1\n2\n")
    with pytest.raises(ParseError):
        fileio.read_assignment(path)


def test_label_advice_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    adv = gen_label_advice(rng.choice([-1, 1], size=20), 0.375, seed=4)
    path = tmp_path / "advice.txt"
    fileio.write_advice(path, adv)
    back = fileio.read_advice(path)
    assert isinstance(back, LabelAdvice)
    assert back.epsilon == adv.epsilon
    assert np.array_equal(back.values, adv.values)


def test_subset_advice_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    adv = gen_subset_advice(rng.choice([-1, 1], size=20), 0.4, seed=6)
    path = tmp_path / "advice.txt"
    fileio.write_advice(path, adv)
    back = fileio.read_advice(path)
    assert isinstance(back, SubsetAdvice)
    assert back.n == adv.n and back.epsilon == adv.epsilon
    assert np.array_equal(back.indices, adv.indices)
    assert np.array_equal(back.values, adv.values)


@pytest.mark.parametrize("text, expected", [
    # an inline "#" is not a comment
    ("p klin 2 3 2\n0 1 +1 1.0 # x\n1 2 -1 1.0\n", ":2: expected 1..2 indices, rhs, and weight"),
    ("p klin 2 3 2\n0 1 +1 1.0\n1.0 2 -1 1.0\n", ":3: indices must be integers"),
    ("p klin 2 3 1\n1.5 2 -1 1.0\n", ":2: indices must be integers"),
    # int() reads "1_0" as 10; the bulk parser does not, so the line checker does
    ("p klin 2 12 2\n1_0 2 -1 1.0\n0 11 +1 0.5\n", (((10, 2), -1, 1.0), ((0, 11), 1, 0.5))),
    ("p klin 2 3 2\r\n0\t1\t+1\t1.0\r\n1 \t2 -1\t2.5\r\n", (((0, 1), 1, 1.0), ((1, 2), -1, 2.5))),
    ("p klin 2 3 2\n0 1 +1 1.0\n1 2 -1 nan\n", ":3: weight must be finite and nonnegative, got nan"),
    ("p klin 2 3 2\n0 1 +1 inf\n1 2 -1 1.0\n", ":2: weight must be finite and nonnegative, got inf"),
    ("p klin 2 3 2\n0 1 +1 1.0\n1 2 -1 -1.0\n", ":3: weight must be finite and nonnegative, got -1.0"),
    # the header arity bounds the lines' arity; every line may be shorter
    ("p klin 3 4 2\n0 1 +1 1.0\n2 3 -1 2.0\n", (((0, 1), 1, 1.0), ((2, 3), -1, 2.0))),
    ("p klin 2 3 0\n", ()),
    ("p klin 2 3 3\n0 +1 1.0\n1 2 -1 2.0\n2 -1 0.5\n", (((0,), 1, 1.0), ((1, 2), -1, 2.0), ((2,), -1, 0.5))),
])
def test_bulk_read_agrees_with_line_checker(tmp_path, text, expected):
    path = tmp_path / "case.klin"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=f"{expected}$"):
            fileio.read_instance(path)
    else:
        k, n = (int(t) for t in text.split()[2:4])
        assert same_columns(fileio.read_instance(path), KLinInstance.from_constraints(k, n, expected))


def test_advice_and_assignment_bytes(tmp_path):
    path = tmp_path / "out.txt"
    fileio.write_advice(path, LabelAdvice(np.array([1, -1, 1]), 0.375))
    assert path.read_bytes() == b"a label 3 0.375\n+1\n-1\n+1\n"
    fileio.write_advice(path, SubsetAdvice(5, np.array([3, 0]), np.array([-1, 1]), 0.4))
    assert path.read_bytes() == b"a subset 5 0.4\n0 +1\n3 -1\n"
    fileio.write_assignment(path, [-1.0, 1.0, 1.0])
    assert path.read_bytes() == b"s assign 3\n-1\n+1\n+1\n"


def test_negative_subset_length_rejected(tmp_path):
    path = tmp_path / "advice.txt"
    path.write_text("a subset -5 0.5\n")
    with pytest.raises(InputError, match="advice length must be >= 0"):
        fileio.read_advice(path)


@pytest.mark.parametrize("text, where, message", [
    pytest.param("a subset -5 0.5\n", ":1:", "advice length must be >= 0, got -5",
                 id="negative-subset-length"),
    pytest.param("a label -1 0.5\n", ":1:", "advice length must be >= 0, got -1",
                 id="negative-label-length"),
    pytest.param("# c\na label 2 1.5\n+1\n-1\n", ":2:", r"epsilon must lie in \(0, 1\], got 1.5",
                 id="label-epsilon"),
    pytest.param("a subset 4 0\n0 +1\n", ":1:", "epsilon must lie in", id="zero-epsilon"),
    pytest.param("a subset 4 nan\n", ":1:", "epsilon must lie in", id="nan-epsilon"),
    pytest.param("a subset 4 0.5\n0 +1\n\n4 -1\n", ":4:", "revealed index 4 out of range for n=4",
                 id="index-past-n"),
    pytest.param("a subset 4 0.5\n-1 +1\n", ":2:", "revealed index -1 out of range",
                 id="negative-index"),
    pytest.param("a subset 4 0.5\n2 +1\n0 -1\n# c\n2 -1\n", ":5:", "revealed index 2 repeated",
                 id="repeated-index"),
    # a bad header is reported before a bad index line
    pytest.param("a subset 1 2.0\n3 +1\n", ":1:", "epsilon must lie in", id="header-first"),
])
def test_advice_faults_name_file_and_line(tmp_path, text, where, message):
    path = tmp_path / "advice.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as info:
        fileio.read_advice(path)
    assert str(info.value).startswith(f"{path}{where} ")


@pytest.mark.parametrize("reader, text, message", [
    pytest.param(fileio.read_instance, "", ":1: missing instance header", id="empty-file"),
    pytest.param(fileio.read_advice, "\n \n", ":1: missing advice header", id="blank-file"),
    pytest.param(fileio.read_instance, "p klin 2 x 1\n0 1 +1 1.0\n",
                 ":1: header fields must be integers", id="non-integer-field"),
    pytest.param(fileio.read_instance, "\np klin 0 3 1\n0 +1 1.0\n",
                 ":2: invalid header values k=0 n=3 m=1", id="zero-arity"),
    pytest.param(fileio.read_instance, "p klin 2 3 -1\n", ":1: invalid header values k=2 n=3 m=-1",
                 id="negative-count"),
    pytest.param(fileio.read_assignment, "s assign two\n+1\n-1\n",
                 ":1: assignment length must be an integer", id="assignment-length"),
    pytest.param(fileio.read_advice, "a label 2.5 0.5\n+1\n-1\n",
                 ":1: header needs an integer length and a float epsilon", id="advice-length"),
    pytest.param(fileio.read_advice, "a subset 4 half\n0 +1\n",
                 ":1: header needs an integer length and a float epsilon", id="advice-epsilon"),
])
def test_header_faults_name_file_and_line(tmp_path, reader, text, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError, match=f"{message}$") as info:
        reader(path)
    assert str(info.value).startswith(f"{path}:")


@pytest.fixture
def line_checker_reads(monkeypatch):
    """The paths the line checker reads, recorded as it reads them."""
    reads = []

    def recording(path, content_lines=fileio._content_lines):
        reads.append(path)
        return content_lines(path)

    monkeypatch.setattr(fileio, "_content_lines", recording)
    return reads


def test_blank_and_comment_lines_before_the_header_stay_on_the_block_path(
        tmp_path, instance, line_checker_reads):
    path = tmp_path / "inst.klin"
    fileio.write_instance(path, instance)
    path.write_bytes(b"\n \t\r\n# generated\r\n  # p klin 1 1 1\n" + path.read_bytes())
    assert same_columns(fileio.read_instance(path), instance)
    assert line_checker_reads == []


def test_weight_token_past_32_bytes_goes_to_the_line_checker(tmp_path, line_checker_reads):
    weight = "0.1250000000000000000000000000000001"  # 36 bytes
    path = tmp_path / "long.klin"
    path.write_text(f"p klin 2 3 2\n0 1 +1 {weight}\n1 2 -1 2.5\n")
    expected = KLinInstance.from_constraints(2, 3, (((0, 1), 1, float(weight)), ((1, 2), -1, 2.5)))
    assert same_columns(fileio.read_instance(path), expected)
    assert line_checker_reads == [path]


# ---------------------------------------------------------------------------
# The block reader against the line checker, on seeded files that mix every
# form the line grammar accepts or rejects.  The line checker
# (``_read_*_lines``) is the reference for every value and every message.

def outcome(read, path):
    try:
        return read(path)
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


def same_bits(a, b):
    """Equal values, dtypes and shapes, weights and epsilons compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, str):
        return a == b
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, KLinInstance):
        fields = ("k", "n", "idx", "rhs", "w")
    elif isinstance(a, LabelAdvice):
        fields = ("values", "epsilon")
    else:
        fields = ("n", "indices", "values", "epsilon")
    return all(same_bits(np.asarray(getattr(a, f)), np.asarray(getattr(b, f))) for f in fields)


def rare(rng, common, odd, p=0.03):
    """A draw from ``common``, or with probability p from ``odd``."""
    pool = odd if rng.random() < p else common
    return pool[rng.integers(len(pool))]


SEPARATORS = [" "] * 6 + ["\t", "  ", " \t "]
# \x0c and \xa0 separate tokens for str.split, \x00 and \x01 do not; all four
# send the file to the line checker
ODD_SEPARATORS = ["\x0c", "\u00a0", "\x00", "\x01"]
BREAKS = ["\n", "\n", "\r\n", "\r"]
WEIGHTS = ["1.0", "2.5", "1", "1.", ".5", "1e-3", "-0.0", repr(0.1 + 0.2), "5e-324", "0", "7"]
ODD_WEIGHTS = ["inf", "nan", "-1.0", "1_0", "heavy", "１", "1e999", "1#"]
SIGNS = ["+1", "-1"]
ODD_SIGNS = ["1", "+01", "-01", "2", "+1.0", "x", "١"]


def index_token(rng, i):
    return rare(rng, [str(i)], [f"+{i}", f"00{i}", f"{i}_0", f"-{i}", "99999999999999999999",
                                 "1.5", "１", f"{i}#"])


def render(rng, header, rows):
    """Header and rows of tokens as one file: random separators, line breaks,
    blank, comment and padded lines, and sometimes no final line break."""
    lines = [header] if rng.random() > 0.05 else ["# leading comment", header]
    for row in rows:
        if rng.random() < 0.05:
            lines.append(rare(rng, ["", "  ", "\t"], ["# comment", "  # indented comment"], 0.3))
        sep = [rare(rng, SEPARATORS, ODD_SEPARATORS, 0.01) for _ in row]
        text = "".join(tok + s for tok, s in zip(row, sep))[: -len(sep[-1])] if row else ""
        if rng.random() < 0.05:
            text = rng.choice(SEPARATORS) + text + rng.choice(SEPARATORS)
        lines.append(text + ("  # inline" if rng.random() < 0.01 else ""))
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return text.encode()


def instance_file(rng):
    # a large n keeps the values of malformed index tokens in range
    k, n = int(rng.integers(1, 5)), int(rng.choice([rng.integers(1, 30), 10**6]))
    rows = []
    for _ in range(int(rng.integers(0, 12))):
        arity = int(rare(rng, list(range(1, k + 1)), [0, k + 1, k + 2]))
        ids = rng.choice(max(n, arity), size=arity, replace=False).tolist()  # n < arity: out of range
        if arity > 1 and rng.random() < 0.02:
            ids[-1] = ids[0]
        rows.append([index_token(rng, i) for i in ids]
                    + [rare(rng, SIGNS, ODD_SIGNS), rare(rng, WEIGHTS, ODD_WEIGHTS)])
    m = len(rows) + int(rare(rng, [0], [-1, 1, 2]))
    return render(rng, f"p klin {k} {n} {m}", rows)


def assignment_file(rng):
    rows = [[rare(rng, SIGNS, ODD_SIGNS + ["+1 -1"])] for _ in range(int(rng.integers(0, 12)))]
    return render(rng, f"s assign {len(rows) + int(rare(rng, [0], [-1, 1]))}", rows)


def advice_file(rng):
    n, eps = int(rng.integers(0, 20)), rare(rng, ["0.5", "1", "0.25"], ["0", "1.5", "nan"])
    if rng.random() < 0.5:
        rows = [[rare(rng, SIGNS, ODD_SIGNS)] for _ in range(n + int(rare(rng, [0], [-1, 1])))]
        return render(rng, f"a label {n} {eps}", rows)
    if rng.random() < 0.5:
        n = 10**6
    picked = rng.choice(n + 1, size=min(n + 1, int(rng.integers(0, 12))), replace=False)
    rows = [[index_token(rng, i), rare(rng, SIGNS, ODD_SIGNS)] for i in picked.tolist()]
    return render(rng, f"a subset {n} {eps}", rows)  # index n is out of range


def instance_blocks(path):
    return fileio._by_blocks(path, fileio._instance_header,
                             partial(fileio._instance_blocks, size=path.stat().st_size))


@pytest.mark.parametrize("make, read, lines, blocks", [
    (instance_file, fileio.read_instance, fileio._read_instance_lines, instance_blocks),
    (assignment_file, fileio.read_assignment, fileio._read_assignment_lines,
     partial(fileio._by_blocks, header=fileio._assignment_header, body=fileio._pm1_blocks)),
    (advice_file, fileio.read_advice, fileio._read_advice_lines,
     partial(fileio._by_blocks, header=fileio._advice_header, body=fileio._advice_blocks)),
], ids=["instance", "assignment", "advice"])
def test_block_reader_agrees_with_line_checker(tmp_path, monkeypatch, make, read, lines, blocks):
    rng = np.random.default_rng(2024)
    path = tmp_path / "case.txt"
    taken = 0
    for case in range(400):
        # small blocks put line breaks, CRLF pairs and tokens on block edges
        monkeypatch.setattr(fileio, "_BLOCK", int(rng.choice([1, 2, 3, 5, 16, 64, 1 << 18])))
        path.write_bytes(make(rng))
        expected = outcome(lines, path)
        assert same_bits(outcome(read, path), expected), (case, path.read_bytes())
        block = blocks(path)
        if block is not None:
            taken += 1
            assert same_bits(block, expected), (case, path.read_bytes())
    # most files stay inside the block grammar; the rest test the fallback
    assert 0.3 * 400 < taken < 400


COMMENTS = [b"#", b"# 0 1 +1 1.0", b"  # indented", b"\t#tab", b"#p klin 3 5 1", b"## twice"]


def commented_file_misses(tmp_path, monkeypatch) -> int:
    """Seeded files of a mixed-arity instance with comment lines before the
    header and between rows, read in blocks of 1 to 64 bytes so that
    comments fall on block edges: the files that the block reader refuses
    or reads otherwise than the line checker."""
    rng = np.random.default_rng(16)
    path = tmp_path / "commented.klin"
    misses = 0
    for case in range(12):
        fileio.write_instance(path, random_2lin(rng, 9, 30))
        lines = []
        for line in path.read_bytes().splitlines():
            lines += [COMMENTS[i] for i in rng.integers(len(COMMENTS), size=rng.poisson(0.5))]
            lines.append(line)
        path.write_bytes(b"".join(line + rng.choice([b"\n", b"\r\n", b"\r"]) for line in lines))
        monkeypatch.setattr(fileio, "_BLOCK", int(rng.choice([1, 2, 3, 5, 16, 64])))
        block = instance_blocks(path)
        misses += block is None or not same_bits(block, fileio._read_instance_lines(path))
    return misses


def test_comment_lines_stay_on_the_block_path(tmp_path, monkeypatch):
    assert commented_file_misses(tmp_path, monkeypatch) == 0


def test_a_reader_that_keeps_comment_tokens_leaves_the_block_path(tmp_path, monkeypatch):
    # the planted fault: the tokenizer sees no "#", so a comment line's tokens stay
    tokenize = fileio._tokenize
    monkeypatch.setattr(fileio, "_tokenize", lambda chunk: tokenize(chunk.replace(b"#", b"0")))
    assert commented_file_misses(tmp_path, monkeypatch) > 0


def test_header_count_past_the_file_size_allocates_nothing(tmp_path):
    # 10**12 rows of two indices would take 16 TB; the file holds one line
    path = tmp_path / "lying.klin"
    path.write_text("p klin 2 3 1000000000000\n0 1 +1 1.0\n")
    with pytest.raises(ParseError, match=":2: header promises 1000000000000 constraints, found 1$"):
        fileio.read_instance(path)


def test_a_wide_header_writes_only_the_filled_columns(tmp_path):
    # one unary row under a header promising k = 10**6: the (1, k) idx is the
    # data model's, but the writer tokenizes only its first column (an
    # (m, k + 1) token array took 24 MB here)
    k = 10**6
    idx = np.full((1, k), -1, dtype=np.int64)
    idx[0, 0] = 0
    wide = KLinInstance(k, 5, idx, [1], [1.0])
    path = tmp_path / "wide.klin"
    tracemalloc.start()
    try:
        fileio.write_instance(path, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == b"p klin 1000000 5 1\n0 +1 1.0\n"
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# What write_instance writes: golden sha256 digests of the bytes, recorded
# before the writer wrote in blocks, and a read-back that never reaches the
# line checker.

def psi_instance():
    plant = plant_klin(20, 3, 1500, 0.1, seed=800)
    advice = gen_label_advice(plant.x_star, 0.8, seed=(81, 0))
    return build_psi(plant.instance, advice, 0.1, 0.8).psi  # mixed unary and binary rows


WRITTEN = {
    # spans several read blocks
    "klin-3-blocks": (lambda: plant_klin(2000, 3, 30000, 0.05, seed=4).instance,
                      "0d72f161851f09a4cad8d5e3f18d1be84adcf5355a48bc8eeb3dd1624c954115"),
    "klin-3": (lambda: plant_klin(50, 3, 400, 0.1, seed=1).instance,
               "ad22f51d6549752750b4d91ba1375fa50d27db4c7390851daa260198574969f4"),
    "klin-2": (lambda: plant_klin(30, 2, 100, 0.2, seed=2).instance,
               "40f1ffed4a0df62bb3fd509290cb29f8f96ec8315d5071951d6780b3525dd725"),
    "klin-4": (lambda: plant_klin(12, 4, 60, 0.0, seed=3).instance,
               "29eb2e88742077d92438bbb982e378ce96491af3c4b583bce271810cb3783710"),
    "graph": (lambda: plant_bipartite_regular(64, 6, 0.5, seed=8).instance,
              "bee58a82adc9ccf60845f7b70ce15ebaadde0a8f18a37037d779686569866278"),
    "mixed-arity": (psi_instance,
                    "9f62d94523caf88f7e8c2743769d6e668f0b3160253564363adc1f0bb7c308ce"),
    "weighted": (lambda: random_2lin(np.random.default_rng(9), 9, 40),
                 "90139a9d1b7590eb1eb8e5d55c573751f227f5cb66a98670b5e5ef9618be516b"),
    # n > idx.size: index tokens only for the indices used
    "sparse-ids": (lambda: KLinInstance.from_constraints(3, 10**6, (
        ((999_999, 5, 70), -1, 0.1 + 0.2), ((42,), 1, 5e-324), ((7, 8), 1, -0.0))),
        "59c76bdb7efacc697269488497f3febe303cfc2ec4fbac89cd357038487acf76"),
}


@pytest.fixture
def no_line_checker(monkeypatch):
    def refuse(*args):
        raise AssertionError("a written file reached the line checker")
    for name in ("_content_lines", "_parse_constraint", "_parse_pm1"):
        monkeypatch.setattr(fileio, name, refuse)


@pytest.mark.parametrize("name", WRITTEN)
def test_written_instance_bytes_and_block_read(tmp_path, no_line_checker, name):
    make, sha256 = WRITTEN[name]
    inst = make()
    path = tmp_path / "written.klin"
    fileio.write_instance(path, inst)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    klin = graph_to_klin(inst) if isinstance(inst, GraphInstance) else inst
    assert same_bits(fileio.read_instance(path), klin)


def test_written_assignment_and_advice_read_by_blocks(tmp_path, no_line_checker):
    rng = np.random.default_rng(8)
    x = rng.choice([-1, 1], size=3000).astype(np.int8)
    path = tmp_path / "out.txt"
    fileio.write_assignment(path, x)
    assert same_bits(fileio.read_assignment(path), x)
    for advice in (gen_label_advice(x, 0.3, seed=1), gen_subset_advice(x, 0.4, seed=2)):
        fileio.write_advice(path, advice)
        assert same_bits(fileio.read_advice(path), advice)
