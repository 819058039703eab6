import numpy as np
import pytest

from advice_csp import fileio
from advice_csp.advice import LabelAdvice, SubsetAdvice, gen_label_advice, gen_subset_advice
from advice_csp.errors import InputError, ParseError
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin
from advice_csp.verify import same_columns


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
