import numpy as np
import pytest

from advice_csp import fileio
from advice_csp.advice import LabelAdvice, SubsetAdvice, gen_label_advice, gen_subset_advice
from advice_csp.errors import ParseError
from advice_csp.instances import KLinInstance, plant_bipartite_regular, plant_klin


def same_columns(a, b):
    return (a.k, a.n) == (b.k, b.n) and all(
        np.array_equal(getattr(a, col), getattr(b, col)) for col in ("idx", "rhs", "w")
    )


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
    assert graph.edges == plant.instance.edges


def test_empty_unary_instance_reads_as_empty_graph(tmp_path):
    path = tmp_path / "empty.klin"
    path.write_text("p klin 1 4 0\n")
    graph = fileio.instance_to_graph(fileio.read_instance(path))
    assert graph.n == 4 and graph.edges == ()


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
