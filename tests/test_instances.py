import itertools
import re

import numpy as np
import pytest

from advice_csp.errors import ConstructionError, InputError
from advice_csp.instances import (
    GraphInstance,
    KLinInstance,
    PlantedInstance,
    QpMatrix,
    cut_value,
    evaluate,
    graph_to_klin,
    plant_bipartite_regular,
    plant_klin,
    quadratic_identity_value,
    to_quadratic_matrix,
    _as_pm1,
)
from advice_csp.verify import identity_failures, negation_failures, same_columns


def naive_evaluate(instance, x):
    """Independent straightforward recount, constraint by constraint."""
    sat = 0.0
    for row, rhs, w in zip(instance.idx.tolist(), instance.rhs.tolist(), instance.w.tolist()):
        prod = 1
        for i in row:
            if i != -1:  # padding
                prod *= int(x[i])
        if prod == rhs:
            sat += w
    return sat, sat / instance.total_weight


def test_evaluate_single_constraint():
    inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), -1, 1.0),))
    weight, fraction = evaluate(inst, np.array([1, -1]))
    assert weight == 1.0
    assert fraction == 1.0


def test_evaluate_noiseless_plant_is_saturated():
    plant = plant_klin(40, 3, 200, 0.0, seed=1)
    _, fraction = evaluate(plant.instance, plant.x_star)
    assert fraction == 1.0


def test_evaluate_matches_naive_recount():
    rng = np.random.default_rng(2)
    plant = plant_klin(10, 3, 30, 0.4, seed=3)
    for _ in range(20):
        x = rng.choice([-1, 1], size=10)
        assert evaluate(plant.instance, x) == naive_evaluate(plant.instance, x)


def test_total_weight_is_left_to_right_sum():
    w = np.random.default_rng(5).random(500) * 1e3  # np.sum would differ in the last bit
    inst = KLinInstance(k=1, n=1, idx=np.zeros((500, 1), dtype=np.int64), rhs=np.ones(500), w=w)
    total = 0
    for weight in w.tolist():
        total += weight
    assert inst.total_weight == total
    assert KLinInstance.from_constraints(1, 1, []).total_weight == 0.0


def test_evaluate_rejects_wrong_length():
    inst = KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 1, 1.0),))
    with pytest.raises(InputError):
        evaluate(inst, np.array([1, -1]))


def test_evaluate_zero_total_weight():
    # nothing to satisfy, as with no constraints; the assignment is still checked
    inst = KLinInstance.from_constraints(2, 3, (((0, 1), 1, 0.0), ((1, 2), -1, 0.0)))
    assert evaluate(inst, [1, -1, 1]) == (0.0, 1.0)
    with pytest.raises(InputError):
        evaluate(inst, [1, 0, 1])


def test_even_arity_negation_invariance():
    rng = np.random.default_rng(4)
    for k in (2, 4):
        plant = plant_klin(8, k, 25, 0.3, seed=k)
        xs = [rng.choice([-1, 1], size=8) for _ in range(10)]
        assert negation_failures(plant.instance, xs) == 0


def test_odd_arity_negation_flips_rhs():
    plant = plant_klin(7, 3, 20, 0.3, seed=5)
    assert negation_failures(plant.instance, itertools.product([-1, 1], repeat=7)) == 0


def test_instance_validation():
    with pytest.raises(InputError):
        KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 0), 1, 1.0),))  # repeated index
    with pytest.raises(InputError):
        KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 3), 1, 1.0),))  # out of range
    with pytest.raises(InputError):
        KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 2, 1.0),))  # bad rhs
    with pytest.raises(InputError):
        KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 1, -0.5),))  # negative weight


def test_columnar_validation_messages():
    one = np.array([1])
    cases = [
        ([[-1, -1]], one, [1.0], "constraint arity 0 outside 1..2"),
        ([[2, 2]], one, [1.0], r"repeated index in constraint \(2, 2\)"),
        ([[0, 5]], one, [1.0], r"index out of range in constraint \(0, 5\)"),
        ([[-1, 1]], one, [1.0], "index out of range"),  # padding must trail
        ([[0, -2]], one, [1.0], "index out of range"),
        ([[0, 1]], [0], [1.0], r"right-hand side must be -1 or \+1, got 0"),
        ([[0, 1]], one, [np.nan], "weight must be finite and nonnegative, got nan"),
        ([[0, 1, 2]], one, [1.0], "shapes"),
    ]
    for idx, rhs, w, message in cases:
        with pytest.raises(InputError, match=message):
            KLinInstance(k=2, n=3, idx=np.array(idx), rhs=rhs, w=w)
    # a trailing -1 pads a unary constraint
    assert KLinInstance(k=2, n=3, idx=np.array([[0, -1]]), rhs=one, w=[1.0]).arity.tolist() == [1]
    with pytest.raises(InputError, match=r"index out of range in constraint \(2, -1\)"):
        KLinInstance.from_constraints(2, 3, [((2, -1), 1, 1.0)])
    with pytest.raises(InputError, match="constraint arity 3 outside 1..2"):
        KLinInstance.from_constraints(2, 3, [((0, 1, 2), 1, 1.0)])
    with pytest.raises(InputError, match="arity and variable count"):
        KLinInstance.from_constraints(0, 3, [])
    # indices are never truncated to integers
    for idx in ([[0.5, 1.9]], [[0.0, 1.0]], [[True, False]]):
        with pytest.raises(InputError, match="constraint indices must be integers"):
            KLinInstance(k=2, n=3, idx=np.array(idx), rhs=one, w=[1.0])
    for ids in ((0.5, 1.9), (True, 2), (0, np.float64(1.0))):
        with pytest.raises(InputError, match="constraint indices must be integers"):
            KLinInstance.from_constraints(2, 3, [(ids, 1, 1.0)])
    assert KLinInstance(k=2, n=3, idx=np.zeros(0), rhs=[], w=[]).m == 0
    with pytest.raises(InputError, match="index 18446744073709551615 out of range"):
        KLinInstance(k=2, n=3, idx=np.array([[0, 2**64 - 1]], dtype=np.uint64), rhs=one, w=[1.0])
    unsigned = KLinInstance(k=2, n=3, idx=np.array([[2, 0]], dtype=np.uint8), rhs=one, w=[1.0])
    assert unsigned.idx.tolist() == [[2, 0]]
    numpy_ids = KLinInstance.from_constraints(2, 3, [((np.int64(0), 2), 1, 1.0)])
    assert numpy_ids.idx.tolist() == [[0, 2]]


def test_validation_names_first_faulty_row():
    # row 0 has a bad rhs, row 1 a repeated index: row 0 is named
    idx = np.array([[0, 1], [2, 2]])
    with pytest.raises(InputError, match=r"right-hand side must be -1 or \+1, got 0"):
        KLinInstance(k=2, n=3, idx=idx, rhs=[0, 1], w=[1.0, 1.0])
    # within one row the checks keep their order: repeated index before weight
    with pytest.raises(InputError, match="repeated index"):
        KLinInstance(k=2, n=3, idx=idx, rhs=[1, 1], w=[1.0, -1.0])


def test_constraints_view_and_columns():
    cons = (((2,), -1, 0.5), ((0, 1), 1, 2.0), ((1, 2), -1, 1.0))
    inst = KLinInstance.from_constraints(2, 3, cons)
    assert inst.constraints == cons
    assert inst.idx.tolist() == [[2, -1], [0, 1], [1, 2]]
    assert inst.rhs.dtype == np.int8 and inst.w.dtype == np.float64
    assert inst.arity.tolist() == [1, 2, 2]
    assert not inst.idx.flags.writeable


class TestQuadraticMatrix:
    def test_single_maxcut_edge_identity(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), -1, 3.0),))
        qp = to_quadratic_matrix(inst)
        assert qp.a[0, 1] == qp.a[1, 0] == -3.0
        x = np.array([1, -1])
        assert quadratic_identity_value(inst, qp, x) == 3.0

    def test_single_positive_constraint(self):
        inst = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), 1, 1.0),))
        qp = to_quadratic_matrix(inst)
        assert quadratic_identity_value(inst, qp, np.array([1, 1])) == 1.0

    def test_identity_on_all_assignments(self):
        rng = np.random.default_rng(6)
        n = 12
        cons = []
        for _ in range(40):
            i, j = rng.choice(n, size=2, replace=False)
            cons.append(((int(i), int(j)), int(rng.choice([-1, 1])), float(rng.random())))
        inst = KLinInstance.from_constraints(k=2, n=n, constraints=tuple(cons))
        assert identity_failures(inst, itertools.product([-1, 1], repeat=n)) == 0

    def test_parallel_constraints_merge(self):
        inst = KLinInstance.from_constraints(
            k=2, n=2, constraints=(((0, 1), 1, 1.0), ((1, 0), 1, 2.0), ((0, 1), -1, 0.5))
        )
        qp = to_quadratic_matrix(inst)
        assert qp.a[0, 1] == pytest.approx(2.5)
        assert inst.m == 3  # instance itself stays verbatim

    def test_rejects_wrong_arity(self):
        inst = KLinInstance.from_constraints(k=3, n=3, constraints=(((0, 1, 2), 1, 1.0),))
        with pytest.raises(InputError):
            to_quadratic_matrix(inst)

    def test_built_once_and_read_only(self):
        inst = KLinInstance.from_constraints(k=2, n=3, constraints=(((0, 1), 1, 1.0),))
        qp = to_quadratic_matrix(inst)
        assert to_quadratic_matrix(inst) is qp
        with pytest.raises(ValueError):
            qp.a[0, 1] = 5.0

    def test_matrix_owns_its_array(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        qp = QpMatrix(a)
        a[0, 1] = a[1, 0] = 7.0
        assert qp.a.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError):
            qp.a[0, 1] = 2.0

    def test_matrix_validation(self):
        with pytest.raises(InputError):
            QpMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
        with pytest.raises(InputError):
            QpMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric


class TestBipartitePlant:
    def test_perfect_matching_case(self):
        plant = plant_bipartite_regular(4, 1, 0.0, seed=0)
        assert plant.planted_value == 2.0
        assert cut_value(plant.instance, plant.x_star) == 2

    def test_all_edges_cut_at_gamma_zero(self):
        plant = plant_bipartite_regular(256, 16, 0.0, seed=9)
        graph = plant.instance
        assert graph.regular_degree == 16
        assert len(graph.edges) == 256 * 16 // 2
        assert cut_value(graph, plant.x_star) == len(graph.edges)
        assert len(np.unique(graph.edges, axis=0)) == len(graph.edges)

    def test_gamma_one_has_no_cross_edges(self):
        plant = plant_bipartite_regular(64, 4, 1.0, seed=3)
        assert plant.planted_value == 0.0
        assert plant.instance.regular_degree == 4

    def test_intermediate_gamma_degrees(self):
        plant = plant_bipartite_regular(128, 10, 0.4, seed=4)
        assert plant.instance.regular_degree == 10
        # ceil(0.6 * 10) = 6 cross edges per vertex
        assert plant.planted_value == 64 * 6

    def test_deterministic(self):
        a = plant_bipartite_regular(64, 6, 0.5, seed=11)
        b = plant_bipartite_regular(64, 6, 0.5, seed=11)
        assert np.array_equal(a.instance.edges, b.instance.edges)
        assert np.array_equal(a.x_star, b.x_star)

    def test_infeasible_parameters(self):
        with pytest.raises(ConstructionError):
            plant_bipartite_regular(8, 4, 0.0, seed=0)  # d >= n/2
        with pytest.raises(ConstructionError):
            plant_bipartite_regular(10, 3, 1.0, seed=0)  # odd intra stub parity

    @pytest.mark.parametrize("n, d, gamma, message", [
        (7, 2, 0.0, "vertex count must be even and >= 2"),
        (0, 2, 0.0, "vertex count must be even and >= 2"),
        (8, 0, 0.0, "degree must be >= 1"),
        (8, 2, -0.1, "intra-side fraction must lie in [0, 1]"),
        (8, 2, 1.5, "intra-side fraction must lie in [0, 1]"),
    ])
    def test_rejects_bad_arguments(self, n, d, gamma, message):
        with pytest.raises(InputError, match=re.escape(message)):
            plant_bipartite_regular(n, d, gamma, seed=0)


class TestKLinPlant:
    def test_fraction_concentrates(self):
        plant = plant_klin(2000, 3, 225400, 0.05, seed=7)
        frac = plant.planted_value / plant.instance.m
        assert 0.945 <= frac <= 0.955

    def test_full_noise(self):
        plant = plant_klin(5, 3, 1, 1.0, seed=1)
        assert plant.planted_value == 0.0

    def test_deterministic(self):
        a = plant_klin(50, 3, 200, 0.2, seed=13)
        b = plant_klin(50, 3, 200, 0.2, seed=13)
        assert same_columns(a.instance, b.instance)
        assert np.array_equal(a.x_star, b.x_star)

    def test_arity_exceeds_n(self):
        with pytest.raises(InputError):
            plant_klin(2, 3, 5, 0.0, seed=0)

    @pytest.mark.parametrize("m, delta, message", [
        (0, 0.0, "constraint count must be >= 1"),
        (5, -0.5, "noise rate must lie in [0, 1]"),
        (5, 1.01, "noise rate must lie in [0, 1]"),
    ])
    def test_rejects_bad_arguments(self, m, delta, message):
        with pytest.raises(InputError, match=re.escape(message)):
            plant_klin(6, 3, m, delta, seed=0)

    def test_arity_one(self):
        # unary constraints need no distinct-index redraw
        plant = plant_klin(5, 1, 40, 0.0, seed=3)
        idx = plant.instance.idx[:, 0]
        assert plant.instance.k == 1 and idx.min() >= 0 and idx.max() < 5
        assert np.array_equal(plant.instance.rhs, plant.x_star[idx])
        assert plant.planted_value == 40.0
        assert evaluate(plant.instance, plant.x_star)[0] == 40.0

    def test_distinct_indices_per_constraint(self):
        plant = plant_klin(6, 3, 300, 0.5, seed=2)
        for idx in plant.instance.idx.tolist():
            assert len(set(idx)) == 3


def test_planted_value_is_validated():
    plant = plant_klin(10, 3, 30, 0.2, seed=1)
    with pytest.raises(InputError):
        PlantedInstance(
            instance=plant.instance,
            x_star=plant.x_star,
            planted_value=plant.planted_value + 1,
            noise_rate=0.2,
        )


def test_graph_rejects_self_loops():
    with pytest.raises(InputError):
        GraphInstance(n=3, edges=((1, 1),))


@pytest.mark.parametrize("edges", [((0, 1, 2),), ((0,),), ((0, 1.7),), ((0, 1), (2,))])
def test_graph_rejects_malformed_edges(edges):
    with pytest.raises(InputError, match="pairs of integer vertex indices"):
        GraphInstance(n=3, edges=edges)


@pytest.mark.parametrize("edges, message", [
    (((0, 1), (0, 5), (2, 2)), r"edge \(0,5\) out of range"),  # earlier edge wins
    (((0, 1), (2, 2), (0, 5)), "self-loop at vertex 2"),
    (((7, 7),), "self-loop at vertex 7"),  # self-loop beats range within an edge
    (((-1, 2),), r"edge \(-1,2\) out of range"),
])
def test_graph_names_first_faulty_edge(edges, message):
    with pytest.raises(InputError, match=message):
        GraphInstance(n=3, edges=edges)


def test_graph_edges_are_a_readonly_int64_array():
    graph = GraphInstance(n=4, edges=[(0, 1), (2, 3)])
    assert graph.edges.dtype == np.int64 and graph.edges.shape == (2, 2)
    with pytest.raises(ValueError):
        graph.edges[0, 0] = 3
    empty = GraphInstance(n=4, edges=())
    assert empty.edges.shape == (0, 2) and empty.edges.dtype == np.int64
    assert empty.degrees.tolist() == [0, 0, 0, 0] and cut_value(empty, [1, -1, 1, -1]) == 0


def test_instances_own_their_arrays():
    # Writes into the caller's arrays after construction reach neither the
    # instance nor what it derives and caches from them.
    idx = np.array([[0, 1], [1, 2], [0, 2]], dtype=np.int64)
    rhs = np.array([1, -1, 1], dtype=np.int8)
    w = np.array([1.0, 2.0, 0.5])
    inst = KLinInstance(k=2, n=3, idx=idx, rhs=rhs, w=w)
    want = KLinInstance(k=2, n=3, idx=idx.copy(), rhs=rhs.copy(), w=w.copy())
    idx[0] = (2, 2)
    rhs[1] = 5
    w[:] = -1.0
    assert np.array_equal(inst.idx, want.idx)
    assert np.array_equal(inst.rhs, want.rhs) and np.array_equal(inst.w, want.w)
    assert np.array_equal(inst.arity, want.arity)
    assert inst.total_weight == want.total_weight == 3.5
    assert np.array_equal(to_quadratic_matrix(inst).a, to_quadratic_matrix(want).a)

    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    graph = GraphInstance(3, edges)
    edges[1] = (2, 2)
    assert graph.edges.tolist() == [[0, 1], [1, 2]]
    assert graph.degrees.tolist() == [1, 2, 1]


def test_graph_to_klin_shares_the_graph_array():
    graph = GraphInstance(4, np.array([[0, 1], [2, 3]]))
    assert graph_to_klin(graph).idx is graph.edges


@pytest.mark.parametrize("values, n, message", [
    (np.array([1, 2**64 - 1], dtype=np.uint64), None, "entries must be -1 or"),
    (np.array([1, -2**63], dtype=np.int64), None, "entries must be -1 or"),
    (np.array([1, -128], dtype=np.int8), None, "entries must be -1 or"),
    ([1.5, 1.0], None, "entries must be -1 or"),
    (np.array([1, 0], dtype=np.int8), None, "entries must be -1 or"),
    ([1, 0], None, "entries must be -1 or"),
    ([1, -1, 1], 2, "has length 3, expected 2"),
    ([[1, -1]], None, "must be one-dimensional"),
])
def test_pm1_rejections(values, n, message):
    with pytest.raises(InputError, match=message):
        _as_pm1(values, n, what="labels")


@pytest.mark.parametrize("values", [
    np.array([1, -1], dtype=np.int8), np.array([1, 1], dtype=np.uint8),
    [1, -1], [1.0, -1.0],
])
def test_pm1_accepts_and_copies(values):
    out = _as_pm1(values)
    assert out.dtype == np.int8 and out.tolist() == np.asarray(values, dtype=np.int64).tolist()
    assert not np.shares_memory(out, np.asarray(values))


def test_graph_to_klin_cut_agreement():
    plant = plant_bipartite_regular(32, 3, 0.0, seed=2)
    x = np.where(np.arange(32) % 2 == 0, 1, -1).astype(np.int8)
    weight, _ = evaluate(graph_to_klin(plant.instance), x)
    assert weight == cut_value(plant.instance, x)
