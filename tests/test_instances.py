import itertools

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
    satisfied_mask,
    to_quadratic_matrix,
)


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


def test_even_arity_negation_invariance():
    rng = np.random.default_rng(4)
    for k in (2, 4):
        plant = plant_klin(8, k, 25, 0.3, seed=k)
        for _ in range(10):
            x = rng.choice([-1, 1], size=8)
            assert evaluate(plant.instance, x) == evaluate(plant.instance, -x)


def test_odd_arity_negation_flips_rhs():
    plant = plant_klin(7, 3, 20, 0.3, seed=5)
    inst = plant.instance
    flipped = KLinInstance(k=3, n=7, idx=inst.idx, rhs=-inst.rhs, w=inst.w)
    for x in itertools.product([-1, 1], repeat=7):
        xv = np.array(x, dtype=np.int8)
        assert np.array_equal(satisfied_mask(inst, -xv), satisfied_mask(flipped, xv))


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
        qp = to_quadratic_matrix(inst)
        for x in itertools.product([-1, 1], repeat=n):
            xv = np.array(x, dtype=np.int8)
            want, _ = evaluate(inst, xv)
            assert quadratic_identity_value(inst, qp, xv) == pytest.approx(want, abs=1e-9)

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
        assert len(set(graph.edges)) == len(graph.edges)

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
        assert a.instance.edges == b.instance.edges
        assert np.array_equal(a.x_star, b.x_star)

    def test_infeasible_parameters(self):
        with pytest.raises(ConstructionError):
            plant_bipartite_regular(8, 4, 0.0, seed=0)  # d >= n/2
        with pytest.raises(ConstructionError):
            plant_bipartite_regular(10, 3, 1.0, seed=0)  # odd intra stub parity


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
        for col in ("idx", "rhs", "w"):
            assert np.array_equal(getattr(a.instance, col), getattr(b.instance, col))
        assert np.array_equal(a.x_star, b.x_star)

    def test_arity_exceeds_n(self):
        with pytest.raises(InputError):
            plant_klin(2, 3, 5, 0.0, seed=0)

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


def test_graph_to_klin_cut_agreement():
    plant = plant_bipartite_regular(32, 3, 0.0, seed=2)
    x = np.where(np.arange(32) % 2 == 0, 1, -1).astype(np.int8)
    weight, _ = evaluate(graph_to_klin(plant.instance), x)
    assert weight == cut_value(plant.instance, x)
