import numpy as np
import pytest

from advice_csp import reduce4lin
from advice_csp.errors import InputError
from advice_csp.instances import KLinInstance, evaluate, plant_klin
from advice_csp.reduce4lin import lift_assignment, project_assignment, three_to_four_lin
from advice_csp.verify import lift_map_failures


def small_phi():
    return KLinInstance.from_constraints(
        k=3, n=3, constraints=(((0, 1, 2), 1, 1.0), ((0, 1, 2), -1, 1.0))
    )


class TestLift:
    def test_counting_example(self):
        lift = three_to_four_lin(small_phi(), t=2)
        assert lift.phi4.n == 5
        assert lift.phi4.m == 4

    def test_single_new_variable(self):
        plant = plant_klin(8, 3, 12, 0.2, seed=0)
        lift = three_to_four_lin(plant.instance, t=1)
        assert lift.phi4.n == 9 and lift.phi4.m == 12

    def test_average_degree_identity(self):
        plant = plant_klin(10, 3, 40, 0.1, seed=1)
        t = 5
        lift = three_to_four_lin(plant.instance, t)
        # incidences / (variables * arity)
        avg_degree = lift.phi4.m * 4 / (4 * lift.phi4.n)
        assert avg_degree == pytest.approx(40 * t / (10 + t))

    def test_new_variable_indexing(self):
        lift = three_to_four_lin(small_phi(), t=3)
        assert lift.new_variable(1) == 3
        assert lift.new_variable(3) == 5
        with pytest.raises(InputError):
            lift.new_variable(4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            three_to_four_lin(small_phi(), t=0)
        phi2 = KLinInstance.from_constraints(k=2, n=2, constraints=(((0, 1), 1, 1.0),))
        with pytest.raises(InputError):
            three_to_four_lin(phi2, t=1)


class TestAssignmentMaps:
    def test_noiseless_plant_lift_satisfies_everything(self):
        plant = plant_klin(9, 3, 30, 0.0, seed=2)
        lift = three_to_four_lin(plant.instance, t=4)
        assert evaluate(lift.phi4, lift_assignment(plant.x_star, 4))[1] == 1.0

    def test_completeness_equality(self):
        # sigma lifted is also the lifted assignment projected back
        rng = np.random.default_rng(3)
        plant = plant_klin(8, 3, 25, 0.4, seed=4)
        for _ in range(30):
            sigma = rng.choice([-1, 1], size=8)
            failures = lift_map_failures(plant.instance, 3, sigma, lift_assignment(sigma, 3))
            assert failures == (0, 0, 0)

    def test_projection_recovers_plant(self):
        plant = plant_klin(7, 3, 20, 0.0, seed=5)
        lifted = lift_assignment(plant.x_star, 3)
        back = project_assignment(lifted, plant.instance)
        assert evaluate(plant.instance, back)[1] == 1.0

    def test_soundness_inequality(self):
        rng = np.random.default_rng(6)
        for s in range(100):
            n = int(rng.integers(4, 10))
            m = int(rng.integers(3, 20))
            t = int(rng.integers(1, 9))
            plant = plant_klin(n, 3, m, float(rng.random() / 2), seed=(7, s))
            sigma_prime = rng.choice([-1, 1], size=n + t)
            # sigma' restricted to phi's variables is also lifted back
            assert lift_map_failures(plant.instance, t, sigma_prime[:n], sigma_prime) == (0, 0, 0)

    def test_all_positive_helpers_reduce_to_restriction(self):
        rng = np.random.default_rng(8)
        plant = plant_klin(6, 3, 15, 0.3, seed=9)
        sigma = rng.choice([-1, 1], size=6)
        lifted = lift_assignment(sigma, 2)
        back = project_assignment(lifted, plant.instance)
        assert evaluate(plant.instance, back)[1] >= evaluate(plant.instance, sigma)[1]

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            project_assignment(np.ones(3, dtype=np.int8), small_phi())

    @pytest.mark.parametrize("helpers", [[-1, 1, -1, 1, 1], [1, 1, -1]])
    def test_each_distinct_candidate_evaluated_once_earliest_kept(self, monkeypatch, helpers):
        # small_phi's two constraints disagree, so every candidate ties and
        # the first helper's sign must win.
        calls = []
        evaluate_ = reduce4lin.evaluate
        monkeypatch.setattr(reduce4lin, "evaluate",
                            lambda phi, x: calls.append(x.tolist()) or evaluate_(phi, x))
        base = np.array([1, -1, 1], dtype=np.int8)
        back = project_assignment(np.append(base, helpers), small_phi())
        assert calls == [(base * helpers[0]).tolist(), (-base * helpers[0]).tolist()]
        assert back.tolist() == calls[0] and back.dtype == np.int8
