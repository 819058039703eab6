import math

import numpy as np
import pytest

from advice_csp.advice import (
    LabelAdvice,
    SubsetAdvice,
    empirical_correlation,
    gen_label_advice,
    gen_subset_advice,
    subset_to_label,
)
from advice_csp.errors import InputError
from advice_csp.verify import binomial_band

N = 10_000
RNG = np.random.default_rng(999)
X_STAR = RNG.choice([-1, 1], size=N).astype(np.int8)


class TestLabelAdvice:
    def test_epsilon_one_is_exact_copy(self):
        adv = gen_label_advice(X_STAR, 1.0, seed=0)
        assert np.array_equal(adv.values, X_STAR)

    def test_agreement_rate_band(self):
        adv = gen_label_advice(X_STAR, 0.2, seed=1)
        agree = float(np.mean(adv.values == X_STAR))
        assert abs(agree - 0.6) <= binomial_band(0.6, N)

    def test_same_seed_same_output(self):
        a = gen_label_advice(X_STAR, 0.5, seed=42)
        b = gen_label_advice(X_STAR, 0.5, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_epsilon_out_of_range(self):
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(InputError):
                gen_label_advice(X_STAR, eps, seed=0)

    def test_per_coordinate_bias(self):
        # Mean of advice_i * truth_i converges to epsilon coordinatewise.
        eps, trials = 0.4, 4000
        total = 0
        for s in range(trials):
            total += int(gen_label_advice(X_STAR[:1], eps, seed=s).values[0]) * int(X_STAR[0])
        assert abs(total / trials - eps) <= 3 * math.sqrt((1 - eps**2) / trials)


class TestSubsetAdvice:
    def test_epsilon_one_reveals_everything(self):
        adv = gen_subset_advice(X_STAR, 1.0, seed=0)
        assert adv.size == N
        assert np.array_equal(adv.values, X_STAR)

    def test_size_band(self):
        adv = gen_subset_advice(X_STAR, 0.25, seed=2)
        assert abs(adv.size - 2500) <= binomial_band(0.25, N) * N

    def test_values_always_match(self):
        adv = gen_subset_advice(X_STAR, 0.3, seed=3)
        assert np.array_equal(adv.values, X_STAR[adv.indices])

    def test_distinct_sorted_indices(self):
        adv = gen_subset_advice(X_STAR, 0.5, seed=4)
        assert np.all(np.diff(adv.indices) > 0)

    def test_validation(self):
        with pytest.raises(InputError):
            SubsetAdvice(n=5, indices=np.array([1, 1]), values=np.array([1, -1]), epsilon=0.5)
        with pytest.raises(InputError):
            SubsetAdvice(n=5, indices=np.array([7]), values=np.array([1]), epsilon=0.5)
        for indices in ([0.5, 1.7], [0.0, 1.0], [True, False]):
            with pytest.raises(InputError, match="revealed indices must be integers"):
                SubsetAdvice(n=3, indices=indices, values=[1, -1], epsilon=0.5)
        assert SubsetAdvice(n=3, indices=[], values=[], epsilon=0.5).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(InputError, match="advice length must be >= 0, got -5"):
            SubsetAdvice(n=-5, indices=np.zeros(0, dtype=np.int64),
                         values=np.zeros(0, dtype=np.int8), epsilon=0.5)


class TestSubsetToLabel:
    def test_full_subset_copies_truth(self):
        sub = gen_subset_advice(X_STAR, 1.0, seed=0)
        lab = subset_to_label(sub, seed=1)
        assert np.array_equal(lab.values, X_STAR)
        assert lab.epsilon == sub.epsilon

    def test_empty_subset_is_uniform(self):
        sub = SubsetAdvice(n=N, indices=np.zeros(0, dtype=np.int64),
                           values=np.zeros(0, dtype=np.int8), epsilon=0.5)
        lab = subset_to_label(sub, seed=5)
        agree = float(np.mean(lab.values == X_STAR))
        assert abs(agree - 0.5) <= 0.015

    def test_revealed_coordinates_exact(self):
        sub = gen_subset_advice(X_STAR, 0.3, seed=6)
        lab = subset_to_label(sub, seed=7)
        assert np.array_equal(lab.values[sub.indices], sub.values)

    def test_mixture_statistics(self):
        # Agreement with the truth at an unrevealed coordinate is 1/2, at a
        # revealed one it is 1; across fresh subset draws it mixes to
        # (1 + eps) / 2 per coordinate.
        eps, trials = 0.3, 20_000
        hits = 0
        truth = X_STAR[:40]
        for s in range(trials):
            sub = gen_subset_advice(truth, eps, seed=(11, s))
            lab = subset_to_label(sub, seed=(12, s))
            hits += int(lab.values[0] == truth[0])
        target = (1 + eps) / 2
        assert abs(hits / trials - target) <= binomial_band(target, trials) + 1e-12


class TestEmpiricalCorrelation:
    def test_exact_copy(self):
        adv = LabelAdvice(values=X_STAR, epsilon=1.0)
        assert empirical_correlation(adv, X_STAR) == 1.0

    def test_negated_copy(self):
        adv = LabelAdvice(values=-X_STAR, epsilon=1.0)
        assert empirical_correlation(adv, X_STAR) == -1.0

    def test_band(self):
        adv = gen_label_advice(X_STAR, 0.4, seed=8)
        assert abs(empirical_correlation(adv, X_STAR) - 0.4) <= 0.03

    def test_length_mismatch(self):
        adv = gen_label_advice(X_STAR, 0.4, seed=9)
        with pytest.raises(InputError):
            empirical_correlation(adv, X_STAR[:-1])
