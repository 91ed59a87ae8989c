import math
from collections import Counter

import numpy as np
import pytest

from cropyield import eo
from cropyield.errors import DomainError


class TestInitialize:
    def test_positions_in_unit_box(self):
        state = eo.initialize(5, eo.EoConfig(), np.random.default_rng(0))
        for p in state.particles:
            assert p.position.shape == (5,)
            assert np.all(p.position >= 0.0) and np.all(p.position <= 1.0)

    def test_same_seed_identical_population(self):
        a = eo.initialize(7, eo.EoConfig(), np.random.default_rng(3))
        b = eo.initialize(7, eo.EoConfig(), np.random.default_rng(3))
        for pa, pb in zip(a.particles, b.particles):
            np.testing.assert_array_equal(pa.position, pb.position)

    def test_shape_contract(self):
        state = eo.initialize(5, eo.EoConfig(n_particles=4), np.random.default_rng(1))
        assert len(state.particles) == 4
        assert all(p.position.shape == (5,) for p in state.particles)

    def test_too_few_particles_rejected(self):
        with pytest.raises(DomainError):
            eo.EoConfig(n_particles=3)


class TestFitness:
    def test_high_positions_full_mask(self):
        p = eo.Particle(position=np.full(6, 0.9))
        got = eo.evaluate_fitness(p, lambda m: float(m.sum()))
        assert got == 6.0

    def test_low_positions_empty_mask_penalized(self):
        p = eo.Particle(position=np.full(6, 0.1))
        assert eo.evaluate_fitness(p, lambda m: 0.0) == math.inf

    def test_hamming_oracle(self):
        planted = np.array([True, False, True, False])
        p = eo.Particle(position=np.array([0.9, 0.9, 0.1, 0.1]))
        got = eo.evaluate_fitness(p, lambda m: float(np.sum(m != planted)))
        # mask (1,1,0,0) vs planted (1,0,1,0): disagreement at positions 1 and 2
        assert got == 2.0


class TestPool:
    def _state_with_fitness(self, fits):
        cfg = eo.EoConfig(n_particles=len(fits))
        state = eo.initialize(3, cfg, np.random.default_rng(5))
        for p, f in zip(state.particles, fits):
            p.fitness = f
        return state

    def test_identical_particles_average(self):
        state = self._state_with_fitness([1.0, 1.0, 1.0, 1.0])
        shared = np.array([0.2, 0.6, 0.8])
        for p in state.particles:
            p.position = shared.copy()
        eo.update_pool(state)
        np.testing.assert_array_equal(state.p_avg, shared)

    def test_value_then_index_order(self):
        state = self._state_with_fitness([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        eo.update_pool(state)
        assert state.pool == [1, 3, 0, 2]

    def test_pool_fitnesses_ascending(self):
        state = self._state_with_fitness([5.0, 2.0, 8.0, 1.0, 9.0, 3.0])
        eo.update_pool(state)
        fits = [state.particles[i].fitness for i in state.pool]
        assert fits == sorted(fits)


class TestPositionUpdate:
    def test_null_update_first_iteration(self):
        p = np.array([0.3, 0.8])
        out = eo.position_update(p, None, np.array([0.5, 0.5]), 0.0, 1.0, 0.5, 1.0)
        np.testing.assert_array_equal(out, p)

    def test_single_coordinate_oracle(self):
        # P=0.6, P_avg=0.4, delta=0.5, G=0.2 (prev=0.2 with alpha=0.5), lam=1
        out = eo.position_update(np.array([0.6]), np.array([0.2]), np.array([0.4]),
                                 0.5, 1.0, 0.5, 1.0)
        assert abs(out[0] - 0.9) < 1e-9

    def test_clamped_to_unit_box(self):
        # 0.9 + 0.8*(0.9-0.4) + 0 = 1.3 -> clamp to 1.0
        out = eo.position_update(np.array([0.9]), None, np.array([0.4]), 0.8, 1.0, 0.5, 1.0)
        assert out[0] == 1.0
        out = eo.position_update(np.array([0.1]), None, np.array([0.9]), 0.9, 1.0, 0.5, 1.0)
        assert out[0] == 0.0


class TestRunEo:
    def test_planted_mask_recovery(self):
        dim = 20
        wins = 0
        for seed in range(10):
            planted = np.random.default_rng(1000 + seed).random(dim) >= 0.5
            seen = Counter()

            def fitness(mask):
                seen[mask.tobytes()] += 1
                return float(np.sum(mask != planted))

            res = eo.run_eo(dim, fitness, eo.EoConfig(n_particles=20, max_iter=100, seed=seed))
            assert max(seen.values()) == 1  # each distinct mask is scored once
            assert res.history == sorted(res.history, reverse=True)
            if res.best_fitness == 0.0:
                wins += 1
                np.testing.assert_array_equal(res.best_mask, planted)
        assert wins >= 9

    def test_sphere_diagnostic_mode(self):
        fitness = lambda pos: float(np.sum((pos - 0.5) ** 2))
        res = eo.run_eo(10, fitness, eo.EoConfig(n_particles=100, max_iter=200, seed=0),
                        binarize_position=False)
        assert res.best_fitness < 1e-2

    def test_best_ever_monotone_and_bounded_positions(self):
        rng_target = np.random.default_rng(7).random(8) >= 0.5
        fitness = lambda mask: float(np.sum(mask != rng_target))
        cfg = eo.EoConfig(n_particles=8, max_iter=30, seed=11)
        state = eo.initialize(8, cfg, np.random.default_rng(11))
        for p in state.particles:
            p.fitness = eo.evaluate_fitness(p, fitness)
        eo.update_pool(state)
        rng = np.random.default_rng(12)
        for _ in range(30):
            eo.step(state, fitness, rng)
            for p in state.particles:
                assert np.all(p.position >= 0.0) and np.all(p.position <= 1.0)

    def test_bit_reproducible(self):
        fitness = lambda mask: float(mask.sum())
        a = eo.run_eo(6, fitness, eo.EoConfig(seed=42, max_iter=20))
        b = eo.run_eo(6, fitness, eo.EoConfig(seed=42, max_iter=20))
        assert a.best_fitness == b.best_fitness
        assert a.history == b.history
        np.testing.assert_array_equal(a.best_mask, b.best_mask)


class TestProbeFitness:
    def test_informative_columns_win(self):
        rng = np.random.default_rng(13)
        n, d = 40, 6
        feats = rng.normal(size=(n, d))
        y = 2.0 * feats[:, 0] - 1.5 * feats[:, 2] + 0.01 * rng.normal(size=n)
        fit = eo.make_probe_fitness(feats, y, train_idx=range(30), val_idx=range(30, 40))
        good = np.array([True, False, True, False, False, False])
        bad = np.array([False, True, False, True, True, False])
        assert fit(good) < fit(bad)

    def test_sparsity_penalty_breaks_ties(self):
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(30, 4))
        y = feats[:, 0].copy()
        fit = eo.make_probe_fitness(feats, y, range(20), range(20, 30),
                                    ridge=1e-9, sparsity_weight=0.01)
        lean = np.array([True, False, False, False])
        padded = np.array([True, True, True, True])
        assert fit(lean) < fit(padded) + 1e-6
