import itertools
import math
from collections import Counter

import numpy as np
import pytest

from cropyield import eo
from cropyield.errors import DomainError
from cropyield.fileio import rng_for


def reference_run_eo(dim, fitness_fn, *, max_iter, seed):
    """Particle-object form of ``run_eo``: one position vector and one fitness
    for each of ``eo.N_PARTICLES`` particles, moved and scored one particle at a time, the pool sorted by
    (fitness, index). ``eo.run_eo`` must reproduce it bit for bit."""
    scores = {}

    def evaluate(position):
        mask = position >= 0.5
        if not mask.any():
            return math.inf
        key = mask.tobytes()
        if key not in scores:
            scores[key] = fitness_fn(mask)
        return float(scores[key])

    rng = rng_for(seed, "eo")
    particles = [{"pos": rng.random(dim), "prev": None} for _ in range(eo.N_PARTICLES)]
    for p in particles:
        p["fit"] = evaluate(p["pos"])

    def pool():
        order = sorted(range(len(particles)), key=lambda i: (particles[i]["fit"], i))[:4]
        return order, np.mean([particles[i]["pos"] for i in order], axis=0)

    order, p_avg = pool()
    best_fitness = particles[order[0]]["fit"]
    best_mask = particles[order[0]]["pos"] >= 0.5
    history = [best_fitness]
    for _ in range(max_iter):
        for p in particles:
            delta = rng.random()
            signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
            new = eo.position_update(p["pos"], p["prev"], p_avg, delta, signs, eo.ALPHA, eo.LAM)
            p["prev"], p["pos"] = p["pos"], new
            p["fit"] = evaluate(new)
        order, p_avg = pool()
        cand = particles[order[0]]
        if cand["fit"] < best_fitness:
            best_fitness, best_mask = cand["fit"], cand["pos"] >= 0.5
        history.append(best_fitness)
    return eo.EoResult(best_mask=best_mask, best_fitness=best_fitness, history=history)


def recording(fitness_fn):
    """Wrap a fitness function; the wrapper keeps every mask it is given."""
    seen = []

    def fn(mask):
        assert mask.dtype == bool and mask.any(), "fitness_fn was given an empty mask"
        seen.append(mask.copy())
        return fitness_fn(mask)

    return fn, seen


def initial_masks(dim, seed):
    return rng_for(seed, "eo").random((eo.N_PARTICLES, dim)) >= 0.5


class TestInitialize:
    def test_positions_in_unit_box(self, monkeypatch):
        # the initial population is one uniform draw over [0,1)^(n x dim),
        # scored in particle order
        monkeypatch.setattr(eo, "N_PARTICLES", 8)
        fn, seen = recording(lambda m: float(m.sum()))
        eo.run_eo(5, fn, max_iter=0, seed=4)
        expected = []
        for mask in initial_masks(5, seed=4):
            if mask.any() and not any(np.array_equal(mask, m) for m in expected):
                expected.append(mask)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            np.testing.assert_array_equal(got, want)

    def test_same_seed_identical_population(self):
        fa, seen_a = recording(lambda m: float(m.sum()))
        fb, seen_b = recording(lambda m: float(m.sum()))
        eo.run_eo(7, fa, max_iter=0, seed=3)
        eo.run_eo(7, fb, max_iter=0, seed=3)
        assert len(seen_a) == len(seen_b) > 0
        for a, b in zip(seen_a, seen_b):
            np.testing.assert_array_equal(a, b)

    def test_shape_contract(self, monkeypatch):
        monkeypatch.setattr(eo, "N_PARTICLES", 4)
        fn, seen = recording(lambda m: float(m.sum()))
        res = eo.run_eo(5, fn, max_iter=0, seed=1)
        assert 1 <= len(seen) <= 4
        assert all(m.shape == (5,) for m in seen)
        assert res.best_mask.shape == (5,) and res.best_mask.dtype == bool
        assert res.history == [res.best_fitness]

    def test_empty_dimension_rejected(self):
        with pytest.raises(DomainError):
            eo.run_eo(0, lambda m: 0.0, max_iter=0, seed=0)


class TestFitness:
    def test_high_positions_full_mask(self):
        # rewarding every selected coordinate drives all positions above 0.5
        res = eo.run_eo(6, lambda m: -float(m.sum()), max_iter=30, seed=2)
        assert res.best_fitness == -6.0
        assert res.best_mask.all()

    def test_low_positions_empty_mask_penalized(self, monkeypatch):
        # one coordinate: a particle below 0.5 has the empty mask, which
        # scores inf without a call; seed 63 starts every particle there
        monkeypatch.setattr(eo, "N_PARTICLES", 4)
        assert not initial_masks(1, seed=63).any()
        fn, seen = recording(lambda m: 0.0)
        res = eo.run_eo(1, fn, max_iter=0, seed=63)
        assert seen == []
        assert res.best_fitness == math.inf and res.history == [math.inf]
        assert not res.best_mask.any()
        # later iterations leave the empty mask and never score it
        fn, seen = recording(lambda m: 0.0)
        res = eo.run_eo(1, fn, max_iter=50, seed=63)
        assert res.best_fitness == 0.0 and res.best_mask.all()
        assert len(seen) == 1

    def test_hamming_oracle(self):
        planted = np.array([True, False, True, False, True, True, False, False])
        res = eo.run_eo(8, lambda m: float(np.sum(m != planted)), max_iter=40, seed=9)
        assert res.best_fitness == float(np.sum(res.best_mask != planted)) == 0.0


class TestPool:
    def test_identical_particles_average(self):
        shared = np.array([0.2, 0.6, 0.8])
        pool, p_avg = eo.equilibrium_pool(np.tile(shared, (4, 1)), np.ones(4))
        assert sorted(pool.tolist()) == [0, 1, 2, 3]
        np.testing.assert_array_equal(p_avg, shared)

    def test_pool_fitnesses_ascending(self):
        fits = np.array([5.0, 2.0, 8.0, 1.0, 9.0, 3.0])
        pos = np.random.default_rng(5).random((6, 3))
        pool, p_avg = eo.equilibrium_pool(pos, fits)
        assert pool.tolist() == [3, 1, 5, 0]
        assert fits[pool].tolist() == sorted(fits[pool].tolist())
        np.testing.assert_array_equal(p_avg, pos[[3, 1, 5, 0]].mean(axis=0))

    def test_value_then_index_order(self, monkeypatch):
        # every non-empty mask ties, so the pool and the best mask go by index:
        # the best mask stays the first particle's with a non-empty mask
        monkeypatch.setattr(eo, "N_PARTICLES", 10)
        cfg = dict(max_iter=20, seed=6)
        res = eo.run_eo(4, lambda m: 1.0, **cfg)
        first = next(m for m in initial_masks(4, seed=6) if m.any())
        np.testing.assert_array_equal(res.best_mask, first)
        ref = reference_run_eo(4, lambda m: 1.0, **cfg)
        np.testing.assert_array_equal(res.best_mask, ref.best_mask)


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

    def test_population_form_matches_rows_bitwise(self):
        rng = np.random.default_rng(8)
        pos, prev, p_avg = rng.random((6, 5)), rng.random((6, 5)), rng.random(5)
        delta = rng.random((6, 1))
        signs = np.where(rng.random((6, 5)) < 0.5, -1.0, 1.0)
        for before in (None, prev):
            whole = eo.position_update(pos, before, p_avg, delta, signs, 0.5, 1.3)
            for i in range(6):
                row = eo.position_update(pos[i], None if before is None else before[i],
                                         p_avg, float(delta[i, 0]), signs[i], 0.5, 1.3)
                assert whole[i].tobytes() == row.tobytes()


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

            res = eo.run_eo(dim, fitness, max_iter=100, seed=seed)
            assert max(seen.values()) == 1  # each distinct mask is scored once
            assert res.history == sorted(res.history, reverse=True)
            if res.best_fitness == 0.0:
                wins += 1
                np.testing.assert_array_equal(res.best_mask, planted)
        assert wins >= 9

    def test_best_ever_monotone_and_bounded_positions(self, monkeypatch):
        monkeypatch.setattr(eo, "N_PARTICLES", 8)
        target = np.random.default_rng(7).random(8) >= 0.5
        fn, seen = recording(lambda mask: float(np.sum(mask != target)))
        res = eo.run_eo(8, fn, max_iter=30, seed=11)
        assert len(res.history) == 31
        assert res.history == sorted(res.history, reverse=True)
        assert res.best_fitness == res.history[-1] == min(np.sum(m != target) for m in seen)
        # the population update keeps every position in the unit box
        rng = np.random.default_rng(12)
        pos, prev = rng.random((8, 8)), None
        for _ in range(30):
            draws = rng.random((8, 9)) * 3.0
            signs = np.where(rng.random((8, 8)) < 0.5, -1.0, 1.0)
            pos, prev = eo.position_update(pos, prev, pos[:4].mean(axis=0), draws[:, :1],
                                           signs, 0.5, 1.0), pos
            assert np.all(pos >= 0.0) and np.all(pos <= 1.0)

    def test_bit_reproducible(self):
        fitness = lambda mask: float(mask.sum())
        a = eo.run_eo(6, fitness, seed=42, max_iter=20)
        b = eo.run_eo(6, fitness, seed=42, max_iter=20)
        assert a.best_fitness == b.best_fitness
        assert a.history == b.history
        np.testing.assert_array_equal(a.best_mask, b.best_mask)


def _probe_problem(dim, seed):
    """A ridge-probe selection problem: 3 informative columns (or all) among ``dim``."""
    rng = np.random.default_rng(500 + seed)
    feats = rng.normal(size=(40, dim))
    cols = rng.choice(dim, size=min(3, dim), replace=False)
    y = feats[:, cols] @ rng.normal(size=cols.size) + 0.5 * rng.normal(size=40)
    return eo.make_probe_fitness(feats, y, range(30), range(30, 40))


class TestReference:
    """``run_eo`` against the particle-object form, bit for bit."""

    FITNESS = {
        "hamming": lambda planted, seed: lambda m: float(np.sum(m != planted)),
        # few distinct values: most masks tie with others
        "tied": lambda planted, seed: lambda m: float(np.sum(m & planted) % 3),
        # the full mask is worst, so particles crowd the low corner and
        # many masks come out empty
        "sparse": lambda planted, seed: lambda m: float(m.sum()) + 0.5 * float(np.sum(m != planted)),
        "probe": lambda planted, seed: _probe_problem(planted.size, seed),
    }

    @pytest.mark.parametrize("kind", sorted(FITNESS))
    def test_identical_to_particle_objects(self, kind, monkeypatch):
        rng = np.random.default_rng(sorted(self.FITNESS).index(kind))
        for _ in range(10):
            dim = int(rng.integers(1, 13))
            monkeypatch.setattr(eo, "N_PARTICLES", int(rng.integers(4, 16)))
            cfg = dict(max_iter=int(rng.integers(0, 30)), seed=int(rng.integers(0, 10_000)))
            fitness = self.FITNESS[kind](rng.random(dim) >= 0.5, cfg["seed"])
            fn, seen = recording(fitness)
            got = eo.run_eo(dim, fn, **cfg)
            want = reference_run_eo(dim, fitness, **cfg)
            assert got.history == want.history
            assert all(type(v) is float for v in got.history + [got.best_fitness])
            assert got.best_fitness == want.best_fitness
            np.testing.assert_array_equal(got.best_mask, want.best_mask)
            assert len({m.tobytes() for m in seen}) == len(seen)  # each mask scored once


def _planted_probe(seed):
    """A 12-feature ridge-probe problem from generator ``seed``: 4 planted
    columns, noise 0.3, 40 train and 12 val rows."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(52, 12))
    cols = rng.choice(12, size=4, replace=False)
    y = feats[:, cols] @ rng.normal(size=4) + 0.3 * rng.normal(size=52)
    return eo.make_probe_fitness(feats, y, range(40), range(40, 52))


class TestExhaustiveOracle:
    def test_reaches_the_optimum_on_dim_10_probes(self):
        dim = 10
        masks = [np.array(bits, dtype=bool)
                 for bits in itertools.product((False, True), repeat=dim) if any(bits)]
        hits = 0
        for seed in range(10):
            fitness = _probe_problem(dim, seed)
            optimum = min(fitness(m) for m in masks)
            res = eo.run_eo(dim, fitness, max_iter=100, seed=seed)
            assert res.best_fitness >= optimum
            hits += res.best_fitness == optimum
        assert hits >= 9

    def test_never_beats_the_optimum_of_12_feature_probes(self):
        # seeds 1-8 as drawn, none chosen: EO reached the optimum of 7 of
        # them when this test was written, and missed seed 8 by 8.8e-4
        masks = [np.array(bits, dtype=bool)
                 for bits in itertools.product((False, True), repeat=12) if any(bits)]
        hits = 0
        for seed in range(1, 9):
            fitness = _planted_probe(seed)
            optimum = min(fitness(m) for m in masks)
            res = eo.run_eo(12, fitness, max_iter=100, seed=seed)
            assert res.best_fitness >= optimum
            assert res.best_fitness == fitness(res.best_mask)
            hits += res.best_fitness == optimum
        assert hits >= 7


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

    def test_sparsity_penalty_breaks_ties(self, monkeypatch):
        monkeypatch.setattr(eo, "PROBE_RIDGE", 1e-9)
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(30, 4))
        y = feats[:, 0].copy()
        fit = eo.make_probe_fitness(feats, y, range(20), range(20, 30))
        lean = np.array([True, False, False, False])
        padded = np.array([True, True, True, True])
        assert fit(lean) < fit(padded) + 1e-6
