import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalevo import goal_net
from goalevo.configio import ConfigError
from goalevo.env import hard_scenario, observation_size
from goalevo.goal_net import ConnGene, Genome, NodeGene, genome_to_text
from goalevo.neat import (EvalResult, EvolutionConfig, InnovationRegistry,
                          _mutate_add_node, compatibility_distance, crossover,
                          evaluate, evolve_against, initial_genome, mutate)
from goalevo.predictor import PredictorNet

from conftest import make_scenario


ZERO_RATES = dict(add_connection_rate=0.0, delete_connection_rate=0.0,
                  add_node_rate=0.0, delete_node_rate=0.0,
                  weight_mutate_rate=0.0, weight_replace_rate=0.0)


def surrogate_fitness(genome, gen_seed):
    """Sum of goal outputs at input (0.5, 0.5, 0.5); optimum 3 by saturation."""
    out = goal_net.activate(goal_net.decode(genome), np.array([0.5, 0.5, 0.5]))
    total = float(out.sum())
    return EvalResult([total], total, out, 1)


# -- config ------------------------------------------------------------------


def test_defaults_match_documented_parameters():
    cfg = EvolutionConfig()
    assert cfg.population_size == 50
    assert cfg.generations == 100
    assert cfg.population_size * cfg.generations == 5000
    assert cfg.add_connection_rate == 0.15
    assert cfg.delete_connection_rate == 0.1
    assert cfg.add_node_rate == 0.15
    assert cfg.delete_node_rate == 0.1
    assert cfg.weight_mutate_rate == 0.8
    assert cfg.weight_replace_rate == 0.02
    assert cfg.episodes_per_eval == 8
    assert (cfg.weight_min, cfg.weight_max) == (-30.0, 30.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        EvolutionConfig(population_size=1)
    with pytest.raises(ConfigError):
        EvolutionConfig(survival_fraction=0.0)
    with pytest.raises(ConfigError):
        EvolutionConfig(weight_min=5.0, weight_max=-5.0)
    with pytest.raises(ConfigError):
        EvolutionConfig(elitism=-1)
    with pytest.raises(ConfigError):
        EvolutionConfig(n_workers=-3)
    EvolutionConfig(elitism=0, n_workers=0)
    # the ends of the rate, sigma and coefficient ranges are accepted
    EvolutionConfig(**ZERO_RATES, weight_perturb_sigma=0.0, c_excess=0.0,
                    c_disjoint=0.0, c_weight=0.0)
    EvolutionConfig(**{name: 1.0 for name in ZERO_RATES},
                    compatibility_threshold=1e-9)


# -- genomes and registry -------------------------------------------------------


def test_initial_genome_fully_connected(registry, rng):
    g = initial_genome(rng, registry, key=0)
    assert sorted(g.nodes) == [0, 1, 2, 3, 4, 5]
    assert len(g.conns) == 9
    pairs = {(c.src, c.dst) for c in g.conns.values()}
    assert pairs == {(s, d) for s in (0, 1, 2) for d in (3, 4, 5)}
    assert all(abs(c.weight) <= 30.0 for c in g.conns.values())


def test_registry_reuses_innovation_numbers(registry):
    first = registry.connection_id(0, 4)
    assert registry.connection_id(0, 4) == first
    second = registry.connection_id(1, 4)
    assert second > first  # fresh numbers strictly increase


def test_registry_draws_innovations_and_node_ids_from_one_sequence(registry):
    innov = registry.connection_id(0, 3)
    node = registry.fresh_node_id()
    split = registry.split_node_id(innov)
    assert innov == max(goal_net.OUTPUT_IDS) + 1
    assert innov < node < split
    assert registry.split_node_id(innov) == split
    assert registry.connection_id(split, 3) > split


def test_same_structural_change_shares_numbers_across_genomes(registry, rng):
    def minimal():
        nodes = {0: NodeGene(0, 0.0, "in"), 1: NodeGene(1, 0.0, "in"),
                 2: NodeGene(2, 0.0, "in"), 3: NodeGene(3, 0.0, "out"),
                 4: NodeGene(4, 0.0, "out"), 5: NodeGene(5, 0.0, "out")}
        innov = registry.connection_id(0, 3)
        return Genome(nodes=nodes,
                      conns={innov: ConnGene(innov, 0, 3, 2.5, True)})

    a, b = minimal(), minimal()
    _mutate_add_node(a, rng, registry)
    _mutate_add_node(b, rng, registry)
    assert sorted(a.conns) == sorted(b.conns)
    assert sorted(a.nodes) == sorted(b.nodes)


def test_add_node_split_structure(registry, rng):
    g = initial_genome(rng, registry, key=0)
    target = g.conns[sorted(g.conns)[0]]
    src, dst, weight = target.src, target.dst, target.weight
    single = Genome(nodes=dict(g.nodes),
                    conns={target.innovation: dataclasses.replace(target)})
    _mutate_add_node(single, rng, registry)
    old = single.conns[target.innovation]
    assert old.enabled is False
    new_nodes = [n for n in single.nodes.values() if n.kind == "hidden"]
    assert len(new_nodes) == 1
    nid = new_nodes[0].id
    in_conn = [c for c in single.conns.values() if c.dst == nid]
    out_conn = [c for c in single.conns.values() if c.src == nid]
    assert len(in_conn) == 1 and in_conn[0].src == src and in_conn[0].weight == 1.0
    assert len(out_conn) == 1 and out_conn[0].dst == dst
    assert out_conn[0].weight == weight


def test_zero_rate_mutation_leaves_genome_unchanged(registry, rng):
    cfg = EvolutionConfig(**ZERO_RATES)
    g = initial_genome(rng, registry, key=0)
    before = genome_to_text(g)
    after = mutate(g, cfg, rng, registry)
    assert genome_to_text(after) == before


def test_weight_replacement_spans_full_range(registry, rng):
    cfg = EvolutionConfig(**{**ZERO_RATES, "weight_replace_rate": 1.0})
    g = initial_genome(rng, registry, key=0)
    draws = []
    for _ in range(1200):  # 1200 mutations x 9 weights > 10k draws
        g2 = mutate(g, cfg, rng, registry)
        draws.extend(c.weight for c in g2.conns.values())
    draws = np.array(draws)
    assert len(draws) > 10_000
    assert draws.min() >= -30.0 and draws.max() <= 30.0
    assert draws.min() < -28.0 and draws.max() > 28.0  # actually spans the range
    assert np.abs(draws.mean()) < 1.0


def test_perturbation_clips_to_weight_range(registry, rng):
    cfg = EvolutionConfig(**{**ZERO_RATES, "weight_mutate_rate": 1.0,
                             "weight_perturb_sigma": 50.0})
    g = initial_genome(rng, registry, key=0)
    for _ in range(50):
        g = mutate(g, cfg, rng, registry)
        assert all(-30.0 <= c.weight <= 30.0 for c in g.conns.values())
        assert all(-30.0 <= n.bias <= 30.0 for n in g.nodes.values())


def test_soundness_under_10k_random_mutations(registry, rng):
    cfg = EvolutionConfig()
    total = 0
    for chain in range(20):
        g = initial_genome(rng, registry, key=chain)
        for _ in range(500):
            g = mutate(g, cfg, rng, registry)
            total += 1
        # acyclic (decode would raise), in-range, unique innovations
        goal_net.decode(g)
        assert all(-30.0 <= c.weight <= 30.0 for c in g.conns.values())
        assert all(-30.0 <= n.bias <= 30.0 for n in g.nodes.values())
        assert sorted(g.nodes)[:6] == [0, 1, 2, 3, 4, 5]
        assert all(c.innovation == i for i, c in g.conns.items())
    assert total == 10_000


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 1.0), st.floats(0.1, 0.5))
def test_mutation_and_crossover_never_make_a_cyclic_genome(
        seed, add_connection_rate, delete_connection_rate):
    """Every genome evolution can build is acyclic over all its connection
    genes, disabled ones included, so ``evaluate`` can always decode it."""
    cfg = EvolutionConfig(add_node_rate=0.5, delete_node_rate=0.3,
                          add_connection_rate=add_connection_rate,
                          delete_connection_rate=delete_connection_rate)
    rng = np.random.default_rng(seed)
    registry = InnovationRegistry()
    pool = [initial_genome(rng, registry, key=i) for i in range(4)]
    for _ in range(200):
        i, j = rng.integers(len(pool), size=2)
        child = pool[i]
        if rng.random() < 0.5:
            pool[i].fitness, pool[j].fitness = rng.normal(size=2)
            child = crossover(pool[i], pool[j], rng)
        child = mutate(child, cfg, rng, registry)
        assert all(c.src in child.nodes and c.dst in child.nodes
                   for c in child.conns.values())
        every_gene = child.copy()
        for c in every_gene.conns.values():
            c.enabled = True
        goal_net.decode(every_gene)  # raises GenomeCycleError on a cycle
        goal_net.decode(child)
        pool[i] = child


# -- crossover -------------------------------------------------------------------


def test_self_crossover_is_identity(registry, rng):
    g = initial_genome(rng, registry, key=0)
    g.fitness = 1.0
    child = crossover(g, g, rng, key=5)
    assert genome_to_text(child) == genome_to_text(g)


def test_crossover_requires_fitness(registry, rng):
    a = initial_genome(rng, registry, key=0)
    b = initial_genome(rng, registry, key=1)
    with pytest.raises(ValueError):
        crossover(a, b, rng)


def test_disjoint_genes_come_from_fitter_parent(registry, rng):
    a = initial_genome(rng, registry, key=0)
    b = initial_genome(rng, registry, key=1)
    # give parent a two extra structural genes
    cfg = EvolutionConfig(**{**ZERO_RATES, "add_node_rate": 1.0})
    a = mutate(a, cfg, rng, registry)
    a.fitness, b.fitness = 2.0, 1.0
    child = crossover(a, b, rng)
    assert sorted(child.conns) == sorted(a.conns)
    assert sorted(child.nodes) == sorted(a.nodes)
    # swap fitness: now the child must mirror b's structure
    a.fitness, b.fitness = 1.0, 2.0
    child = crossover(a, b, rng)
    assert sorted(child.conns) == sorted(b.conns)


def test_fully_disjoint_parents_child_equals_fitter():
    reg_a, reg_b = InnovationRegistry(), InnovationRegistry()
    rng = np.random.default_rng(0)
    a = initial_genome(rng, reg_a, key=0)
    # push b's innovation numbers past a's so gene sets are disjoint
    for _ in range(9):
        reg_b.connection_id(99, reg_b.fresh_node_id())
    b = initial_genome(rng, reg_b, key=1)
    assert not (set(a.conns) & set(b.conns))
    a.fitness, b.fitness = 3.0, 1.0
    child = crossover(a, b, rng)
    assert genome_to_text(child) == genome_to_text(
        dataclasses.replace(a, fitness=None))


def test_matching_gene_inheritance_is_uniform(registry):
    rng = np.random.default_rng(42)
    a = initial_genome(rng, registry, key=0)
    b = a.copy(key=1)
    for c in a.conns.values():
        c.weight = 1.0
    for c in b.conns.values():
        c.weight = -1.0
    a.fitness = b.fitness = 1.0
    n_trials = 10_000
    from_a = 0
    for _ in range(n_trials):
        child = crossover(a, b, rng)
        from_a += sum(1 for c in child.conns.values() if c.weight == 1.0)
    total = n_trials * 9
    p_hat = from_a / total
    sigma = math.sqrt(0.25 / total)
    assert abs(p_hat - 0.5) < 4 * sigma


# -- compatibility distance -------------------------------------------------------


def test_identical_genomes_distance_zero(registry, rng):
    g = initial_genome(rng, registry, key=0)
    assert compatibility_distance(g, g.copy(), EvolutionConfig()) == 0.0
    bare = Genome(nodes=dict(g.nodes))  # no connection genes at all
    assert compatibility_distance(bare, bare.copy(), EvolutionConfig()) == 0.0


def test_single_weight_difference_distance():
    nodes = {0: NodeGene(0, 0.0, "in"), 3: NodeGene(3, 0.0, "out")}
    a = Genome(nodes=dict(nodes), conns={0: ConnGene(0, 0, 3, 1.0, True)})
    b = Genome(nodes=dict(nodes), conns={0: ConnGene(0, 0, 3, 3.0, True)})
    cfg = EvolutionConfig(c_excess=1.0, c_disjoint=1.0, c_weight=0.5)
    # one matching gene differing by 2: delta = 0.5 * 2 = 1.0
    assert compatibility_distance(a, b, cfg) == pytest.approx(1.0)


def test_excess_and_disjoint_counting():
    nodes = {0: NodeGene(0, 0.0, "in"), 3: NodeGene(3, 0.0, "out")}

    def genome_with(innovs):
        return Genome(nodes=dict(nodes),
                      conns={i: ConnGene(i, 0, 3, 0.0, True) for i in innovs})

    cfg = EvolutionConfig(c_excess=1.0, c_disjoint=1.0, c_weight=0.0)
    a = genome_with([0, 1, 4])
    b = genome_with([0, 2, 3, 6, 7])
    # matching {0}; disjoint {1,2,3,4}; excess {6,7}; N = 5
    assert compatibility_distance(a, b, cfg) == pytest.approx((2 + 4) / 5
                                                              - 2 / 5 + 2 / 5)


def test_distance_symmetry(registry):
    rng = np.random.default_rng(3)
    cfg = EvolutionConfig()
    genomes = [initial_genome(rng, registry, key=i) for i in range(6)]
    for _ in range(40):
        genomes = [mutate(g, cfg, rng, registry) for g in genomes]
    for a in genomes:
        for b in genomes:
            assert compatibility_distance(a, b, cfg) == pytest.approx(
                compatibility_distance(b, a, cfg))


# -- evaluation --------------------------------------------------------------------


def small_predictor():
    return PredictorNet(observation_size(), offsets=(1, 2), hidden_sizes=(8,),
                        rng=np.random.default_rng(7))


def test_evaluate_runs_requested_episode_count(registry, rng):
    scenario = make_scenario(episode_length=30)
    genome = initial_genome(rng, registry, key=0)
    [result] = evaluate([genome], small_predictor(), scenario, seed=3,
                        episodes_per_eval=8)
    assert len(result.fitnesses) == 8
    assert result.mean_fitness == pytest.approx(np.mean(result.fitnesses))
    assert result.n_steps > 0


def test_evaluate_deterministic(registry, rng):
    scenario = make_scenario(episode_length=30)
    genome = initial_genome(rng, registry, key=0)
    net = small_predictor()
    [r1] = evaluate([genome], net, scenario, seed=5, episodes_per_eval=4)
    [r2] = evaluate([genome], net, scenario, seed=5, episodes_per_eval=4)
    assert r1.fitnesses == r2.fitnesses
    np.testing.assert_array_equal(r1.mean_goal, r2.mean_goal)


def test_evaluate_zero_goal_genome_matches_manual_rollout(registry):
    from goalevo.env import GridBattleEnv, episode_fitness
    from goalevo.policy import NetworkGoal, run_episodes
    from goalevo.seeds import derive_seed

    scenario = make_scenario(episode_length=30)
    nodes = {i: NodeGene(i, 0.0, "in") for i in range(3)}
    nodes.update({i: NodeGene(i, 0.0, "out") for i in range(3, 6)})
    genome = Genome(nodes=nodes, conns={})
    net = small_predictor()
    [result] = evaluate([genome], net, scenario, seed=9, episodes_per_eval=3)
    provider = NetworkGoal(goal_net.decode(genome))
    env = GridBattleEnv(scenario)
    expected = []
    for i in range(3):  # one episode at a time, each the only lane
        for _ in run_episodes([env], [derive_seed(9, i)], net, [provider]):
            pass
        expected.append(episode_fitness(env))
    assert result.fitnesses == expected
    np.testing.assert_array_equal(result.mean_goal, np.zeros(3))


def test_evaluate_gives_each_genome_of_a_block_its_result_alone(registry,
                                                              rng):
    """A block's genomes share one rollout; on ``hard`` their lanes end at
    different steps, and each genome still gets what it gets alone."""
    genomes = [initial_genome(rng, registry, key=k) for k in range(4)]
    for genome in genomes[1:]:
        for _ in range(3):
            _mutate_add_node(genome, rng, registry)
    assert all(any(n.kind == "hidden" for n in g.nodes.values())
               for g in genomes[1:])
    net = small_predictor()
    together = evaluate(genomes, net, hard_scenario(), seed=11,
                        episodes_per_eval=3)
    assert len(together) == len(genomes)
    assert len({r.n_steps for r in together}) > 1
    for genome, result in zip(genomes, together):
        [alone] = evaluate([genome], net, hard_scenario(), seed=11,
                           episodes_per_eval=3)
        assert result.fitnesses == alone.fitnesses
        assert result.mean_fitness == alone.mean_fitness
        assert np.array_equal(result.mean_goal, alone.mean_goal)
        assert result.n_steps == alone.n_steps


def test_evaluate_rejects_a_cyclic_genome():
    nodes = {i: NodeGene(i, 0.0, "in") for i in range(3)}
    nodes.update({i: NodeGene(i, 0.0, "out") for i in range(3, 6)})
    nodes[7] = NodeGene(7, 0.0, "hidden")
    nodes[8] = NodeGene(8, 0.0, "hidden")
    cyclic = Genome(nodes=nodes, conns={
        0: ConnGene(0, 7, 8, 1.0, True),
        1: ConnGene(1, 8, 7, 1.0, True),
        2: ConnGene(2, 8, 3, 1.0, True),
    })
    with pytest.raises(goal_net.GenomeCycleError):
        evaluate([cyclic], small_predictor(), hard_scenario(), seed=0,
                 episodes_per_eval=8)


# -- the evolution loop --------------------------------------------------------------


def test_surrogate_evolution_saturates_quickly():
    cfg = EvolutionConfig(generations=30, n_workers=1)
    for seed in (0, 1, 2):
        result = evolve_against(cfg, surrogate_fitness, seed)
        assert result.best_fitness >= 2.9, f"seed {seed}: {result.best_fitness}"


def test_generation_log_shape_and_counts():
    cfg = EvolutionConfig(population_size=10, generations=7)
    result = evolve_against(cfg, surrogate_fitness, seed=4)
    assert len(result.generations) == 7
    assert result.n_evaluations == 70
    for i, row in enumerate(result.generations):
        assert row.generation == i
        assert row.mean_goal.shape == (3,)
        assert row.best_fitness >= row.mean_fitness - 1e-9
        assert math.isfinite(row.best_fitness)


def test_evolution_reproducible_from_seed():
    cfg = EvolutionConfig(population_size=12, generations=10)
    r1 = evolve_against(cfg, surrogate_fitness, seed=8)
    r2 = evolve_against(cfg, surrogate_fitness, seed=8)
    assert genome_to_text(r1.best_genome) == genome_to_text(r2.best_genome)
    assert [g.best_fitness for g in r1.generations] == \
        [g.best_fitness for g in r2.generations]
    r3 = evolve_against(cfg, surrogate_fitness, seed=9)
    assert [g.best_fitness for g in r3.generations] != \
        [g.best_fitness for g in r1.generations]


def test_elitism_keeps_best_fitness_monotonic_with_fixed_seeds():
    # surrogate_fitness ignores gen_seed, so every generation scores a genome
    # as if its episode seeds were frozen
    cfg = EvolutionConfig(population_size=14, generations=15, elitism=2)
    result = evolve_against(cfg, surrogate_fitness, seed=2)
    series = [g.best_fitness for g in result.generations]
    assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))


def test_extinction_restart_recorded_and_survived():
    def flat_fitness(genome, gen_seed):
        return EvalResult([0.0], 0.0, np.zeros(3), 1)

    cfg = EvolutionConfig(population_size=8, generations=8,
                          stagnation_generations=2)
    result = evolve_against(cfg, flat_fitness, seed=0)
    assert len(result.generations) == 8
    events = ";".join(row.events for row in result.generations)
    assert "extinction_restart" in events
    assert result.best_genome is not None


def test_population_size_is_stable_across_generations():
    seen_sizes = []

    def counting_fitness(genome, gen_seed):
        counting_fitness.count += 1
        return surrogate_fitness(genome, gen_seed)

    counting_fitness.count = 0
    cfg = EvolutionConfig(population_size=9, generations=6)
    evolve_against(cfg, counting_fitness, seed=1)
    assert counting_fitness.count == 9 * 6


TRACED_EVOLVE = """
import numpy as np
import tracer
from goalevo import neat
from goalevo.env import hard_scenario, observation_size
from goalevo.predictor import PredictorNet

recorder = tracer.Recorder()
tracer.install(recorder)
net = PredictorNet(observation_size(), offsets=(1, 2), hidden_sizes=(8,),
                   rng=np.random.default_rng(7))
for workers in (1, 2):
    cfg = neat.EvolutionConfig(population_size=5, generations=2,
                               episodes_per_eval=2, n_workers=workers)
    neat.evolve(cfg, net, hard_scenario(), seed=3)
    print(len(recorder.take()["durations"].get("env.step", [])))
"""


def test_the_benchmark_tracer_counts_the_same_steps_at_any_worker_count():
    """``bench/tracer.py`` ships each pool result's spans back as an
    attribute of what ``_worker_eval`` returns and pops it in ``eval_map``'s
    results, so those must take attributes, serial blocks included. Its
    ``install`` patches the modules for good, so it runs in a subprocess."""
    root = Path(__file__).parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "bench")])
    proc = subprocess.run([sys.executable, "-c", TRACED_EVOLVE],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    serial, pooled = proc.stdout.split()
    assert int(serial) == int(pooled) > 0
