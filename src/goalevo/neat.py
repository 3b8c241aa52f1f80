"""Evolution of goal-network genomes: topology + weight mutation with
innovation tracking, speciation with explicit fitness sharing, and episode
based evaluation against a frozen predictor.

The engine itself (``evolve_against``) only needs a fitness callback, which
keeps surrogate-fitness tests cheap; ``evolve`` wires it to grid-battle
episode fitness and can fan evaluations out over worker processes.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import goal_net
from .configio import ConfigError, bounded, check_bounds
from .env import GridBattleEnv, ScenarioConfig, episode_fitness
from .goal_net import ConnGene, Genome, NodeGene, INPUT_IDS, OUTPUT_IDS
from .policy import NetworkGoal, run_episodes
from .seeds import derive_seed


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = bounded(50, 2)
    generations: int = bounded(100, 1)
    add_connection_rate: float = bounded(0.15, 0.0, 1.0)
    delete_connection_rate: float = bounded(0.1, 0.0, 1.0)
    add_node_rate: float = bounded(0.15, 0.0, 1.0)
    delete_node_rate: float = bounded(0.1, 0.0, 1.0)
    weight_mutate_rate: float = bounded(0.8, 0.0, 1.0)
    weight_replace_rate: float = bounded(0.02, 0.0, 1.0)
    weight_perturb_sigma: float = bounded(1.0, 0.0)
    weight_min: float = -30.0
    weight_max: float = 30.0
    episodes_per_eval: int = bounded(8, 1)
    c_excess: float = bounded(1.0, 0.0)
    c_disjoint: float = bounded(1.0, 0.0)
    c_weight: float = bounded(0.5, 0.0)
    compatibility_threshold: float = bounded(3.0, 0.0, open_lo=True)
    stagnation_generations: int = bounded(15, 1)
    elitism: int = bounded(2, 0)
    survival_fraction: float = bounded(0.2, 0.0, 1.0, open_lo=True)
    n_workers: int = bounded(1, 0)  # 0 = one per CPU

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.weight_min >= self.weight_max:
            raise ConfigError("weight_min must be below weight_max")


class InnovationRegistry:
    """Assigns connection innovation numbers and hidden-node ids from one
    shared sequence that starts at ``max(OUTPUT_IDS) + 1`` and only grows,
    so a fresh number never repeats an input, output or earlier number. The
    same structural change (a ``src -> dst`` connection, or splitting a given
    connection) always maps to the same number."""

    def __init__(self):
        self._conn_ids: dict[tuple[int, int], int] = {}
        self._split_nodes: dict[int, int] = {}
        self._numbers = itertools.count(max(OUTPUT_IDS) + 1)

    def connection_id(self, src: int, dst: int) -> int:
        if (src, dst) not in self._conn_ids:
            self._conn_ids[src, dst] = next(self._numbers)
        return self._conn_ids[src, dst]

    def split_node_id(self, conn_innovation: int) -> int:
        if conn_innovation not in self._split_nodes:
            self._split_nodes[conn_innovation] = next(self._numbers)
        return self._split_nodes[conn_innovation]

    def fresh_node_id(self) -> int:
        return next(self._numbers)


def _clip_weight(value: float, config: EvolutionConfig) -> float:
    return float(min(config.weight_max, max(config.weight_min, value)))


def initial_genome(rng: np.random.Generator, registry: InnovationRegistry,
                   key: int, config: EvolutionConfig = EvolutionConfig()
                   ) -> Genome:
    """Minimal genome: inputs fully connected to outputs, N(0,1) weights."""
    nodes = {i: NodeGene(i, 0.0, goal_net.NODE_INPUT) for i in INPUT_IDS}
    for i in OUTPUT_IDS:
        nodes[i] = NodeGene(i, _clip_weight(rng.normal(0.0, 1.0), config),
                            goal_net.NODE_OUTPUT)
    conns = {}
    for src in INPUT_IDS:
        for dst in OUTPUT_IDS:
            innov = registry.connection_id(src, dst)
            conns[innov] = ConnGene(innov, src, dst,
                                    _clip_weight(rng.normal(0.0, 1.0), config),
                                    True)
    return Genome(nodes=nodes, conns=conns, key=key)


# -- mutation -----------------------------------------------------------------


def _mutate_add_node(genome: Genome, rng: np.random.Generator,
                     registry: InnovationRegistry) -> None:
    enabled = [genome.conns[i] for i in sorted(genome.conns)
               if genome.conns[i].enabled]
    if not enabled:
        return
    conn = enabled[int(rng.integers(len(enabled)))]
    node_id = registry.split_node_id(conn.innovation)
    if node_id in genome.nodes:
        node_id = registry.fresh_node_id()
    conn.enabled = False
    genome.nodes[node_id] = NodeGene(node_id, 0.0, goal_net.NODE_HIDDEN)
    in_innov = registry.connection_id(conn.src, node_id)
    out_innov = registry.connection_id(node_id, conn.dst)
    genome.conns[in_innov] = ConnGene(in_innov, conn.src, node_id, 1.0, True)
    genome.conns[out_innov] = ConnGene(out_innov, node_id, conn.dst,
                                       conn.weight, True)


def _mutate_add_connection(genome: Genome, config: EvolutionConfig,
                           rng: np.random.Generator,
                           registry: InnovationRegistry) -> None:
    sources = sorted(n.id for n in genome.nodes.values()
                     if n.kind != goal_net.NODE_OUTPUT)
    dests = sorted(n.id for n in genome.nodes.values()
                   if n.kind != goal_net.NODE_INPUT)
    existing = {(c.src, c.dst) for c in genome.conns.values()}
    for _ in range(20):
        src = sources[int(rng.integers(len(sources)))]
        dst = dests[int(rng.integers(len(dests)))]
        if (src, dst) in existing:
            continue
        try:  # over every gene, so crossover never resurrects a cycle
            goal_net.topological_order(genome.nodes, [*existing, (src, dst)])
        except goal_net.GenomeCycleError:
            continue
        innov = registry.connection_id(src, dst)
        genome.conns[innov] = ConnGene(
            innov, src, dst, _clip_weight(rng.normal(0.0, 1.0), config), True)
        return


def _mutate_delete_node(genome: Genome, rng: np.random.Generator) -> None:
    hidden = sorted(n.id for n in genome.nodes.values()
                    if n.kind == goal_net.NODE_HIDDEN)
    if not hidden:
        return
    nid = hidden[int(rng.integers(len(hidden)))]
    del genome.nodes[nid]
    for innov in [i for i, c in genome.conns.items()
                  if c.src == nid or c.dst == nid]:
        del genome.conns[innov]


def _mutate_delete_connection(genome: Genome, rng: np.random.Generator) -> None:
    if not genome.conns:
        return
    innov = sorted(genome.conns)[int(rng.integers(len(genome.conns)))]
    del genome.conns[innov]


def _mutate_value(value: float, config: EvolutionConfig,
                  rng: np.random.Generator) -> float:
    """The per-gene rule for weights and biases: replace uniformly in range
    with the replace rate, otherwise gaussian-perturb with the mutate rate."""
    r = rng.random()
    if r < config.weight_replace_rate:
        return float(rng.uniform(config.weight_min, config.weight_max))
    if r < config.weight_replace_rate + config.weight_mutate_rate:
        return _clip_weight(
            value + rng.normal(0.0, config.weight_perturb_sigma), config)
    return value


def mutate(genome: Genome, config: EvolutionConfig, rng: np.random.Generator,
           registry: InnovationRegistry) -> Genome:
    """Mutated copy: structural changes at their configured rates, then the
    per-gene weight/bias rule of ``_mutate_value``."""
    g = genome.copy()
    g.fitness = None
    if rng.random() < config.add_node_rate:
        _mutate_add_node(g, rng, registry)
    if rng.random() < config.delete_node_rate:
        _mutate_delete_node(g, rng)
    if rng.random() < config.add_connection_rate:
        _mutate_add_connection(g, config, rng, registry)
    if rng.random() < config.delete_connection_rate:
        _mutate_delete_connection(g, rng)

    for innov in sorted(g.conns):
        conn = g.conns[innov]
        conn.weight = _mutate_value(conn.weight, config, rng)
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind != goal_net.NODE_INPUT:
            node.bias = _mutate_value(node.bias, config, rng)
    return g


# -- crossover and compatibility ----------------------------------------------


def crossover(parent_a: Genome, parent_b: Genome, rng: np.random.Generator,
              key: int = 0) -> Genome:
    """Child inherits structure from the fitter parent; genes whose innovation
    number matches in both parents are picked from either one uniformly."""
    if parent_a.fitness is None or parent_b.fitness is None:
        raise ValueError("crossover requires evaluated parents")
    if parent_a.fitness >= parent_b.fitness:
        fitter, other = parent_a, parent_b
    else:
        fitter, other = parent_b, parent_a

    nodes = {}
    for nid in sorted(fitter.nodes):
        node = fitter.nodes[nid]
        bias = node.bias
        twin = other.nodes.get(nid)
        if twin is not None and twin.kind == node.kind and rng.random() < 0.5:
            bias = twin.bias
        nodes[nid] = NodeGene(nid, bias, node.kind)

    conns = {}
    for innov in sorted(fitter.conns):
        gene = fitter.conns[innov]
        twin = other.conns.get(innov)
        if twin is not None and rng.random() < 0.5:
            gene = twin
        conns[innov] = replace(gene)
    return Genome(nodes=nodes, conns=conns, key=key)


def compatibility_distance(a: Genome, b: Genome,
                           config: EvolutionConfig) -> float:
    """c_e*E/N + c_d*D/N + c_w*mean matching-weight difference."""
    ia, ib = set(a.conns), set(b.conns)
    matching = ia & ib
    max_a = max(ia) if ia else -1
    max_b = max(ib) if ib else -1
    excess = sum(1 for i in ia if i > max_b) + sum(1 for i in ib if i > max_a)
    disjoint = len(ia ^ ib) - excess
    if matching:
        w_bar = sum(abs(a.conns[i].weight - b.conns[i].weight)
                    for i in matching) / len(matching)
    else:
        w_bar = 0.0
    n = max(len(ia), len(ib), 1)
    return (config.c_excess * excess / n + config.c_disjoint * disjoint / n
            + config.c_weight * w_bar)


# -- evaluation ---------------------------------------------------------------


@dataclass
class EvalResult:
    """Fitness samples from repeated episodes plus goal-output logging."""

    fitnesses: list[float]
    mean_fitness: float
    mean_goal: np.ndarray  # per-step mean of the 3 goal outputs
    n_steps: int


def evaluate(genomes: list[Genome], predictor, scenario: ScenarioConfig,
             seed: int, episodes_per_eval: int = EvolutionConfig.episodes_per_eval,
             horizon_weights=None) -> list[EvalResult]:
    """Run each genome's goal network over full episodes with the frozen
    predictor, all genomes' episodes as lanes of one rollout; episode seeds
    derive from (seed, episode index) so every genome given the same seed
    faces the same worlds. One result per genome, in order."""
    n = episodes_per_eval
    goals = [NetworkGoal(goal_net.decode(g)) for g in genomes]
    envs = [GridBattleEnv(scenario) for _ in range(len(genomes) * n)]
    # each episode's goals are summed first, then the episodes in order: the
    # logged mean goal depends on that order, bit for bit
    episode_sums = np.zeros((len(envs), 3))
    for lanes in run_episodes(
            envs, [derive_seed(seed, i) for i in range(n)] * len(genomes),
            predictor, [p for p in goals for _ in range(n)], horizon_weights):
        for i, _, _, g, _ in lanes:
            episode_sums[i] += g
    fits = [episode_fitness(env) for env in envs]
    steps = [env.steps for env in envs]
    blocks = [slice(k, k + n) for k in range(0, len(envs), n)]
    return [EvalResult(fits[b], float(np.mean(fits[b])),
                       sum(episode_sums[b], np.zeros(3)) / sum(steps[b]),
                       sum(steps[b])) for b in blocks]


# -- the generational loop ------------------------------------------------------


@dataclass
class _Species:
    representative: Genome
    members: list[Genome] = field(default_factory=list)
    best_fitness: float = -math.inf
    last_improved: int = 0


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    mean_goal: np.ndarray
    events: str = ""


@dataclass
class EvolutionResult:
    best_genome: Genome
    best_fitness: float
    generations: list[GenerationStats]
    n_evaluations: int = 0


def _speciate(population, species_list, config, rng):
    for s in species_list:
        s.members = []
    for genome in population:
        for s in species_list:
            if compatibility_distance(genome, s.representative,
                                      config) < config.compatibility_threshold:
                s.members.append(genome)
                break
        else:
            species_list.append(_Species(genome.copy(), members=[genome]))
    species_list[:] = [s for s in species_list if s.members]
    for s in species_list:
        s.representative = s.members[int(rng.integers(len(s.members)))].copy()


def _allocate_offspring(species_list, total, pop_min):
    scores = []
    for s in species_list:
        shifted = [m.fitness - pop_min for m in s.members]
        scores.append(sum(shifted) / len(s.members))  # explicit sharing
    score_sum = sum(scores)
    if score_sum <= 0:
        scores = [1.0] * len(species_list)
        score_sum = float(len(species_list))
    raw = [total * sc / score_sum for sc in scores]
    counts = [int(math.floor(r)) for r in raw]
    shortfall = total - sum(counts)
    remainders = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i),
                        reverse=True)
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


def _reproduce(species_list, config, rng, registry, key_counter):
    next_pop: list[Genome] = []
    pop_min = min(m.fitness for s in species_list for m in s.members)
    for s in species_list:
        s.members.sort(key=lambda g: (-g.fitness, g.key))
        for elite in s.members[:config.elitism]:
            next_pop.append(elite.copy(key=next(key_counter)))
    next_pop = next_pop[:config.population_size]

    remaining = config.population_size - len(next_pop)
    counts = _allocate_offspring(species_list, remaining, pop_min)
    for s, count in zip(species_list, counts):
        pool = s.members[:max(1, math.ceil(config.survival_fraction
                                           * len(s.members)))]
        for _ in range(count):
            pa = pool[int(rng.integers(len(pool)))]
            pb = pool[int(rng.integers(len(pool)))]
            child = crossover(pa, pb, rng, key=0)
            next_pop.append(mutate(child, config, rng, registry)
                            .copy(key=next(key_counter)))
    return next_pop


def evolve_against(config: EvolutionConfig, fitness_fn, seed: int,
                   eval_map=None, progress=None) -> EvolutionResult:
    """Generic generational loop over any fitness function.

    ``fitness_fn(genome, gen_seed) -> EvalResult``; ``eval_map(genomes,
    gen_seed)`` may take its place and evaluate a whole population at once
    (e.g. over a process pool), returning the results as consecutive blocks
    in population order.
    """
    rng = np.random.default_rng(derive_seed(seed, 11))
    registry = InnovationRegistry()
    key_counter = itertools.count()
    population = [initial_genome(rng, registry, next(key_counter), config)
                  for _ in range(config.population_size)]
    species_list: list[_Species] = []

    best_genome: Genome | None = None
    best_fitness = -math.inf
    log: list[GenerationStats] = []
    n_evaluations = 0

    for gen in range(config.generations):
        gen_seed = derive_seed(seed, gen, 23)
        if eval_map is not None:
            results = [r for block in eval_map(population, gen_seed)
                       for r in block]
        else:
            results = [fitness_fn(g, gen_seed) for g in population]
        n_evaluations += len(population)
        for genome, result in zip(population, results):
            genome.fitness = result.mean_fitness

        gen_best = min(population, key=lambda g: (-g.fitness, g.key))
        if gen_best.fitness > best_fitness:
            best_fitness = gen_best.fitness
            best_genome = gen_best.copy()

        mean_goal = sum((r.mean_goal * r.n_steps for r in results),
                        np.zeros(3)) / sum(r.n_steps for r in results)
        events = []

        _speciate(population, species_list, config, rng)
        for s in species_list:
            current = max(m.fitness for m in s.members)
            if current > s.best_fitness:
                s.best_fitness = current
                s.last_improved = gen
        kept = [s for s in species_list
                if gen - s.last_improved < config.stagnation_generations]
        if len(kept) < len(species_list):
            events.append(f"removed_stagnant={len(species_list) - len(kept)}")
            species_list = kept

        if not species_list:
            events.append("extinction_restart")
            population = [best_genome.copy(key=next(key_counter))]
            while len(population) < config.population_size:
                population.append(mutate(best_genome, config, rng, registry)
                                  .copy(key=next(key_counter)))
        else:
            population = _reproduce(species_list, config, rng, registry,
                                    key_counter)

        stats = GenerationStats(gen, gen_best.fitness,
                                float(np.mean([r.mean_fitness for r in results])),
                                mean_goal, ";".join(events))
        log.append(stats)
        if progress is not None:
            progress(stats)

    return EvolutionResult(best_genome, best_fitness, log, n_evaluations)


# -- parallel evaluation over processes ----------------------------------------


class _Block(list):
    """One block's results: a list that takes attributes."""


_WORKER_CTX: dict = {}


def _worker_eval(item):
    return _WORKER_CTX["evaluate_block"](*item)


def evolve(config: EvolutionConfig, predictor, scenario: ScenarioConfig,
           seed: int, horizon_weights=None, progress=None) -> EvolutionResult:
    """Evolve goal networks against grid-battle episode fitness with the
    predictor frozen; a generation is evaluated as one contiguous block of
    genomes per worker, its episodes played as lanes of one rollout."""
    workers = config.n_workers or os.cpu_count() or 1

    def evaluate_block(genomes, gen_seed):
        return _Block(evaluate(genomes, predictor, scenario, gen_seed,
                               config.episodes_per_eval, horizon_weights))

    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return evolve_against(config, None, seed, progress=progress,
                              eval_map=lambda *item: [evaluate_block(*item)])

    # forked workers inherit the closure, so it is never pickled
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_WORKER_CTX.update,
            initargs=({"evaluate_block": evaluate_block},)) as pool:
        def eval_map(genomes, gen_seed):  # sizes differ by at most one
            ends = [len(genomes) * k // workers for k in range(workers + 1)]
            return pool.map(_worker_eval, [(genomes[a:b], gen_seed) for a, b
                                           in zip(ends, ends[1:])], chunksize=1)

        return evolve_against(config, None, seed, eval_map=eval_map,
                              progress=progress)
