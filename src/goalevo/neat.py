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
from .configio import ConfigError
from .env import GridBattleEnv, ScenarioConfig, episode_fitness
from .goal_net import (ConnGene, Genome, GenomeCycleError, NodeGene,
                       INPUT_IDS, OUTPUT_IDS)
from .seeds import derive_seed


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 50
    generations: int = 100
    add_connection_rate: float = 0.15
    delete_connection_rate: float = 0.1
    add_node_rate: float = 0.15
    delete_node_rate: float = 0.1
    weight_mutate_rate: float = 0.8
    weight_replace_rate: float = 0.02
    weight_perturb_sigma: float = 1.0
    weight_min: float = -30.0
    weight_max: float = 30.0
    episodes_per_eval: int = 8
    c_excess: float = 1.0
    c_disjoint: float = 1.0
    c_weight: float = 0.5
    compatibility_threshold: float = 3.0
    stagnation_generations: int = 15
    elitism: int = 2
    survival_fraction: float = 0.2
    n_workers: int = 1  # 0 = one per CPU

    def validate(self) -> None:
        if self.population_size < 2 or self.generations < 1:
            raise ConfigError("population_size >= 2 and generations >= 1 required")
        if self.weight_min >= self.weight_max:
            raise ConfigError("weight_min must be below weight_max")
        if not (0.0 < self.survival_fraction <= 1.0):
            raise ConfigError("survival_fraction must be in (0, 1]")
        if self.episodes_per_eval < 1:
            raise ConfigError("episodes_per_eval must be >= 1")
        if self.elitism < 0:
            raise ConfigError("elitism must be >= 0")
        if self.n_workers < 0:
            raise ConfigError("n_workers must be >= 0 (0 = one per CPU)")


class InnovationRegistry:
    """Assigns connection innovation numbers and hidden-node ids from one
    shared sequence that starts at ``max(OUTPUT_IDS) + 1`` and only grows,
    so a fresh number never repeats an input, output or earlier number. The
    same structural change (a ``src -> dst`` connection, or splitting a given
    connection) always maps to the same number."""

    def __init__(self):
        self._conn_ids: dict[tuple[int, int], int] = {}
        self._split_nodes: dict[int, int] = {}
        self._next = max(OUTPUT_IDS) + 1

    def _fresh(self) -> int:
        number = self._next
        self._next += 1
        return number

    def connection_id(self, src: int, dst: int) -> int:
        key = (src, dst)
        innov = self._conn_ids.get(key)
        if innov is None:
            innov = self._conn_ids[key] = self._fresh()
        return innov

    def split_node_id(self, conn_innovation: int) -> int:
        nid = self._split_nodes.get(conn_innovation)
        if nid is None:
            nid = self._split_nodes[conn_innovation] = self._fresh()
        return nid

    def fresh_node_id(self) -> int:
        return self._fresh()


def _clip_weight(value: float, config: EvolutionConfig) -> float:
    return float(min(config.weight_max, max(config.weight_min, value)))


def initial_genome(rng: np.random.Generator, registry: InnovationRegistry,
                   key: int, config: EvolutionConfig | None = None) -> Genome:
    """Minimal genome: inputs fully connected to outputs, N(0,1) weights."""
    if config is None:
        config = EvolutionConfig()
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


def _creates_cycle(genome: Genome, src: int, dst: int) -> bool:
    """Would a dst<-src edge close a cycle? Checked over every connection gene
    (enabled or not) so crossover can never resurrect a cyclic path."""
    if src == dst:
        return True
    out_edges: dict[int, list[int]] = {}
    for c in genome.conns.values():
        out_edges.setdefault(c.src, []).append(c.dst)
    stack = [dst]
    seen = {dst}
    while stack:
        nid = stack.pop()
        if nid == src:
            return True
        for nxt in out_edges.get(nid, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


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
        if src == dst or (src, dst) in existing:
            continue
        if _creates_cycle(genome, src, dst):
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


def mutate(genome: Genome, config: EvolutionConfig, rng: np.random.Generator,
           registry: InnovationRegistry) -> Genome:
    """Mutated copy: structural changes at their configured rates, then the
    per-gene weight/bias rule (replace uniformly in range with the replace
    rate, otherwise gaussian-perturb with the mutate rate)."""
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
        r = rng.random()
        if r < config.weight_replace_rate:
            conn.weight = float(rng.uniform(config.weight_min, config.weight_max))
        elif r < config.weight_replace_rate + config.weight_mutate_rate:
            conn.weight = _clip_weight(
                conn.weight + rng.normal(0.0, config.weight_perturb_sigma),
                config)
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind == goal_net.NODE_INPUT:
            continue
        r = rng.random()
        if r < config.weight_replace_rate:
            node.bias = float(rng.uniform(config.weight_min, config.weight_max))
        elif r < config.weight_replace_rate + config.weight_mutate_rate:
            node.bias = _clip_weight(
                node.bias + rng.normal(0.0, config.weight_perturb_sigma),
                config)
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
    if not ia and not ib:
        return 0.0
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
    n_steps: int = 0


def evaluate(genome: Genome, predictor, scenario: ScenarioConfig, seed: int,
             episodes_per_eval: int = 8, horizon_weights=None) -> EvalResult:
    """Run the genome's goal network over full episodes with the frozen
    predictor; episode seeds derive from (seed, episode index) so every genome
    given the same seed faces the same worlds."""
    from .policy import NetworkGoal, run_episode

    try:
        net = goal_net.decode(genome)
    except GenomeCycleError:
        floor = -float(scenario.death_penalty)
        return EvalResult([floor] * episodes_per_eval, floor, np.zeros(3), 0)

    env = GridBattleEnv(scenario)
    provider = NetworkGoal(net)
    fits = []
    goal_sum = np.zeros(3)
    steps = 0
    for i in range(episodes_per_eval):
        record = run_episode(env, derive_seed(seed, i), predictor, provider,
                             horizon_weights)
        fits.append(episode_fitness(record, scenario))
        goal_sum += record.goal_sum
        steps += record.goal_steps
    mean_goal = goal_sum / steps if steps else np.zeros(3)
    return EvalResult(fits, float(np.mean(fits)), mean_goal, steps)


# -- the generational loop ------------------------------------------------------


@dataclass
class _Species:
    sid: int
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


def _speciate(population, species_list, config, rng, sid_counter):
    for s in species_list:
        s.members = []
    for genome in population:
        placed = False
        for s in species_list:
            if compatibility_distance(genome, s.representative,
                                      config) < config.compatibility_threshold:
                s.members.append(genome)
                placed = True
                break
        if not placed:
            species_list.append(_Species(next(sid_counter), genome.copy(),
                                         members=[genome]))
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

    ``fitness_fn(genome, gen_seed) -> EvalResult``; ``eval_map`` may override
    how a whole population is evaluated (e.g. a process pool) but must keep
    input order.
    """
    config.validate()
    rng = np.random.default_rng(derive_seed(seed, 11))
    registry = InnovationRegistry()
    key_counter = itertools.count()
    sid_counter = itertools.count(1)
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
            results = eval_map(population, gen_seed)
        else:
            results = [fitness_fn(g, gen_seed) for g in population]
        n_evaluations += len(population)
        for genome, result in zip(population, results):
            genome.fitness = result.mean_fitness

        gen_best = min(population, key=lambda g: (-g.fitness, g.key))
        if gen_best.fitness > best_fitness:
            best_fitness = gen_best.fitness
            best_genome = gen_best.copy()

        total_steps = sum(r.n_steps for r in results)
        if total_steps:
            mean_goal = sum((r.mean_goal * r.n_steps for r in results),
                            np.zeros(3)) / total_steps
        else:
            mean_goal = np.mean([r.mean_goal for r in results], axis=0)
        events = []

        _speciate(population, species_list, config, rng, sid_counter)
        for s in species_list:
            current = max(m.fitness for m in s.members)
            if current > s.best_fitness:
                s.best_fitness = current
                s.last_improved = gen
        stagnant = [s for s in species_list
                    if gen - s.last_improved >= config.stagnation_generations]
        if stagnant:
            species_list[:] = [s for s in species_list if s not in stagnant]
            events.append(f"removed_stagnant={len(stagnant)}")

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

_WORKER_CTX: dict = {}


def _worker_init(predictor, scenario, episodes_per_eval, horizon_weights):
    _WORKER_CTX["args"] = (predictor, scenario, episodes_per_eval,
                           horizon_weights)


def _worker_eval(item):
    genome, gen_seed = item
    predictor, scenario, episodes, hw = _WORKER_CTX["args"]
    return evaluate(genome, predictor, scenario, gen_seed, episodes, hw)


def evolve(config: EvolutionConfig, predictor, scenario: ScenarioConfig,
           seed: int, horizon_weights=None, progress=None) -> EvolutionResult:
    """Evolve goal networks against grid-battle episode fitness with the
    predictor frozen; evaluations within a generation may run in parallel."""
    workers = config.n_workers if config.n_workers > 0 else (os.cpu_count() or 1)

    def fitness_fn(genome, gen_seed):
        return evaluate(genome, predictor, scenario, gen_seed,
                        config.episodes_per_eval, horizon_weights)

    if workers <= 1:
        return evolve_against(config, fitness_fn, seed, progress=progress)

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return evolve_against(config, fitness_fn, seed, progress=progress)

    with ctx.Pool(workers, initializer=_worker_init,
                  initargs=(predictor, scenario, config.episodes_per_eval,
                            horizon_weights)) as pool:
        def eval_map(genomes, gen_seed):
            chunk = max(1, len(genomes) // (workers * 4))
            return pool.map(_worker_eval, [(g, gen_seed) for g in genomes],
                            chunksize=chunk)

        return evolve_against(config, fitness_fn, seed, eval_map=eval_map,
                              progress=progress)
