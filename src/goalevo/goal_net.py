"""Goal networks: genomes and their executable feedforward phenotypes.

A genome is a list of node genes and innovation-numbered connection genes
describing a small feedforward net from the 3 normalized measurements to the
3 goal weights. Every neuron uses a clamped linear response in [-1, 1], so
goal outputs are valid goal-vector components by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

N_GOAL_INPUTS = 3
N_GOAL_OUTPUTS = 3
INPUT_IDS = (0, 1, 2)
OUTPUT_IDS = (3, 4, 5)

NODE_INPUT = "in"
NODE_HIDDEN = "hidden"
NODE_OUTPUT = "out"


class GenomeCycleError(ValueError):
    """The enabled connections of a genome contain a cycle."""


@dataclass
class NodeGene:
    id: int
    bias: float
    kind: str  # in | hidden | out


@dataclass
class ConnGene:
    innovation: int
    src: int
    dst: int
    weight: float
    enabled: bool


@dataclass
class Genome:
    """Goal-network genotype. ``fitness`` is unset until evaluated."""

    nodes: dict[int, NodeGene] = field(default_factory=dict)
    conns: dict[int, ConnGene] = field(default_factory=dict)
    fitness: float | None = None
    key: int = 0

    def copy(self, key: int | None = None) -> "Genome":
        return Genome(
            nodes={i: replace(n) for i, n in self.nodes.items()},
            conns={i: replace(c) for i, c in self.conns.items()},
            fitness=self.fitness,
            key=self.key if key is None else key,
        )


def clamped(x: float) -> float:
    return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)


@dataclass
class FeedForwardNet:
    """Executable phenotype: nodes in dependency order with dense indices."""

    n_values: int
    input_slots: list[int]
    output_slots: list[int]
    # per non-input node: (value slot, bias, [(source slot, weight), ...])
    eval_steps: list[tuple[int, float, list[tuple[int, float]]]]


def _check_acyclic(genome: Genome) -> None:
    """Reject genomes whose enabled connections contain a cycle."""
    out_edges: dict[int, list[int]] = {}
    indeg: dict[int, int] = {nid: 0 for nid in genome.nodes}
    for c in genome.conns.values():
        if not c.enabled:
            continue
        out_edges.setdefault(c.src, []).append(c.dst)
        indeg[c.dst] = indeg.get(c.dst, 0) + 1
    queue = sorted(nid for nid, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        nid = queue.pop()
        seen += 1
        for nxt in out_edges.get(nid, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if seen != len(indeg):
        raise GenomeCycleError("enabled connections form a cycle")


def decode(genome: Genome) -> FeedForwardNet:
    """Build the executable net; hidden nodes with no path to an output are
    pruned and never influence the result."""
    _check_acyclic(genome)
    enabled = [c for c in genome.conns.values() if c.enabled]

    # nodes that can reach an output, found by walking edges backwards
    back: dict[int, list[int]] = {}
    for c in enabled:
        back.setdefault(c.dst, []).append(c.src)
    useful = set(OUTPUT_IDS)
    stack = list(OUTPUT_IDS)
    while stack:
        nid = stack.pop()
        for src in back.get(nid, ()):
            if src not in useful:
                useful.add(src)
                stack.append(src)
    keep = set(INPUT_IDS) | set(OUTPUT_IDS) | {
        nid for nid in genome.nodes
        if genome.nodes[nid].kind == NODE_HIDDEN and nid in useful
    }

    edges = [c for c in enabled if c.src in keep and c.dst in keep]
    incoming: dict[int, list[ConnGene]] = {}
    out_edges: dict[int, list[int]] = {}
    indeg = {nid: 0 for nid in keep}
    for c in edges:
        incoming.setdefault(c.dst, []).append(c)
        out_edges.setdefault(c.src, []).append(c.dst)
        indeg[c.dst] += 1

    # Kahn's algorithm with sorted frontier for a deterministic order
    order: list[int] = []
    frontier = sorted(nid for nid in keep if indeg[nid] == 0)
    while frontier:
        nid = frontier.pop(0)
        order.append(nid)
        ready = []
        for nxt in out_edges.get(nid, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        frontier = sorted(frontier + ready)

    slots = {nid: i for i, nid in enumerate(order)}
    eval_steps = []
    for nid in order:
        if nid in INPUT_IDS:
            continue
        node = genome.nodes[nid]
        sources = [(slots[c.src], c.weight)
                   for c in sorted(incoming.get(nid, ()),
                                   key=lambda c: c.innovation)]
        eval_steps.append((slots[nid], node.bias, sources))
    return FeedForwardNet(
        n_values=len(order),
        input_slots=[slots[i] for i in INPUT_IDS],
        output_slots=[slots[i] for i in OUTPUT_IDS],
        eval_steps=eval_steps,
    )


def activate(net: FeedForwardNet, m_normalized) -> np.ndarray:
    """Run the net on the 3 normalized measurements; outputs lie in [-1, 1]."""
    values = [0.0] * net.n_values
    for slot, x in zip(net.input_slots, m_normalized):
        values[slot] = float(x)
    for slot, bias, sources in net.eval_steps:
        total = bias
        for src_slot, weight in sources:
            total += values[src_slot] * weight
        values[slot] = -1.0 if total < -1.0 else (1.0 if total > 1.0 else total)
    return np.array([values[s] for s in net.output_slots])


# -- text format shared with the evolution engine ---------------------------


def genome_to_text(genome: Genome) -> str:
    lines = []
    for nid in sorted(genome.nodes):
        n = genome.nodes[nid]
        lines.append(f"node {n.id} {float(n.bias)!r} {n.kind}")
    for innov in sorted(genome.conns):
        c = genome.conns[innov]
        lines.append(f"conn {c.innovation} {c.src} {c.dst} {float(c.weight)!r} "
                     f"{1 if c.enabled else 0}")
    return "\n".join(lines) + "\n"


def genome_from_text(text: str) -> Genome:
    nodes: dict[int, NodeGene] = {}
    conns: dict[int, ConnGene] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node" and len(parts) == 4:
            nid = int(parts[1])
            kind = parts[3]
            if kind not in (NODE_INPUT, NODE_HIDDEN, NODE_OUTPUT):
                raise ValueError(f"line {lineno}: bad node type {kind!r}")
            nodes[nid] = NodeGene(nid, float(parts[2]), kind)
        elif parts[0] == "conn" and len(parts) == 6:
            innov = int(parts[1])
            conns[innov] = ConnGene(innov, int(parts[2]), int(parts[3]),
                                    float(parts[4]), parts[5] == "1")
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    for nid in (*INPUT_IDS, *OUTPUT_IDS):
        kind = NODE_INPUT if nid in INPUT_IDS else NODE_OUTPUT
        if nid not in nodes or nodes[nid].kind != kind:
            raise ValueError(f"genome lacks node {nid} of type {kind!r}")
    for c in conns.values():
        if c.src not in nodes or c.dst not in nodes:
            raise ValueError(f"connection {c.innovation} names an unknown node")
    return Genome(nodes=nodes, conns=conns)


def save_genome(genome: Genome, path: str | Path) -> None:
    Path(path).write_text(genome_to_text(genome))


def load_genome(path: str | Path) -> Genome:
    return genome_from_text(Path(path).read_text())
