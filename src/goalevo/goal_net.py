"""Goal networks: genomes and their executable feedforward phenotypes.

A genome is a list of node genes and innovation-numbered connection genes
describing a small feedforward net from the 3 normalized measurements to the
3 goal weights. Every neuron uses a clamped linear response in [-1, 1], so
goal outputs are valid goal-vector components by construction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

INPUT_IDS = (0, 1, 2)
OUTPUT_IDS = (3, 4, 5)

NODE_INPUT = "in"
NODE_HIDDEN = "hidden"
NODE_OUTPUT = "out"


class GenomeCycleError(ValueError):
    """The connections of a genome contain a cycle."""


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


@dataclass
class FeedForwardNet:
    """Executable phenotype: nodes in dependency order with dense indices."""

    n_values: int
    input_slots: list[int]
    output_slots: list[int]
    # per non-input node: (value slot, bias, [(source slot, weight), ...])
    eval_steps: list[tuple[int, float, list[tuple[int, float]]]]


def topological_order(node_ids, edges) -> list[int]:
    """Kahn's algorithm over ``(src, dst)`` edges: the nodes, each after the
    sources of its edges, ready nodes smallest id first. Raises
    GenomeCycleError when the edges contain a cycle."""
    out_edges: dict[int, list[int]] = {}
    indeg = dict.fromkeys(node_ids, 0)
    for src, dst in edges:
        out_edges.setdefault(src, []).append(dst)
        indeg[dst] = indeg.get(dst, 0) + 1
    order: list[int] = []
    frontier = sorted(nid for nid, d in indeg.items() if d == 0)
    while frontier:
        nid = heapq.heappop(frontier)
        order.append(nid)
        for nxt in out_edges.get(nid, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(frontier, nxt)
    if len(order) != len(indeg):
        raise GenomeCycleError("connections form a cycle")
    return order


def decode(genome: Genome) -> FeedForwardNet:
    """Build the executable net; hidden nodes with no path to an output are
    pruned and never influence the result.

    The topological order of the enabled connections gives the evaluation
    order and rejects cycles; walking it backwards marks the nodes that
    reach an output.
    """
    incoming: dict[int, list[ConnGene]] = {}
    for c in genome.conns.values():
        if c.enabled:
            incoming.setdefault(c.dst, []).append(c)
    order = topological_order(genome.nodes, [
        (c.src, c.dst) for c in genome.conns.values() if c.enabled])

    useful = set(OUTPUT_IDS)
    for nid in reversed(order):
        if nid in useful:
            useful.update(c.src for c in incoming.get(nid, ()))
    keep = set(INPUT_IDS) | set(OUTPUT_IDS) | {
        nid for nid in useful
        if nid in genome.nodes and genome.nodes[nid].kind == NODE_HIDDEN
    }
    order = [nid for nid in order if nid in keep]

    slots = {nid: i for i, nid in enumerate(order)}
    eval_steps = []
    for nid in order:
        if nid in INPUT_IDS:
            continue
        node = genome.nodes[nid]
        sources = [(slots[c.src], c.weight)
                   for c in sorted(incoming.get(nid, ()),
                                   key=lambda c: c.innovation)
                   if c.src in keep]
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
            nid, value, kind = int(parts[1]), float(parts[2]), parts[3]
            if kind not in (NODE_INPUT, NODE_HIDDEN, NODE_OUTPUT):
                raise ValueError(f"line {lineno}: bad node type {kind!r}")
            nodes[nid] = NodeGene(nid, value, kind)
        elif parts[0] == "conn" and len(parts) == 6:
            innov, value = int(parts[1]), float(parts[4])
            conns[innov] = ConnGene(innov, int(parts[2]), int(parts[3]),
                                    value, parts[5] == "1")
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: {parts[0]} value {value!r} is "
                             "not finite")
    for nid in (*INPUT_IDS, *OUTPUT_IDS):
        kind = NODE_INPUT if nid in INPUT_IDS else NODE_OUTPUT
        if nid not in nodes or nodes[nid].kind != kind:
            raise ValueError(f"genome lacks node {nid} of type {kind!r}")
    for c in conns.values():
        if c.src not in nodes or c.dst not in nodes:
            raise ValueError(f"connection {c.innovation} names an unknown node")
        if nodes[c.dst].kind == NODE_INPUT:
            raise ValueError(f"connection {c.innovation} ends at input node "
                             f"{c.dst}")
    return Genome(nodes=nodes, conns=conns)


def save_genome(genome: Genome, path: str | Path) -> None:
    Path(path).write_text(genome_to_text(genome))


def load_genome(path: str | Path) -> Genome:
    return genome_from_text(Path(path).read_text())
