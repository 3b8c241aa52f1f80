import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalevo.goal_net import (ConnGene, FeedForwardNet, Genome,
                              GenomeCycleError, NodeGene, activate,
                              decode, genome_from_text, genome_to_text,
                              load_genome, save_genome, topological_order,
                              INPUT_IDS, OUTPUT_IDS)


def make_genome(nodes, conns):
    return Genome(nodes={n.id: n for n in nodes},
                  conns={c.innovation: c for c in conns})


def base_nodes(out_biases=(0.0, 0.0, 0.0)):
    nodes = [NodeGene(i, 0.0, "in") for i in INPUT_IDS]
    nodes += [NodeGene(oid, b, "out") for oid, b in zip(OUTPUT_IDS, out_biases)]
    return nodes


def clamped(x: float) -> float:
    """The neuron response: the identity clipped to [-1, 1]."""
    return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)


def naive_eval(genome, inputs):
    """Independent oracle: recursive evaluation straight off the gene lists."""
    incoming = {}
    for c in genome.conns.values():
        if c.enabled:
            incoming.setdefault(c.dst, []).append(c)
    memo = {}

    def value(nid):
        if nid in memo:
            return memo[nid]
        node = genome.nodes[nid]
        if node.kind == "in":
            memo[nid] = float(inputs[INPUT_IDS.index(nid)])
            return memo[nid]
        total = node.bias
        for c in incoming.get(nid, ()):
            total += value(c.src) * c.weight
        memo[nid] = clamped(total)
        return memo[nid]

    return np.array([value(o) for o in OUTPUT_IDS])


# -- decode / activate ------------------------------------------------------------


def test_direct_connections_compute_clamped_affine():
    # out_j = clamp(sum_i w_ij x_i + b_j), single layer
    weights = {(0, 3): 0.5, (1, 3): -0.25, (2, 4): 1.0, (0, 5): 2.0}
    conns = [ConnGene(i, src, dst, w, True)
             for i, ((src, dst), w) in enumerate(weights.items())]
    genome = make_genome(base_nodes(out_biases=(0.1, -0.2, 0.0)), conns)
    net = decode(genome)
    x = np.array([0.4, 0.8, 0.6])
    out = activate(net, x)
    expected = [
        clamped(0.5 * 0.4 - 0.25 * 0.8 + 0.1),   # 0.1
        clamped(1.0 * 0.6 - 0.2),                 # 0.4
        clamped(2.0 * 0.4),                       # 0.8
    ]
    np.testing.assert_allclose(out, expected)


def test_disabled_connection_is_absent():
    conns = [ConnGene(0, 0, 3, 5.0, False), ConnGene(1, 1, 3, 0.5, True)]
    genome = make_genome(base_nodes(), conns)
    out = activate(decode(genome), [1.0, 1.0, 0.0])
    assert out[0] == pytest.approx(0.5)


def test_hidden_chain_hand_evaluated():
    # ammo input -> hidden (w=0.5, bias 0.1) -> kill goal (w=2.0, bias -0.2)
    nodes = base_nodes(out_biases=(0.0, 0.0, -0.2)) + [NodeGene(7, 0.1, "hidden")]
    conns = [ConnGene(0, 0, 7, 0.5, True), ConnGene(1, 7, 5, 2.0, True)]
    genome = make_genome(nodes, conns)
    out = activate(decode(genome), [0.4, 0.0, 0.0])
    # hidden = clamp(0.5*0.4 + 0.1) = 0.3; out = clamp(2.0*0.3 - 0.2) = 0.4
    assert out[2] == pytest.approx(0.4)
    assert out[0] == 0.0 and out[1] == 0.0


def test_max_weight_saturates_output():
    genome = make_genome(base_nodes(), [ConnGene(0, 0, 3, 30.0, True)])
    out = activate(decode(genome), [1.0, 0.0, 0.0])
    assert out[0] == 1.0
    genome.conns[0].weight = -30.0
    out = activate(decode(genome), [1.0, 0.0, 0.0])
    assert out[0] == -1.0


def test_identity_inside_clamp_region():
    genome = make_genome(base_nodes(), [ConnGene(0, 0, 3, 1.0, True)])
    assert activate(decode(genome), [0.3, 0.0, 0.0])[0] == pytest.approx(0.3)


def test_zero_genome_outputs_zero():
    genome = make_genome(base_nodes(), [])
    np.testing.assert_array_equal(activate(decode(genome), [0.7, 0.2, 0.9]),
                                  np.zeros(3))


def test_cycle_raises_decode_error():
    nodes = base_nodes() + [NodeGene(7, 0.0, "hidden"), NodeGene(8, 0.0, "hidden")]
    conns = [ConnGene(0, 7, 8, 1.0, True), ConnGene(1, 8, 7, 1.0, True),
             ConnGene(2, 8, 3, 1.0, True)]
    with pytest.raises(GenomeCycleError):
        decode(make_genome(nodes, conns))


def test_disabled_cycle_still_rejected_only_when_enabled():
    nodes = base_nodes() + [NodeGene(7, 0.0, "hidden"), NodeGene(8, 0.0, "hidden")]
    conns = [ConnGene(0, 7, 8, 1.0, True), ConnGene(1, 8, 7, 1.0, False),
             ConnGene(2, 8, 3, 1.0, True)]
    decode(make_genome(nodes, conns))  # disabled back-edge: fine


def test_topological_order_takes_the_smallest_ready_id_first():
    assert topological_order([9, 1, 5, 2], [(9, 1), (5, 1), (2, 9)]) == \
        [2, 5, 9, 1]
    assert topological_order([4, 3], []) == [3, 4]
    for edges in ([(1, 1)], [(1, 2), (2, 3), (3, 1)]):
        with pytest.raises(GenomeCycleError):
            topological_order([1, 2, 3], edges)


def _random_genome(rng):
    n_hidden = int(rng.integers(0, 5))
    hidden_ids = list(range(6, 6 + n_hidden))
    nodes = base_nodes(out_biases=rng.uniform(-2, 2, 3))
    nodes += [NodeGene(h, float(rng.uniform(-2, 2)), "hidden")
              for h in hidden_ids]
    # rank ordering guarantees acyclicity: inputs < hidden (by id) < outputs
    rank = {i: 0 for i in INPUT_IDS}
    rank.update({h: 1 + idx for idx, h in enumerate(hidden_ids)})
    rank.update({o: 100 for o in OUTPUT_IDS})
    ids = list(rank)
    conns = []
    innov = 0
    for _ in range(int(rng.integers(1, 12))):
        src, dst = rng.choice(ids, 2)
        if rank[int(src)] >= rank[int(dst)]:
            continue
        conns.append(ConnGene(innov, int(src), int(dst),
                              float(rng.uniform(-5, 5)),
                              bool(rng.random() < 0.85)))
        innov += 1
    return make_genome(nodes, conns)


def test_pruned_evaluation_matches_naive_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        genome = _random_genome(rng)
        x = rng.uniform(0, 1, 3)
        np.testing.assert_allclose(activate(decode(genome), x),
                                   naive_eval(genome, x), atol=1e-12)


def test_dangling_hidden_node_pruned_but_harmless():
    nodes = base_nodes() + [NodeGene(9, 5.0, "hidden")]
    conns = [ConnGene(0, 0, 9, 3.0, True),  # feeds a node that goes nowhere
             ConnGene(1, 1, 4, 0.5, True)]
    net = decode(make_genome(nodes, conns))
    out = activate(net, [1.0, 0.5, 0.0])
    np.testing.assert_allclose(out, [0.0, 0.25, 0.0])
    slots_used = {s for s, _, _ in net.eval_steps}
    assert len(slots_used) == 3  # only the outputs survive


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
def test_outputs_always_in_goal_range(seed, x):
    genome = _random_genome(np.random.default_rng(seed))
    out = activate(decode(genome), np.array(x))
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_decode_and_activate_are_pure():
    rng = np.random.default_rng(4)
    genome = _random_genome(rng)
    before = genome_to_text(genome)
    n1 = decode(genome)
    o1 = activate(n1, [0.5, 0.5, 0.5])
    o2 = activate(n1, [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(o1, o2)
    assert genome_to_text(genome) == before


# -- file format -------------------------------------------------------------------


def test_genome_text_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    genome = _random_genome(rng)
    path = tmp_path / "genome.txt"
    save_genome(genome, path)
    loaded = load_genome(path)
    assert genome_to_text(loaded) == genome_to_text(genome)
    assert loaded.nodes == genome.nodes
    assert loaded.conns == genome.conns


def test_genome_text_format_lines():
    genome = make_genome(base_nodes(), [ConnGene(3, 0, 4, -1.5, False)])
    text = genome_to_text(genome)
    assert "node 0 0.0 in" in text
    assert "node 3 0.0 out" in text
    assert "conn 3 0 4 -1.5 0" in text
    parsed = genome_from_text(text)
    assert parsed.conns[3].enabled is False
    assert parsed.conns[3].weight == -1.5


def test_genome_text_rejects_garbage():
    with pytest.raises(ValueError):
        genome_from_text("node 0 zero in\n")
    with pytest.raises(ValueError):
        genome_from_text("blah 1 2 3\n")
