import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalevo import goal_net
from goalevo.env import GridBattleEnv, Measurements, episode_fitness
from goalevo.goal_net import ConnGene, Genome, NodeGene
from goalevo.policy import (DEFAULT_HORIZON_WEIGHTS, DefensiveGoal,
                            HardcodedGoal, NetworkGoal, StaticGoal,
                            action_utilities, default_horizon_weights,
                            goal_spec_label, parse_goal_spec, run_episode,
                            select_action)
from goalevo.predictor import PredictorNet

from conftest import make_scenario


class FakeNet:
    """Returns a fixed (A, K, 3) prediction table regardless of input."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.n_offsets = self.table.shape[1]

    def forward(self, obs, m, g):
        return self.table


M = Measurements(10, 80, 3)


# -- utility -----------------------------------------------------------------


def test_zero_goal_gives_zero_utility():
    preds = np.random.default_rng(0).normal(size=(4, 3))
    assert action_utilities(preds[None], np.zeros(3), np.ones(4))[0] == 0.0


def test_single_offset_utility_example():
    # one offset, unit weight: utility is just g . delta
    assert action_utilities(np.array([[[1.0, 0.0, 0.0]]]),
                            np.array([0.5, 0.5, 1.0]),
                            np.array([1.0]))[0] == pytest.approx(0.5)


def test_two_offset_hand_computed_utility():
    preds = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    g = np.array([0.5, 1.0, -1.0])
    w = np.array([0.5, 1.0])
    # 0.5*(g.(0,1,0)) + 1.0*(g.(0,0,2)) = 0.5*1 + 1*(-2) = -1.5
    assert action_utilities(preds[None], g, w)[0] == pytest.approx(-1.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_utility_linear_in_goal(seed):
    rng = np.random.default_rng(seed)
    preds = rng.normal(size=(5, 3))
    g1, g2 = rng.normal(size=3), rng.normal(size=3)
    w = rng.normal(size=5)
    left = action_utilities(preds[None], g1 + g2, w)[0]
    right = (action_utilities(preds[None], g1, w)[0]
             + action_utilities(preds[None], g2, w)[0])
    assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


# -- action selection ----------------------------------------------------------


def test_all_zero_predictions_tie_break_to_action_zero():
    net = FakeNet(np.zeros((6, 2, 3)))
    assert select_action(net, None, M, np.array([0.5, 0.5, 1.0])) == 0


def test_select_action_matches_brute_force_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(50):
        table = rng.normal(size=(6, 4, 3))
        g = rng.uniform(-1, 1, 3)
        w = rng.uniform(0, 1, 4)
        net = FakeNet(table)
        # oracle: exhaustive utility computation per action
        utilities = [sum(w[k] * float(np.dot(g, table[a, k]))
                         for k in range(4)) for a in range(6)]
        best = max(range(6), key=lambda a: (utilities[a], -a))
        assert select_action(net, None, M, g, w) == best


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 50.0))
def test_goal_scaling_preserves_argmax(seed, c):
    rng = np.random.default_rng(seed)
    net = FakeNet(rng.normal(size=(6, 3, 3)))
    g = rng.uniform(-1, 1, 3)
    w = rng.uniform(0, 1, 3)
    assert select_action(net, None, M, g, w) == \
        select_action(net, None, M, c * g, w)


def test_select_action_deterministic_on_ties():
    table = np.zeros((6, 2, 3))
    table[2] = table[5] = 1.0  # actions 2 and 5 tie at the top
    net = FakeNet(table)
    g, w = np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0])
    picks = {select_action(net, None, M, g, w) for _ in range(5)}
    assert picks == {2}


def test_default_horizon_weights_shapes():
    assert default_horizon_weights(6) == DEFAULT_HORIZON_WEIGHTS
    assert default_horizon_weights(1) == (1.0,)
    assert default_horizon_weights(2) == (0.5, 1.0)
    assert default_horizon_weights(4) == (0.0, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        default_horizon_weights(0)


# -- goal providers --------------------------------------------------------------


def test_hardcoded_switches_strictly_below_50():
    hardcoded = HardcodedGoal()
    np.testing.assert_array_equal(hardcoded(Measurements(5, 49, 0)),
                                  [0.0, 1.0, -1.0])
    np.testing.assert_array_equal(hardcoded(Measurements(5, 50, 0)),
                                  [0.5, 0.5, 1.0])
    np.testing.assert_array_equal(hardcoded(Measurements(5, 100, 0)),
                                  [0.5, 0.5, 1.0])


def test_defensive_goal_constant():
    defensive = DefensiveGoal()
    for m in (Measurements(0, 1, 0), Measurements(99, 100, 20)):
        np.testing.assert_array_equal(defensive(m),
                                      [1.0, 1.0, -1.0])


def test_static_goal_returns_its_constant():
    static = StaticGoal((0.2, -0.4, 0.9))
    np.testing.assert_array_equal(static(M), [0.2, -0.4, 0.9])
    np.testing.assert_array_equal(StaticGoal()(M), [0.5, 0.5, 1.0])


def test_network_goal_queries_net_on_normalized_measurements():
    # single connection ammo -> ammo goal with weight 2: m.ammo=20 -> 0.5 -> 1.0
    nodes = [NodeGene(i, 0.0, "in") for i in range(3)]
    nodes += [NodeGene(i, 0.0, "out") for i in range(3, 6)]
    genome = Genome(nodes={n.id: n for n in nodes},
                    conns={0: ConnGene(0, 0, 3, 2.0, True)})
    provider = NetworkGoal(goal_net.decode(genome))
    np.testing.assert_allclose(provider(Measurements(20, 100, 0)),
                               [1.0, 0.0, 0.0])
    np.testing.assert_allclose(provider(Measurements(10, 100, 0)),
                               [0.5, 0.0, 0.0])


def test_parse_goal_spec_variants(tmp_path):
    assert isinstance(parse_goal_spec("hardcoded"), HardcodedGoal)
    assert isinstance(parse_goal_spec("defensive"), DefensiveGoal)
    static = parse_goal_spec("static:0.1,0.2,-0.3")
    assert isinstance(static, StaticGoal)
    assert static.goal == (0.1, 0.2, -0.3)
    assert parse_goal_spec("static").goal == (0.5, 0.5, 1.0)

    nodes = {i: NodeGene(i, 0.0, "in") for i in range(3)}
    nodes.update({i: NodeGene(i, 0.5, "out") for i in range(3, 6)})
    goal_net.save_genome(Genome(nodes=nodes, conns={}), tmp_path / "g.txt")
    provider = parse_goal_spec(f"evolved:{tmp_path / 'g.txt'}")
    assert isinstance(provider, NetworkGoal)
    np.testing.assert_allclose(provider(M), [0.5, 0.5, 0.5])


def test_parse_goal_spec_errors(tmp_path):
    with pytest.raises(ValueError):
        parse_goal_spec("nonsense")
    with pytest.raises(ValueError):
        parse_goal_spec("static:1,2")
    with pytest.raises(ValueError):
        parse_goal_spec("static:2.0,0,0")  # out of goal range
    with pytest.raises(ValueError):
        parse_goal_spec("static:nan,0,0")  # not a number
    with pytest.raises(OSError):
        parse_goal_spec(f"evolved:{tmp_path / 'missing.txt'}")


def test_goal_spec_labels():
    assert goal_spec_label("static:0.5,0.5,1.0") == "static"
    assert goal_spec_label("evolved:some/file.txt") == "evolved"
    assert goal_spec_label("hardcoded") == "hardcoded"


# -- rollout ----------------------------------------------------------------------


def test_run_episode_record_consistency():
    scenario = make_scenario(episode_length=60)
    env = GridBattleEnv(scenario)
    net = PredictorNet(327, rng=np.random.default_rng(0))
    record = run_episode(env, 4, net, StaticGoal(), collect_trace=True)
    assert record.steps == len(record.trace)
    assert record.goal_steps == record.steps
    assert record.kills == record.final_measurements.kills
    assert record.died == (not env.alive)
    np.testing.assert_allclose(record.goal_sum / record.steps, [0.5, 0.5, 1.0])
    # trace rows carry (step, action name, ammo, health, kills, x, y)
    step0 = record.trace[0]
    assert step0[0] == 0 and step0[2] == 20 and step0[3] == 100
    assert episode_fitness(record, scenario) == record.kills


def test_run_episode_deterministic():
    scenario = make_scenario(episode_length=40)
    net = PredictorNet(327, rng=np.random.default_rng(1))
    records = []
    for _ in range(2):
        env = GridBattleEnv(scenario)
        records.append(run_episode(env, 9, net, HardcodedGoal()))
    a, b = records
    assert (a.kills, a.died, a.steps, a.final_measurements) == \
        (b.kills, b.died, b.steps, b.final_measurements)
    np.testing.assert_array_equal(a.goal_sum, b.goal_sum)
