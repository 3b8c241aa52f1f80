import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalevo import goal_net
from goalevo.env import (GridBattleEnv, Measurements, episode_fitness,
                         hard_scenario, normalize_measurements,
                         original_scenario)
from goalevo.goal_net import ConnGene, Genome, NodeGene
from goalevo.neat import InnovationRegistry, initial_genome
from goalevo.policy import (HardcodedGoal, NetworkGoal, StaticGoal,
                            action_utilities, default_horizon_weights,
                            goal_spec_label, parse_goal_spec, run_episodes,
                            select_action)
from goalevo.predictor import LEAKY_SLOPE, PredictorNet

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
    assert default_horizon_weights(6) == (0.0, 0.0, 0.0, 0.5, 0.5, 1.0)
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
    defensive = parse_goal_spec("defensive")
    for m in (Measurements(0, 1, 0), Measurements(99, 100, 20)):
        np.testing.assert_array_equal(defensive(m),
                                      [1.0, 1.0, -1.0])


def test_static_goal_returns_its_constant():
    static = StaticGoal((0.2, -0.4, 0.9))
    np.testing.assert_array_equal(static(M), [0.2, -0.4, 0.9])
    np.testing.assert_array_equal(StaticGoal()(M), [0.5, 0.5, 1.0])


def ramp_goal():
    """Goal net whose ammo goal doubles the normalized ammo, clamped."""
    nodes = [NodeGene(i, 0.0, "in") for i in range(3)]
    nodes += [NodeGene(i, 0.0, "out") for i in range(3, 6)]
    return goal_net.decode(Genome(nodes={n.id: n for n in nodes},
                                  conns={0: ConnGene(0, 0, 3, 2.0, True)}))


def test_network_goal_queries_net_on_normalized_measurements():
    # single connection ammo -> ammo goal with weight 2: m.ammo=20 -> 0.5 -> 1.0
    provider = NetworkGoal(ramp_goal())
    np.testing.assert_allclose(provider(Measurements(20, 100, 0)),
                               [1.0, 0.0, 0.0])
    np.testing.assert_allclose(provider(Measurements(10, 100, 0)),
                               [0.5, 0.0, 0.0])


@pytest.mark.parametrize("provider", [StaticGoal(), HardcodedGoal(),
                                      NetworkGoal(ramp_goal())],
                         ids=["static", "hardcoded", "evolved"])
def test_a_returned_goal_cannot_be_written(provider):
    for m in (Measurements(5, 49, 0), Measurements(20, 80, 3)):
        g = provider(m)
        before = g.copy()
        with pytest.raises(ValueError, match="read-only"):
            g[0] = 0.25
        with pytest.raises(ValueError, match="read-only"):
            g += 1.0
        assert provider(m) is g
        np.testing.assert_array_equal(provider(m), before)


def test_network_goal_activates_once_per_measurement_triple(monkeypatch):
    net = ramp_goal()
    activate = goal_net.activate
    calls = []

    def counted(ff_net, m_normalized):
        calls.append(tuple(m_normalized))
        return activate(ff_net, m_normalized)

    monkeypatch.setattr(goal_net, "activate", counted)
    provider = NetworkGoal(net)
    ms = [Measurements(10, 100, 0), Measurements(30, 50, 1),
          Measurements(10, 100, 0), Measurements(30, 50, 1)]
    goals = [provider(m) for m in ms]
    assert calls == [(0.25, 1.0, 0.0), (0.75, 0.5, 0.1)]
    assert goals[2] is goals[0] and goals[3] is goals[1]
    for m, g in zip(ms, goals):
        np.testing.assert_array_equal(
            g, activate(net, normalize_measurements(m)))


def test_parse_goal_spec_variants(tmp_path):
    assert isinstance(parse_goal_spec("hardcoded"), HardcodedGoal)
    assert parse_goal_spec("defensive") == StaticGoal((1.0, 1.0, -1.0))
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


def play_alone(env, seed, net, provider, **kwargs):
    """One episode played as the only lane: (obs, m, g, action) before each
    step, while the env is paused there."""
    for ((_, *step),) in run_episodes([env], [seed], net, [provider],
                                      **kwargs):
        yield tuple(step)


def row_forward(net, obs, m, g):
    """The batch-1 pass written out: one vector-matrix product per layer."""
    x = np.concatenate([obs, normalize_measurements(m), g])
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = x @ w.T + b
        if layer < len(net.weights) - 1:
            x = np.maximum(x, LEAKY_SLOPE * x)
    return x.reshape(net.n_actions, net.n_offsets, 3)


def test_run_episodes_yields_every_step_of_the_episode():
    scenario = make_scenario(episode_length=60)
    env = GridBattleEnv(scenario)
    net = PredictorNet(327, rng=np.random.default_rng(0))
    steps = list(play_alone(env, 4, net, StaticGoal()))
    assert len(steps) == env.steps
    np.testing.assert_allclose(np.mean([g for _, _, g, _ in steps], axis=0),
                               [0.5, 0.5, 1.0])
    # the first step shows the reset measurements (ammo, health, kills)
    assert steps[0][1] == Measurements(20, 100, 0)
    assert episode_fitness(env) == env.kills


def test_run_episode_explores_with_the_rng_draws_in_order():
    env = GridBattleEnv(make_scenario(episode_length=40))
    net = PredictorNet(327, rng=np.random.default_rng(2))
    rng = np.random.default_rng(5)
    actions = [a for *_, a in play_alone(env, 3, net, StaticGoal(),
                                         epsilon=1.0, rng=rng)]
    replay = np.random.default_rng(5)
    expected = []
    for _ in range(env.steps):
        assert replay.random() < 1.0
        expected.append(int(replay.integers(6)))
    assert actions == expected
    assert rng.bit_generator.state == replay.bit_generator.state


def test_run_episode_draws_once_per_step_at_epsilon_zero():
    scenario = make_scenario(episode_length=40)
    net = PredictorNet(327, rng=np.random.default_rng(2))
    greedy = [a for *_, a in play_alone(GridBattleEnv(scenario), 3, net,
                                        StaticGoal())]
    rng = np.random.default_rng(6)
    actions = [a for *_, a in play_alone(GridBattleEnv(scenario), 3, net,
                                         StaticGoal(), epsilon=0.0, rng=rng)]
    assert actions == greedy
    replay = np.random.default_rng(6)
    for _ in range(len(actions)):
        replay.random()
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("n_lanes", [1, 3])
def test_run_episodes_pauses_before_each_step(n_lanes):
    scenario = make_scenario(episode_length=50)
    seeds = [8 + i for i in range(n_lanes)]
    envs = [GridBattleEnv(scenario) for _ in seeds]
    net = PredictorNet(327, rng=np.random.default_rng(3))
    starts = [env.reset(seed) for env, seed in zip(envs, seeds)]
    first_obs = [env.observe() for env in envs]
    first_positions = [(env.agent_col, env.agent_row) for env in envs]
    replays = [GridBattleEnv(scenario) for _ in seeds]
    for replay, seed in zip(replays, seeds):
        replay.reset(seed)
    n = [0] * n_lanes
    for t, lanes in enumerate(run_episodes(envs, seeds, net,
                                           [HardcodedGoal()] * n_lanes)):
        assert [i for i, *_ in lanes] == sorted(i for i, *_ in lanes)
        for i, obs, m, g, action in lanes:
            env, replay = envs[i], replays[i]
            # while the caller holds a step, each env shows that step's state
            assert env.steps == replay.steps == t
            assert m == env.measurements == replay.measurements
            np.testing.assert_array_equal(obs, env.observe())
            np.testing.assert_array_equal(obs, replay.observe())
            if t == 0:
                assert m == starts[i]
                np.testing.assert_array_equal(obs, first_obs[i])
                assert (env.agent_col, env.agent_row) == first_positions[i]
            replay.step(action)
            n[i] += 1
    # afterwards each env holds the finished episode the steps played
    for i in range(n_lanes):
        assert n[i] == envs[i].steps
        assert envs[i].state_snapshot() == replays[i].state_snapshot()


def test_run_episode_deterministic():
    scenario = make_scenario(episode_length=40)
    net = PredictorNet(327, rng=np.random.default_rng(1))
    runs, final_measurements = [], []
    for _ in range(2):
        env = GridBattleEnv(scenario)
        runs.append(list(play_alone(env, 9, net, HardcodedGoal())))
        final_measurements.append((env.measurements, env.alive, env.steps))
    a, b = runs
    assert len(a) == len(b)
    for (obs_a, m_a, g_a, act_a), (obs_b, m_b, g_b, act_b) in zip(a, b):
        np.testing.assert_array_equal(obs_a, obs_b)
        np.testing.assert_array_equal(g_a, g_b)
        assert (m_a, act_a) == (m_b, act_b)
    assert final_measurements[0] == final_measurements[1]


@pytest.mark.parametrize("n_lanes", [1, 3, 8])
@pytest.mark.parametrize("scenario", [hard_scenario(), original_scenario()],
                         ids=["hard", "original"])
def test_lanes_play_as_each_episode_alone(scenario, n_lanes):
    """Each lane's steps and final state equal its episode played as the
    only lane, bit for bit; on hard the lanes end at different steps."""
    net = PredictorNet(327, rng=np.random.default_rng(4))
    genome = initial_genome(np.random.default_rng(5), InnovationRegistry(), 0)
    seeds = [100 + i for i in range(n_lanes)]
    envs = [GridBattleEnv(scenario) for _ in seeds]
    played = [[] for _ in seeds]
    provider = NetworkGoal(goal_net.decode(genome))
    for lanes in run_episodes(envs, seeds, net, [provider] * n_lanes):
        for i, *step in lanes:
            played[i].append(step)
    for i, seed in enumerate(seeds):
        env = GridBattleEnv(scenario)
        alone = list(play_alone(env, seed, net,
                                NetworkGoal(goal_net.decode(genome))))
        assert len(played[i]) == len(alone) == env.steps
        for (obs, m, g, a), (obs_1, m_1, g_1, a_1) in zip(played[i], alone):
            assert np.array_equal(obs, obs_1) and np.array_equal(g, g_1)
            assert (m, a) == (m_1, a_1)
        assert envs[i].state_snapshot() == env.state_snapshot()
    if scenario.preset_name == "hard" and n_lanes > 1:
        assert len({len(steps) for steps in played}) > 1


@pytest.mark.parametrize("n_lanes", [1, 3, 8, 20])
def test_stacked_pass_equals_the_per_row_pass(n_lanes):
    """A lane stack is scored with one vector product per lane and layer; an
    (L, D) matrix product sums in another order and fails here."""
    rng = np.random.default_rng(n_lanes)
    net = PredictorNet(327, rng=rng)
    obs = rng.random((n_lanes, 327)) * (rng.random((n_lanes, 327)) < 0.3)
    ms = [Measurements(*rng.integers(0, 101, 3).tolist())
          for _ in range(n_lanes)]
    gs = rng.uniform(-1.0, 1.0, (n_lanes, 3))
    w = np.array(default_horizon_weights(net.n_offsets))
    preds = net.forward(obs, ms, gs)
    assert preds.shape == (n_lanes, 6, 6, 3)
    utilities = action_utilities(preds, gs, w)
    for k in range(n_lanes):
        row = row_forward(net, obs[k], ms[k], gs[k])
        assert np.array_equal(preds[k], row)
        assert np.array_equal(net.forward(obs[k], ms[k], gs[k]), row)
        assert np.array_equal(utilities[k], (row @ gs[k]) @ w)
    assert select_action(net, obs, ms, gs, w) == [
        select_action(net, obs[k], ms[k], gs[k], w) for k in range(n_lanes)]
