import copy
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from goalevo import predictor as pred_mod
from goalevo.configio import ConfigError
from goalevo.env import (GridBattleEnv, Measurements, normalize_measurements,
                         observation_size)
from goalevo.predictor import (Experience, PredictorConfig, PredictorNet,
                               ReplayBuffer, batch_loss, collect_and_train,
                               episode_to_samples, epsilon_at, gradients,
                               load_predictor, save_predictor, train_step)
from goalevo.seeds import derive_seed

from conftest import empty_room, make_scenario


def tiny_net(obs_dim=2, offsets=(1, 2), hidden=(4,), n_actions=3, seed=0,
             lr=0.05, momentum=0.9):
    return PredictorNet(obs_dim, offsets=offsets, hidden_sizes=hidden,
                        n_actions=n_actions, learning_rate=lr,
                        momentum=momentum, rng=np.random.default_rng(seed))


def random_sample(net, rng, mask=None):
    """One per-sample object, the batch element gradients and batch_loss
    accept besides an Experience."""
    k = net.n_offsets
    if mask is None:
        mask = rng.random(k) < 0.8
        if not mask.any():
            mask[0] = True
    return SimpleNamespace(
        obs=rng.normal(size=net.obs_dim).astype(np.float32),
        m_norm=rng.uniform(0, 1, 3),
        goal=rng.uniform(-1, 1, 3),
        action=int(rng.integers(net.n_actions)),
        targets=rng.normal(size=(k, 3)) * mask[:, None],
        mask=np.asarray(mask, dtype=bool),
    )


# -- forward -----------------------------------------------------------------


def test_zero_weight_net_predicts_zero():
    net = tiny_net()
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    out = net.forward(np.ones(2), Measurements(5, 50, 1), [0.3, -0.2, 1.0])
    assert out.shape == (3, 2, 3)
    np.testing.assert_array_equal(out, 0.0)


def test_net_without_rng_starts_at_zero():
    """load_predictor overwrites every parameter, so a net built without a
    generator draws no weights: every parameter starts at zero."""
    net = PredictorNet(5, offsets=(1, 2), hidden_sizes=(4, 3), n_actions=2)
    assert [w.shape for w in net.weights] == [(4, 11), (3, 4), (12, 3)]
    for p in net.weights + net.biases:
        np.testing.assert_array_equal(p, 0.0)


def test_forward_deterministic():
    net = tiny_net()
    obs = np.array([0.4, -1.2])
    m = Measurements(10, 80, 2)
    g = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(net.forward(obs, m, g), net.forward(obs, m, g))


def test_forward_hand_computed_affine_chain():
    # 1 observation input, 1 hidden unit, 2 actions, 1 offset:
    # x = [0.25, (0,1,0), (0.5,-0.5,1.0)], W1 = ones, b1 = 0.5
    # h = leaky(0.25 + 1 + 0.5 + -0.5 + 1.0 + 0.5) = 2.75; out_j = h
    net = PredictorNet(1, offsets=(1,), hidden_sizes=(1,), n_actions=2,
                       rng=np.random.default_rng(0))
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.5
    net.weights[1][:] = 1.0
    net.biases[1][:] = 0.0
    out = net.forward(np.array([0.25]), Measurements(0, 100, 0),
                      np.array([0.5, -0.5, 1.0]))
    np.testing.assert_allclose(out, np.full((2, 1, 3), 2.75))
    # negative pre-activation exercises the leaky slope: 2.25 - 3.0 = -0.75
    net.biases[0][:] = -3.0
    out = net.forward(np.array([0.25]), Measurements(0, 100, 0),
                      np.array([0.5, -0.5, 1.0]))
    np.testing.assert_allclose(out, np.full((2, 1, 3), -0.75 * 0.01))


def test_forward_rejects_bad_observation_length():
    net = tiny_net(obs_dim=4)
    with pytest.raises(ValueError):
        net.forward(np.zeros(5), Measurements(0, 100, 0), np.zeros(3))


@pytest.mark.parametrize("obs_dim, offsets, hidden, n_actions", [
    (1, (1,), (), 1),
    (2, (1, 2), (4,), 3),
    (7, (1, 2, 4), (16, 8), 5),
    (30, (1, 2, 4, 8, 16, 32), (64, 32, 16), 8),
])
def test_acting_and_learning_agree_at_batch_one(obs_dim, offsets, hidden,
                                                n_actions):
    """batch_loss on a one-row Experience is, to the last bit, the masked
    squared error of forward's prediction for that row."""
    rng = np.random.default_rng(obs_dim)
    k = len(offsets)
    for _ in range(20):
        net = PredictorNet(obs_dim, offsets=offsets, hidden_sizes=hidden,
                           n_actions=n_actions, rng=rng)
        m = Measurements(*(int(v) for v in rng.integers(0, 60, size=3)))
        mask = rng.random(k) < 0.7
        mask[rng.integers(k)] = True
        row = Experience(
            obs=rng.normal(size=(1, obs_dim)).astype(np.float32),
            m_norm=normalize_measurements(m)[None],
            goal=rng.uniform(-1, 1, size=(1, 3)),
            action=rng.integers(n_actions, size=1),
            targets=rng.normal(size=(1, k, 3)) * mask[None, :, None],
            mask=mask[None])
        preds = net.forward(row.obs[0], m, row.goal[0])
        err = (preds[row.action[0]] - row.targets[0]) * mask[:, None]
        expected = float(np.sum(err * err) / (3 * int(mask.sum())))
        assert batch_loss(net, row) == expected


# -- loss and gradients ----------------------------------------------------------


def test_perfect_predictions_give_zero_loss_and_no_update():
    net = tiny_net(seed=3)
    rng = np.random.default_rng(0)
    sample = random_sample(net, rng, mask=np.array([True, True]))
    preds = net.forward(sample.obs, Measurements(0, 0, 0), sample.goal)
    # make the target equal the current prediction for the taken action
    x_m = Measurements(0, 0, 0)
    sample.m_norm = np.zeros(3)
    preds = net.forward(sample.obs, x_m, sample.goal)
    sample.targets = preds[sample.action].copy()
    weights_before = [w.copy() for w in net.weights]
    loss = train_step(net, [sample])
    assert loss == pytest.approx(0.0, abs=1e-15)
    for w_before, w_after in zip(weights_before, net.weights):
        np.testing.assert_array_equal(w_before, w_after)


def test_single_sample_single_offset_loss_definition():
    net = tiny_net(offsets=(1,), seed=5)
    rng = np.random.default_rng(2)
    sample = random_sample(net, rng, mask=np.array([True]))
    preds = net.forward(sample.obs, Measurements(0, 0, 0), sample.goal)
    sample.m_norm = np.zeros(3)
    expected = float(np.sum((preds[sample.action, 0] - sample.targets[0]) ** 2) / 3)
    assert batch_loss(net, [sample]) == pytest.approx(expected, rel=1e-12)


def test_loss_ignores_other_actions_predictions():
    net = tiny_net(seed=1)
    rng = np.random.default_rng(3)
    sample = random_sample(net, rng)
    loss1 = batch_loss(net, [sample])
    # shifting the output weights of untaken action blocks must not matter:
    # zero the rows of the final layer belonging to other actions
    k, nm = net.n_offsets, 3
    block = k * nm
    for a in range(net.n_actions):
        if a != sample.action:
            net.weights[-1][a * block:(a + 1) * block] = 0.0
            net.biases[-1][a * block:(a + 1) * block] = 0.0
    assert batch_loss(net, [sample]) == pytest.approx(loss1, rel=1e-12)


def test_masked_targets_never_affect_loss():
    net = tiny_net(seed=7)
    rng = np.random.default_rng(4)
    sample = random_sample(net, rng, mask=np.array([True, False]))
    loss1 = batch_loss(net, [sample])
    sample.targets[1] = 1e6  # perturb only the masked offset
    assert batch_loss(net, [sample]) == pytest.approx(loss1, rel=1e-15)


def test_all_masked_batch_rejected():
    net = tiny_net()
    rng = np.random.default_rng(5)
    sample = random_sample(net, rng, mask=np.array([False, False]))
    with pytest.raises(ValueError):
        batch_loss(net, [sample])
    with pytest.raises(ValueError):
        train_step(net, [sample])
    with pytest.raises(ValueError):
        train_step(net, [])


def finite_difference_check(net, batch, h=1e-6):
    """Relative error between analytic and central-difference gradients."""
    _, grads_w, grads_b = gradients(net, batch)
    analytic = np.concatenate([g.ravel() for g in grads_w + grads_b])
    params = net.weights + net.biases
    numeric = np.empty_like(analytic)
    i = 0
    for p in params:
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = batch_loss(net, batch)
            flat[j] = orig - h
            lm = batch_loss(net, batch)
            flat[j] = orig
            numeric[i] = (lp - lm) / (2 * h)
            i += 1
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for seed in range(4):
        net = tiny_net(obs_dim=3, offsets=(1, 3), hidden=(5,), n_actions=4,
                       seed=seed)
        batch = [random_sample(net, rng) for _ in range(6)]
        assert finite_difference_check(net, batch) < 1e-4


def test_adam_moves_all_layers_and_respects_zero_gradient():
    net = tiny_net(seed=9, lr=0.01)
    rng = np.random.default_rng(6)
    batch = [random_sample(net, rng) for _ in range(4)]
    w_before = [w.copy() for w in net.weights]
    train_step(net, batch)
    for w0, w1 in zip(w_before, net.weights):
        assert np.any(w0 != w1)


def test_training_memorizes_small_fixed_batch():
    net = tiny_net(hidden=(32,), seed=2, lr=0.02)
    rng = np.random.default_rng(8)
    batch = [random_sample(net, rng) for _ in range(8)]
    first = batch_loss(net, batch)
    for _ in range(500):
        train_step(net, batch)
    assert batch_loss(net, batch) < 0.05 * first


def random_batch(net, rng, rows):
    """An Experience of ``rows`` random rows, each with a valid target."""
    k = net.n_offsets
    mask = rng.random((rows, k)) < 0.7
    mask[np.arange(rows), rng.integers(k, size=rows)] = True
    return Experience(
        obs=rng.normal(size=(rows, net.obs_dim)).astype(np.float32),
        m_norm=rng.uniform(0, 1, (rows, 3)),
        goal=rng.uniform(-1, 1, (rows, 3)),
        action=rng.integers(net.n_actions, size=rows),
        targets=rng.normal(size=(rows, k, 3)) * mask[:, :, None],
        mask=mask)


def textbook_step(net, state, batch):
    """One allocating Adam step, forward and backward included, written out
    with the formulas train_step must match; ``state`` holds t, m and v."""
    x = np.concatenate([batch.obs, batch.m_norm, batch.goal], axis=1)
    acts = [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = acts[-1] @ w.T + b
        acts.append(np.maximum(z, pred_mod.LEAKY_SLOPE * z))
    acts.append(acts[-1] @ net.weights[-1].T + net.biases[-1])
    preds = acts[-1].reshape(len(batch), net.n_actions, net.n_offsets, 3)
    rows = np.arange(len(batch))
    n_valid = int(batch.mask.sum()) * 3
    err = (preds[rows, batch.action] - batch.targets) * batch.mask[:, :, None]
    loss = float(np.sum(err * err) / n_valid)
    d_out = np.zeros_like(preds)
    d_out[rows, batch.action] = 2.0 * err / n_valid
    delta = d_out.reshape(len(batch), net.output_dim)
    grads_w, grads_b = [None] * len(net.weights), [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ acts[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * np.where(
                acts[layer] > 0, 1.0, pred_mod.LEAKY_SLOPE)
    state["t"] += 1
    beta1, beta2 = net.momentum, pred_mod.ADAM_BETA2
    corr1 = 1.0 - beta1 ** state["t"]
    corr2 = 1.0 - beta2 ** state["t"]
    for p, g, m, v in zip(net.weights + net.biases, grads_w + grads_b,
                          state["m"], state["v"]):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= net.learning_rate * (m / corr1) / (np.sqrt(v / corr2)
                                                + pred_mod.ADAM_EPS)
    return loss


@pytest.mark.parametrize("hidden", [(), (16,), (32, 8), (24, 12, 6)])
def test_train_step_matches_the_textbook_update_bit_for_bit(hidden):
    """50 buffered steps equal 50 allocating ones to the last bit, with the
    batch length changing between steps so that the workspace is rebuilt."""
    net = PredictorNet(11, offsets=(1, 2, 4), hidden_sizes=hidden,
                       n_actions=4, learning_rate=0.01,
                       rng=np.random.default_rng(len(hidden)))
    ref = copy.deepcopy(net)
    state = {"t": 0, "m": [np.zeros_like(p) for p in ref.weights + ref.biases],
             "v": [np.zeros_like(p) for p in ref.weights + ref.biases]}
    rng = np.random.default_rng(40 + len(hidden))
    lengths = [64, 64, 5, 1, 1, 64, 5, 5, 1, 64]
    for step in range(50):
        batch = random_batch(net, rng, lengths[step % len(lengths)])
        work = net._work
        assert train_step(net, batch) == textbook_step(ref, state, batch)
        if work is not None and work.rows == len(batch):
            assert net._work is work  # same length: the arrays are reused
        assert net._work.rows == len(batch)
        for mine, theirs in zip(net.weights + net.biases,
                                ref.weights + ref.biases):
            assert np.array_equal(mine, theirs)


def test_gradients_returns_arrays_the_caller_owns():
    net = tiny_net(hidden=(6, 5), seed=4)
    rng = np.random.default_rng(12)
    first = gradients(net, random_batch(net, rng, 8))
    kept = copy.deepcopy(first)
    gradients(net, random_batch(net, rng, 8))
    train_step(net, random_batch(net, rng, 8))
    assert first[0] == kept[0]
    for mine, theirs in zip(first[1] + first[2], kept[1] + kept[2]):
        assert np.array_equal(mine, theirs)


def test_train_step_allocates_no_layer_sized_array():
    """Once warm, a step on the default net (333 -> 128 -> 128 -> 108) at
    batch 64 allocates nothing of the 333 x 128 first-layer size; the
    largest array it makes is one 64 x 128 hidden-layer temporary."""
    net = PredictorNet(observation_size(),
                       rng=np.random.default_rng(0))
    assert [w.shape for w in net.weights] == [(128, 333), (128, 128),
                                              (108, 128)]
    batch = random_batch(net, np.random.default_rng(1), 64)
    for _ in range(3):
        train_step(net, batch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_step(net, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 128 * 1024


# -- experience plumbing ----------------------------------------------------------


def test_episode_to_samples_masks_offsets_over_episode_end():
    from goalevo.env import MEASUREMENT_SCALES

    offsets = (1, 2, 4, 8)  # 8 overruns the whole episode
    horizon = 5
    raw = [np.array([4.0 * t, 100.0 - 2 * t, float(t)])
           for t in range(horizon + 1)]
    observations = [np.zeros(3) for _ in range(horizon)]
    actions = [0, 1, 2, 3, 4]
    samples = episode_to_samples(observations, raw, np.zeros(3), actions,
                                 offsets)
    assert len(samples) == horizon
    for t in range(horizon):
        expected_mask = [t + tau <= horizon for tau in offsets]
        assert list(samples.mask[t]) == expected_mask
        np.testing.assert_allclose(
            samples.m_norm[t], np.clip(raw[t] / MEASUREMENT_SCALES, 0.0, 1.0))
        for k, tau in enumerate(offsets):
            if expected_mask[k]:
                np.testing.assert_allclose(
                    samples.targets[t, k],
                    (raw[t + tau] - raw[t]) / MEASUREMENT_SCALES)
            else:
                np.testing.assert_array_equal(samples.targets[t, k], 0.0)


def test_episode_to_samples_targets_not_clipped():
    from goalevo.env import MEASUREMENT_SCALES

    # a jump from 35 to 60 ammo exceeds the observation clip point (40) but
    # the target keeps the full scaled delta
    raw = [np.array([35.0, 100.0, 0.0]), np.array([60.0, 100.0, 0.0])]
    samples = episode_to_samples([np.zeros(2)], raw, np.zeros(3), [0], (1,))
    assert samples.targets[0, 0, 0] == pytest.approx(
        25.0 / MEASUREMENT_SCALES[0])
    assert samples.m_norm[0, 0] == pytest.approx(35.0 / MEASUREMENT_SCALES[0])


def test_episode_to_samples_requires_final_measurements():
    with pytest.raises(ValueError):
        episode_to_samples([np.zeros(2)], [np.zeros(3)], np.zeros(3), [0], (1,))


def random_episode(net, rng, horizon):
    return episode_to_samples(
        rng.normal(size=(horizon, net.obs_dim)),
        rng.uniform(0.0, 60.0, size=(horizon + 1, 3)),
        rng.uniform(-1, 1, 3), rng.integers(net.n_actions, size=horizon),
        net.offsets)


def row_set(rows):
    return {tuple(a[i].tobytes() for a in vars(rows).values())
            for i in range(len(rows))}


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(capacity=3)
    net = tiny_net()
    rng = np.random.default_rng(0)
    samples = random_episode(net, rng, 5)
    buf.extend(samples)
    assert len(buf) == 3
    assert row_set(buf._rows) == row_set(samples[2:])


def test_replay_buffer_matches_a_list_ring():
    capacity = 7
    net = tiny_net()
    rng = np.random.default_rng(1)
    buf = ReplayBuffer(capacity)
    ring, position = [], 0
    # the second episode wraps the ring, the fourth is longer than it
    for horizon in (3, 5, 2, 9, 4):
        rows = random_episode(net, rng, horizon)
        buf.extend(rows)
        for i in range(horizon):
            row = [a[i] for a in vars(rows).values()]
            if len(ring) < capacity:
                ring.append(row)
            else:
                ring[position] = row
            position = (position + 1) % capacity
        assert len(buf) == len(ring)
        batch = buf.sample(np.random.default_rng(horizon), 10)
        picked = np.random.default_rng(horizon).integers(len(ring), size=10)
        for k, got in enumerate(vars(batch).values()):
            want = np.array([ring[i][k] for i in picked])
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_epsilon_schedule_endpoints():
    assert epsilon_at(0, 1.0, 0.1, 100) == 1.0
    assert epsilon_at(50, 1.0, 0.1, 100) == pytest.approx(0.55)
    assert epsilon_at(100, 1.0, 0.1, 100) == pytest.approx(0.1)
    assert epsilon_at(1000, 1.0, 0.1, 100) == pytest.approx(0.1)


def test_config_validation():
    with pytest.raises(ConfigError):
        PredictorConfig(temporal_offsets=())
    with pytest.raises(ConfigError):
        PredictorConfig(temporal_offsets=(2, 1))
    with pytest.raises(ConfigError):
        PredictorConfig(temporal_offsets=(0, 1))
    with pytest.raises(ConfigError):
        PredictorConfig(replay_capacity=10, batch_size=64)
    PredictorConfig()


# -- collection loop ----------------------------------------------------------------


def spy_on_episodes(monkeypatch):
    """The (observations, measurements, goal, actions) that each training
    episode hands to ``episode_to_samples``, in episode order."""
    played = []

    def spy(observations, measurements, goal, actions, offsets):
        played.append((observations, measurements, goal, actions))
        return episode_to_samples(observations, measurements, goal, actions,
                                  offsets)

    monkeypatch.setattr(pred_mod, "episode_to_samples", spy)
    return played


def test_pure_random_policy_has_uniform_action_distribution(monkeypatch):
    played = spy_on_episodes(monkeypatch)
    cfg = empty_room(size=9, episode_length=350)
    config = PredictorConfig(
        temporal_offsets=(1, 2), hidden_sizes=(8,), training_episodes=30,
        epsilon_start=1.0, epsilon_end=1.0, batch_size=8, replay_capacity=100_000)
    collect_and_train(lambda: GridBattleEnv(cfg), config, seed=0)
    counts = np.sum([np.bincount(actions, minlength=6)
                     for *_, actions in played], axis=0)
    n = counts.sum()
    assert n == 30 * 350
    p = 1 / 6
    sigma = math.sqrt(n * p * (1 - p))
    np.testing.assert_array_less(np.abs(counts - n * p), 3 * sigma)


def test_training_episodes_reach_the_samples_as_float32_rows(monkeypatch):
    played = spy_on_episodes(monkeypatch)
    envs = []

    def env_factory():
        envs.append(GridBattleEnv(make_scenario(episode_length=30)))
        return envs[-1]

    config = PredictorConfig(temporal_offsets=(1, 2), hidden_sizes=(8,),
                             training_episodes=3, batch_size=16)
    _, log = collect_and_train(env_factory, config, seed=4)
    for observations, measurements, _, actions in played:
        # N float32 observations and actions; N + 1 (ammo, health, kills)
        # from the reset values to the end of the episode
        assert len(observations) == len(actions) == len(measurements) - 1
        assert all(o.dtype == np.float32 and o.shape == (observation_size(),)
                   for o in observations)
        assert measurements[0] == (20, 100, 0)
        assert set(actions) <= set(range(6))  # counted over the 6 actions
    env = envs[0]
    assert played[-1][1][-1] == (env.ammo, env.health, env.kills)
    assert len(played) == len(log) == 3


def test_goal_sampling_is_uniform_over_episodes(monkeypatch):
    played = spy_on_episodes(monkeypatch)
    cfg = empty_room(size=9, episode_length=2)
    config = PredictorConfig(
        temporal_offsets=(1,), hidden_sizes=(4,), training_episodes=1000,
        epsilon_start=1.0, epsilon_end=1.0, batch_size=4, replay_capacity=10_000)
    collect_and_train(lambda: GridBattleEnv(cfg), config, seed=1)
    goals = np.array([goal for _, _, goal, _ in played])
    assert goals.shape == (1000, 3)
    assert np.all(goals >= -1.0) and np.all(goals <= 1.0)
    assert np.all(np.abs(goals.mean(axis=0)) <= 0.1)


def test_training_halves_held_out_loss():
    scenario = make_scenario(grid_width=13, grid_height=13, n_monsters=2,
                             n_ammo_packs=2, n_health_kits=2,
                             episode_length=120, preset_name="custom")
    offsets = (1, 2, 4, 8)

    # frozen held-out batch from an independent random rollout
    env = GridBattleEnv(scenario)
    rng = np.random.default_rng(99)
    episodes = []
    for ep in range(4):
        env.reset(1000 + ep)
        obs_list, actions = [], []
        m = env.measurements
        m_raw = [(m.ammo, m.health, m.kills)]
        done = False
        while not done:
            obs_list.append(env.observe())
            a = int(rng.integers(6))
            actions.append(a)
            m, done = env.step(a)
            m_raw.append((m.ammo, m.health, m.kills))
        episodes.append(episode_to_samples(obs_list, m_raw,
                                           rng.uniform(-1, 1, 3), actions,
                                           offsets))
    held = Experience(*map(np.concatenate, zip(
        *(vars(e).values() for e in episodes))))[:256]

    # the starting net collect_and_train builds for seed 5
    net = PredictorNet(observation_size(), offsets=offsets, hidden_sizes=(32,),
                       learning_rate=1e-3,
                       rng=np.random.default_rng(derive_seed(5, 0)))
    loss_before = batch_loss(net, held)
    config = PredictorConfig(temporal_offsets=offsets, hidden_sizes=(32,),
                             training_episodes=80, batch_size=32,
                             train_interval=4, learning_rate=1e-3,
                             replay_capacity=50_000)
    trained, log = collect_and_train(lambda: GridBattleEnv(scenario), config,
                                     seed=5)
    loss_after = batch_loss(trained, held)
    assert loss_after <= 0.5 * loss_before
    assert len(log) == 80
    assert math.isfinite(log[-1].loss)


# -- persistence ---------------------------------------------------------------------


def test_save_load_roundtrip_bit_identical(tmp_path):
    net = tiny_net(obs_dim=7, offsets=(1, 2, 4), hidden=(6, 5), n_actions=6,
                   seed=21)
    path = tmp_path / "model.bin"
    save_predictor(net, path, config_echo={"note": "test"})
    loaded, echo = load_predictor(path)
    assert echo == {"note": "test"}
    obs = np.linspace(-1, 1, 7)
    m = Measurements(3, 55, 2)
    g = np.array([0.9, -0.1, 0.4])
    np.testing.assert_array_equal(net.forward(obs, m, g),
                                  loaded.forward(obs, m, g))


def test_save_is_byte_deterministic(tmp_path):
    net = tiny_net(seed=33)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_predictor(net, p1, config_echo={"x": 1})
    save_predictor(net, p2, config_echo={"x": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_checks_header_shapes_before_allocating_the_net(tmp_path):
    """A header naming a 20,000-unit layer over an 8-byte payload must fail
    on its shapes, without building the net it describes."""
    path = tmp_path / "huge.model"
    save_predictor(tiny_net(obs_dim=7, offsets=(1, 2, 4), hidden=(6,)), path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header["hidden_sizes"] = [20000]
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="huge.model"):
            load_predictor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_predictor(path)
