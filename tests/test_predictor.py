import copy
import math

import numpy as np
import pytest

from goalevo import predictor as pred_mod
from goalevo.configio import ConfigError
from goalevo.env import GridBattleEnv, Measurements, observation_size
from goalevo.predictor import (ExperienceSample, PredictorConfig, PredictorNet,
                               ReplayBuffer, batch_loss, collect_and_train,
                               episode_to_samples, epsilon_at, gradients,
                               load_predictor, save_predictor, train_step)

from conftest import empty_room, make_scenario


def tiny_net(obs_dim=2, offsets=(1, 2), hidden=(4,), n_actions=3, seed=0,
             lr=0.05, momentum=0.9):
    return PredictorNet(obs_dim, offsets=offsets, hidden_sizes=hidden,
                        n_actions=n_actions, learning_rate=lr,
                        momentum=momentum, rng=np.random.default_rng(seed))


def random_sample(net, rng, mask=None):
    k = net.n_offsets
    if mask is None:
        mask = rng.random(k) < 0.8
        if not mask.any():
            mask[0] = True
    return ExperienceSample(
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


# -- experience plumbing ----------------------------------------------------------


def test_episode_to_samples_masks_offsets_over_episode_end():
    from goalevo.env import MEASUREMENT_SCALES

    offsets = (1, 2, 4)
    horizon = 5
    raw = [np.array([4.0 * t, 100.0 - 2 * t, float(t)])
           for t in range(horizon + 1)]
    observations = [np.zeros(3) for _ in range(horizon)]
    actions = [0, 1, 2, 3, 4]
    samples = episode_to_samples(observations, raw, np.zeros(3), actions,
                                 offsets)
    assert len(samples) == horizon
    for t, s in enumerate(samples):
        expected_mask = [t + tau <= horizon for tau in offsets]
        assert list(s.mask) == expected_mask
        np.testing.assert_allclose(
            s.m_norm, np.clip(raw[t] / MEASUREMENT_SCALES, 0.0, 1.0))
        for k, tau in enumerate(offsets):
            if expected_mask[k]:
                np.testing.assert_allclose(
                    s.targets[k], (raw[t + tau] - raw[t]) / MEASUREMENT_SCALES)
            else:
                np.testing.assert_array_equal(s.targets[k], 0.0)


def test_episode_to_samples_targets_not_clipped():
    from goalevo.env import MEASUREMENT_SCALES

    # a jump from 35 to 60 ammo exceeds the observation clip point (40) but
    # the target keeps the full scaled delta
    raw = [np.array([35.0, 100.0, 0.0]), np.array([60.0, 100.0, 0.0])]
    sample = episode_to_samples([np.zeros(2)], raw, np.zeros(3), [0], (1,))[0]
    assert sample.targets[0][0] == pytest.approx(25.0 / MEASUREMENT_SCALES[0])
    assert sample.m_norm[0] == pytest.approx(35.0 / MEASUREMENT_SCALES[0])


def test_episode_to_samples_requires_final_measurements():
    with pytest.raises(ValueError):
        episode_to_samples([np.zeros(2)], [np.zeros(3)], np.zeros(3), [0], (1,))


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(capacity=3)
    net = tiny_net()
    rng = np.random.default_rng(0)
    samples = [random_sample(net, rng) for _ in range(5)]
    buf.extend(samples)
    assert len(buf) == 3
    stored = {id(s) for s in buf._items}
    assert stored == {id(s) for s in samples[2:]}


def test_epsilon_schedule_endpoints():
    assert epsilon_at(0, 1.0, 0.1, 100) == 1.0
    assert epsilon_at(50, 1.0, 0.1, 100) == pytest.approx(0.55)
    assert epsilon_at(100, 1.0, 0.1, 100) == pytest.approx(0.1)
    assert epsilon_at(1000, 1.0, 0.1, 100) == pytest.approx(0.1)


def test_config_validation():
    with pytest.raises(ConfigError):
        PredictorConfig(temporal_offsets=()).validate()
    with pytest.raises(ConfigError):
        PredictorConfig(temporal_offsets=(2, 1)).validate()
    with pytest.raises(ConfigError):
        PredictorConfig(temporal_offsets=(0, 1)).validate()
    with pytest.raises(ConfigError):
        PredictorConfig(replay_capacity=10, batch_size=64).validate()
    PredictorConfig().validate()


# -- collection loop ----------------------------------------------------------------


def test_pure_random_policy_has_uniform_action_distribution():
    cfg = empty_room(size=9, episode_length=350)
    config = PredictorConfig(
        temporal_offsets=(1, 2), hidden_sizes=(8,), training_episodes=30,
        epsilon_start=1.0, epsilon_end=1.0, batch_size=8, replay_capacity=100_000)
    _, log = collect_and_train(lambda: GridBattleEnv(cfg), config, seed=0)
    counts = np.sum([row.action_counts for row in log], axis=0)
    n = counts.sum()
    assert n == 30 * 350
    p = 1 / 6
    sigma = math.sqrt(n * p * (1 - p))
    np.testing.assert_array_less(np.abs(counts - n * p), 3 * sigma)


def test_goal_sampling_is_uniform_over_episodes():
    cfg = empty_room(size=9, episode_length=2)
    config = PredictorConfig(
        temporal_offsets=(1,), hidden_sizes=(4,), training_episodes=1000,
        epsilon_start=1.0, epsilon_end=1.0, batch_size=4, replay_capacity=10_000)
    _, log = collect_and_train(lambda: GridBattleEnv(cfg), config, seed=1)
    goals = np.array([row.goal for row in log])
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
    held = []
    for ep in range(4):
        env.reset(1000 + ep)
        obs_list, actions = [], []
        m_raw = [env.measurements.as_array()]
        done = False
        while not done:
            obs_list.append(env.observe())
            a = int(rng.integers(6))
            actions.append(a)
            m, done = env.step(a)
            m_raw.append(m.as_array())
        held.extend(episode_to_samples(obs_list, m_raw,
                                       rng.uniform(-1, 1, 3), actions, offsets))
    held = held[:256]

    net = PredictorNet(observation_size(), offsets=offsets, hidden_sizes=(32,),
                       learning_rate=1e-3, rng=np.random.default_rng(44))
    loss_before = batch_loss(net, held)
    config = PredictorConfig(temporal_offsets=offsets, hidden_sizes=(32,),
                             training_episodes=80, batch_size=32,
                             train_interval=4, learning_rate=1e-3,
                             replay_capacity=50_000)
    trained, log = collect_and_train(lambda: GridBattleEnv(scenario), config,
                                     seed=5, net=net)
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


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_predictor(path)
