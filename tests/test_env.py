import collections
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalevo import env as env_mod
from goalevo.configio import ConfigError, parse_kv_file
from goalevo.env import (ATTACK, MOVE_FORWARD, NOOP, EpisodeFinishedError,
                         GridBattleEnv, Item, Measurements, Monster,
                         episode_fitness, hard_scenario, no_ammo_scenario,
                         normalize_measurements, observation_size,
                         original_scenario, scenario_from_overrides,
                         scenario_preset)

from conftest import clear_interior_walls, empty_room, make_scenario, place_agent


# -- presets -----------------------------------------------------------------


def test_original_preset_initial_measurements():
    env = GridBattleEnv(original_scenario())
    assert env.reset(7) == Measurements(ammo=20, health=100, kills=0)


def test_hard_preset_initial_measurements():
    env = GridBattleEnv(hard_scenario())
    assert env.reset(7) == Measurements(ammo=0, health=10, kills=0)


def test_hard_differs_from_original_exactly_in_four_fields():
    orig = dataclasses.asdict(original_scenario())
    hard = dataclasses.asdict(hard_scenario())
    changed = {k for k in orig if orig[k] != hard[k]}
    assert changed == {"monster_health", "initial_health", "death_penalty",
                       "initial_ammo", "preset_name"}
    assert hard["monster_health"] == 2 * orig["monster_health"]
    assert hard["initial_health"] == 10
    assert hard["death_penalty"] == 100.0
    assert hard["initial_ammo"] == 0


def test_no_ammo_equals_hard_without_ammo_packs():
    hard = dataclasses.asdict(hard_scenario())
    noam = dataclasses.asdict(no_ammo_scenario())
    changed = {k for k in hard if hard[k] != noam[k]}
    assert changed == {"n_ammo_packs", "preset_name"}
    assert noam["n_ammo_packs"] == 0


def test_no_ammo_env_spawns_zero_ammo_items():
    env = GridBattleEnv(no_ammo_scenario())
    for seed in (0, 1, 99):
        env.reset(seed)
        assert all(item.kind != env_mod.ITEM_AMMO for item in env.items)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        scenario_preset("nightmare")


def test_config_error_when_entities_exceed_free_cells():
    with pytest.raises(ConfigError):
        make_scenario(grid_width=6, grid_height=6, n_monsters=40)


def test_reset_error_when_walls_leave_too_few_free_cells():
    # 49 entities fill the 7x7 interior of a 9x9 grid, which the config
    # allows; its one wall segment always starts inside the interior
    cfg = make_scenario(grid_width=9, grid_height=9, n_monsters=34)
    with pytest.raises(ConfigError, match="free cells"):
        GridBattleEnv(cfg).reset(0)


# -- reset structure -----------------------------------------------------------


def _reachable_from(walls, start):
    seen = {start}
    queue = collections.deque([start])
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nxt = (r + dr, c + dc)
            if nxt not in seen and not walls[nxt]:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_every_free_cell_reachable_from_spawn(seed):
    env = GridBattleEnv(original_scenario())
    env.reset(seed)
    reach = _reachable_from(env.walls, (env.agent_row, env.agent_col))
    free = {tuple(c) for c in np.argwhere(~env.walls).tolist()}
    assert reach == free


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_entities_spawn_on_distinct_free_cells(seed):
    env = GridBattleEnv(original_scenario())
    env.reset(seed)
    spots = [(env.agent_row, env.agent_col)]
    spots += [(m.row, m.col) for m in env.monsters]
    spots += [(i.row, i.col) for i in env.items]
    assert len(spots) == len(set(spots))
    for r, c in spots:
        assert not env.walls[r, c]
    assert len(env.monsters) == env.config.n_monsters
    assert len(env.items) == env.config.n_ammo_packs + env.config.n_health_kits


def test_reset_is_bit_identical_for_same_seed():
    a, b = GridBattleEnv(original_scenario()), GridBattleEnv(original_scenario())
    a.reset(42)
    b.reset(42)
    assert a.state_snapshot() == b.state_snapshot()


def test_different_seeds_give_different_worlds():
    a, b = GridBattleEnv(original_scenario()), GridBattleEnv(original_scenario())
    a.reset(1)
    b.reset(2)
    assert a.state_snapshot() != b.state_snapshot()


def test_trajectory_determinism():
    actions = np.random.default_rng(9).integers(0, 6, size=300)
    snaps = []
    for _ in range(2):
        env = GridBattleEnv(original_scenario())
        env.reset(5)
        for action in actions:
            _, done = env.step(int(action))
            if done:
                break
        snaps.append(env.state_snapshot())
    assert snaps[0] == snaps[1]


def _oracle_walls(width, height, rng):
    """The wall rule restated with scipy: the same segments, then every free
    region but the largest labelled one (the first on a tie) becomes wall.
    Also returns the region count and whether the largest size was tied."""
    from scipy import ndimage

    walls = np.zeros((height, width), dtype=bool)
    walls[[0, -1], :] = walls[:, [0, -1]] = True
    for _ in range((height - 2) * (width - 2) // 48):
        r = int(rng.integers(1, height - 1))
        c = int(rng.integers(1, width - 1))
        length = int(rng.integers(3, 9))
        dr, dc = ((0, 1), (1, 0))[int(rng.integers(2))]
        for k in range(length):
            rr, cc = r + dr * k, c + dc * k
            if 0 < rr < height - 1 and 0 < cc < width - 1:
                walls[rr, cc] = True
    labels, n = ndimage.label(~walls)  # the default structure is 4-connected
    sizes = np.bincount(labels.ravel())[1:]
    keep = int(np.argmax(sizes)) + 1
    return labels != keep, n, int((sizes == sizes.max()).sum()) > 1


def test_wall_fill_matches_scipy_label_and_argmax():
    kinds = collections.Counter()
    for height, width in ((9, 9), (10, 11), (12, 12), (16, 24), (32, 32)):
        for seed in range(400):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            walls = env_mod._generate_walls(width, height, rng)
            expected, n_regions, tied = _oracle_walls(width, height, oracle_rng)
            assert np.array_equal(walls, expected), (height, width, seed)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            kinds["layouts"] += 1
            kinds["several regions"] += n_regions > 1
            kinds["tied largest"] += tied
    assert kinds["layouts"] == 2000
    assert kinds["several regions"] >= 100 and kinds["tied largest"] >= 1, kinds


def test_wall_layout_without_free_cells_is_a_config_error():
    class Scripted:  # one 60-cell segment along the only interior row
        draws = iter([1, 1, 60, 0])

        def integers(self, low, high=None):
            return next(self.draws)

    with pytest.raises(ConfigError, match="no free cells"):
        env_mod._generate_walls(50, 3, Scripted())


# -- the per-process world cache --------------------------------------------


def test_reset_after_in_place_edits_matches_a_fresh_env():
    cfg = original_scenario()
    edited = GridBattleEnv(cfg)
    edited.reset(8)
    edited.walls[:, :] = False
    edited._free_cells = np.argwhere(~edited.walls)
    edited.monsters[0].row, edited.monsters[0].health = 1, 0
    edited.monsters.pop()
    edited.items[0].respawn_timer = 7
    edited.items.append(env_mod.Item(1, 1, env_mod.ITEM_AMMO))
    edited.agent_row, edited.heading = 1, 3
    edited.rng.random(5)
    other = GridBattleEnv(cfg)
    edited.reset(8)
    other.reset(8)
    env_mod._initial_world.cache_clear()
    fresh = GridBattleEnv(cfg)
    fresh.reset(8)
    assert edited.state_snapshot() == other.state_snapshot() \
        == fresh.state_snapshot()


def test_cached_world_arrays_are_read_only():
    walls, free_cells, *_ = env_mod._initial_world(original_scenario(), 4)
    with pytest.raises(ValueError):
        walls[1, 1] = True
    with pytest.raises(ValueError):
        free_cells[0, 0] = 0
    env = GridBattleEnv(original_scenario())
    env.reset(4)
    env.walls[1, 1] = True  # each env edits its own copy of the walls
    assert env.walls is not walls and env._free_cells is free_cells


def test_configs_that_differ_in_any_field_never_share_a_world():
    base = original_scenario()
    configs = [base, dataclasses.replace(base, preset_name="custom"),
               dataclasses.replace(base, wall_layout_seed=1)]
    env_mod._initial_world.cache_clear()
    worlds = [env_mod._initial_world(cfg, 5) for cfg in configs]
    assert env_mod._initial_world.cache_info().misses == 3
    assert len({id(world) for world in worlds}) == 3
    assert worlds[0][0].tobytes() != worlds[2][0].tobytes()
    assert env_mod._initial_world(base, 5) is worlds[0]
    assert env_mod._initial_world.cache_info().hits == 1


def _crowded_battle():
    """A 9x9 grid crowded with respawning monsters and an agent with ammo
    to spare, so kills put respawn draws between the monsters' moves."""
    return make_scenario(grid_width=9, grid_height=9, n_monsters=12,
                         n_ammo_packs=3, n_health_kits=3, initial_ammo=40,
                         monster_damage=1, item_respawn_steps=10,
                         episode_length=150, preset_name="custom")


# SHA-256 over the snapshot and observation after each of 300 seeded random
# actions, with a reset to the next seed when an episode ends; recorded on
# numpy 2.4.6, the presets at commit 5ba561d and the crowded battle (mostly
# attacks: 84 respawns, 44 of them while the generator held a 32-bit half)
# at commit 7efc842. It pins the order and values of every draw.
@pytest.mark.parametrize("preset,seed,expected", [
    ("original", 61,
     "7a7811a9cc505e144c4230cd607dee4e3d061030937edfd70695e535de2be83c"),
    ("hard", 62,
     "667627a7739395350e7d3b8e012ce9d6cd30190977fdd06d860b9662994f78bf"),
    ("crowded", 63,
     "61b751a595239359f647330335d74efd74199749eb59b7009768980a496485af"),
])
def test_dynamics_match_the_recorded_digest(preset, seed, expected):
    rng = np.random.default_rng(seed)
    if preset == "crowded":
        env = GridBattleEnv(_crowded_battle())
        actions = rng.choice(env_mod.N_ACTIONS, size=300,
                             p=[0.1, 0.15, 0.15, 0.05, 0.55, 0.0]).tolist()
    else:
        env = GridBattleEnv(scenario_preset(preset))
        actions = rng.integers(env_mod.N_ACTIONS, size=300).tolist()
    digest = hashlib.sha256()
    episode = 0
    env.reset(seed)
    for action in actions:
        _, done = env.step(action)
        digest.update(repr(env.state_snapshot()).encode())
        digest.update(env.observe().tobytes())
        if done:
            episode += 1
            env.reset(seed + episode)
    assert digest.hexdigest() == expected


# -- step mechanics --------------------------------------------------------------


def test_blocked_move_keeps_position():
    env = GridBattleEnv(empty_room())
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 1, 5, heading=0)  # facing the top border wall
    m0 = env.measurements
    env.step(MOVE_FORWARD)
    assert (env.agent_row, env.agent_col) == (1, 5)
    assert env.steps == 1
    assert env.measurements == m0


def test_attack_with_zero_ammo_changes_nothing_but_time():
    env = GridBattleEnv(empty_room(initial_ammo=0))
    env.reset(0)
    snap_before = env.state_snapshot()
    m, done = env.step(ATTACK)
    assert m == Measurements(0, 100, 0)
    assert env.steps == 1
    assert not done
    after = env.state_snapshot()
    assert after["measurements"] == snap_before["measurements"]


def test_attack_kills_adjacent_monster():
    # hand-simulated transition: monster one cell ahead with 1 health, ammo 3
    cfg = empty_room(initial_ammo=3, monster_respawn=False)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    env.monsters = [Monster(9, 10, health=1)]
    m, _ = env.step(ATTACK)
    assert m == Measurements(ammo=2, health=100, kills=1)
    assert env.monsters == []


def test_attack_respects_walls_and_range():
    cfg = empty_room(initial_ammo=5, monster_respawn=False)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    # behind a wall: ray blocked
    env.walls[8, 10] = True
    env.monsters = [Monster(7, 10, health=1)]
    env.step(ATTACK)
    assert env.kills == 0 and env.monsters[0].health == 1
    # beyond attack range (6 > 5)
    env.walls[8, 10] = False
    env.monsters = [Monster(10 - 6, 10, health=1)]
    place_agent(env, 10, 10, heading=0)
    env.step(ATTACK)
    assert env.kills == 0
    # within range, clear line
    env.monsters = [Monster(10 - 5, 10, health=1)]
    place_agent(env, 10, 10, heading=0)
    env.step(ATTACK)
    assert env.kills == 1


def _pin_monster(env, row, col, health):
    """Wall the monster in so random moves cannot relocate it."""
    env.monsters = [Monster(row, col, health)]
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        r, c = row + dr, col + dc
        if (r, c) != (env.agent_row, env.agent_col):
            env.walls[r, c] = True


def test_multi_hit_monster_needs_multiple_bullets():
    # adjacent pinned monster: the second bullet lands the kill
    cfg = empty_room(initial_ammo=5, monster_health=2, monster_damage=4,
                     monster_respawn=False)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=2)  # facing south
    _pin_monster(env, 11, 10, health=2)
    m, _ = env.step(ATTACK)
    assert (m.ammo, m.kills) == (4, 0)
    assert env.monsters[0].health == 1
    m, _ = env.step(ATTACK)
    assert (m.ammo, m.kills) == (3, 1)
    assert env.monsters == []
    # any damage taken is a whole number of bites
    assert (100 - m.health) % cfg.monster_damage == 0


def test_monster_respawns_away_from_agent():
    cfg = empty_room(size=31, initial_ammo=1, monster_respawn=True)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 15, 15, heading=0)
    env.monsters = [Monster(14, 15, health=1)]
    env.step(ATTACK)
    assert env.kills == 1
    assert len(env.monsters) == 1
    m = env.monsters[0]
    assert m.health == cfg.monster_health
    assert max(abs(m.row - 15), abs(m.col - 15)) >= env_mod.RESPAWN_MIN_DIST


def test_item_pickup_and_respawn_cycle():
    cfg = empty_room(initial_ammo=0, item_respawn_steps=3)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    env.items = [Item(9, 10, env_mod.ITEM_AMMO)]
    env.step(MOVE_FORWARD)  # walk onto the pack
    assert env.ammo == cfg.ammo_per_pack
    assert env.items[0].respawn_timer == 2  # set to 3, one tick elapsed
    env.step(NOOP)
    env.step(NOOP)
    assert env.items[0].active
    env.step(NOOP)  # still standing on it: picked up again
    assert env.ammo == 2 * cfg.ammo_per_pack


def test_health_kit_ignored_at_full_health():
    cfg = empty_room()
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    env.items = [Item(9, 10, env_mod.ITEM_HEALTH)]
    env.step(MOVE_FORWARD)
    assert env.health == 100
    assert env.items[0].active  # kit not consumed


def test_health_kit_caps_at_100():
    cfg = empty_room(initial_health=95, health_per_kit=20)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    env.items = [Item(9, 10, env_mod.ITEM_HEALTH)]
    env.step(MOVE_FORWARD)
    assert env.health == 100
    assert not env.items[0].active


def test_adjacent_monster_bites_in_whole_damage_units():
    cfg = empty_room(monster_damage=4, episode_length=80)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    _pin_monster(env, 10, 11, health=2)
    # bites land on roughly half the steps; wait for the first one
    for _ in range(60):
        m, _ = env.step(NOOP)
        if m.health < 100:
            break
    assert m.health == 96
    assert env.monsters[0] == Monster(10, 11, 2)  # pinned monster never moved


def test_death_ends_episode():
    cfg = empty_room(initial_health=4, monster_damage=4, episode_length=200)
    env = GridBattleEnv(cfg)
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    _pin_monster(env, 10, 11, health=2)
    done = False
    while not done:
        m, done = env.step(NOOP)
    assert not env.alive and m.health == 0
    assert env.steps < 200  # killed well before the step limit


def test_episode_ends_at_length_limit():
    cfg = empty_room(episode_length=3)
    env = GridBattleEnv(cfg)
    env.reset(0)
    for _ in range(2):
        _, done = env.step(NOOP)
        assert not done
    _, done = env.step(NOOP)
    assert done and env.alive


def test_step_after_done_raises():
    cfg = empty_room(episode_length=1)
    env = GridBattleEnv(cfg)
    env.reset(0)
    env.step(NOOP)
    with pytest.raises(EpisodeFinishedError):
        env.step(NOOP)
    env.reset(1)  # reset clears the finished flag
    env.step(NOOP)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 5), min_size=20,
                                           max_size=120))
def test_measurement_invariants_under_random_play(seed, actions):
    env = GridBattleEnv(make_scenario(episode_length=150))
    env.reset(seed)
    prev = env.measurements
    for action in actions:
        m, done = env.step(action)
        assert m.ammo >= 0 and 0 <= m.health <= 100 and m.kills >= prev.kills
        delta_ammo = m.ammo - prev.ammo
        if action == ATTACK:
            allowed = {0, -1, env.config.ammo_per_pack,
                       env.config.ammo_per_pack - 1}
        else:
            allowed = {0, env.config.ammo_per_pack}
        assert delta_ammo in allowed
        prev = m
        if done:
            break
    assert env.measurements == prev


def test_no_ammo_episode_never_gains_ammo():
    env = GridBattleEnv(no_ammo_scenario())
    env.reset(11)
    rng = np.random.default_rng(0)
    done = False
    while not done:
        m, done = env.step(int(rng.integers(6)))
        assert m.ammo == 0


# numpy's PCG64 keeps the unused high half of a word for the next 32-bit
# draw. The ``halves_before`` draws leave the generator fresh (0), holding
# a half (1), or with a used half still in ``uinteger`` (2).
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 2),
       st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=1,
                max_size=8))
def test_monster_draws_follow_numpys_rules(seed, halves_before, steps):
    """``_draw_moves(n)`` gives what ``random(n)`` then ``integers(0, 4,
    size=n)`` give and leaves the same generator state, with respawn draws
    between the steps; a numpy release that changes the rules fails here."""
    reference = np.random.default_rng(seed)
    reference.integers(0, 4, size=halves_before)
    env = GridBattleEnv(empty_room(size=31))
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 15, 15, heading=0)
    monster = Monster(15, 16, health=1)  # never a candidate for its respawn
    env.monsters = [monster]
    state = reference.bit_generator.state
    env.rng.bit_generator.state = state
    env._has_half, env._half = state["has_uint32"], state["uinteger"]
    free = env._free_cells
    candidates = free[np.maximum(abs(free[:, 0] - 15), abs(free[:, 1] - 15))
                      >= env_mod.RESPAWN_MIN_DIST].tolist()
    for n, respawn in steps:
        expected = (reference.random(n).tolist(),
                    reference.integers(0, 4, size=n, dtype=np.int64).tolist())
        assert env._draw_moves(n) == expected
        assert env.state_snapshot()["rng_state"] == \
            repr(reference.bit_generator.state)
        if respawn:
            monster.row, monster.col = 15, 16
            env._respawn_monster(monster)
            cell = candidates[int(reference.integers(len(candidates)))]
            assert [monster.row, monster.col] == cell


# -- observation -----------------------------------------------------------------


def test_observation_size_formula():
    assert observation_size() == 4 * 81 + 3  # a radius-4 window


def test_empty_window_is_all_zero_with_full_health_endpoints():
    env = GridBattleEnv(empty_room(size=25, initial_ammo=0))
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 12, 12, heading=1)  # center: no walls within R=4
    obs = env.observe()
    n = 81
    assert not obs[:4 * n].any()
    np.testing.assert_allclose(obs[4 * n:], [0.0, 1.0, 0.0])


def test_wall_ring_visible_near_border():
    env = GridBattleEnv(empty_room(size=25))
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 1, 12, heading=0)  # wall row directly ahead
    obs = env.observe()
    side = 9
    # heading north: the wall row sits one cell ahead = window row 3
    wall = obs[:81].reshape(side, side)
    assert wall[3, :].all()
    assert not wall[4:, 1:8].any()


@pytest.mark.parametrize("heading,monster_pos", [
    (0, (8, 10)),   # north: two cells ahead
    (1, (10, 12)),  # east
    (2, (12, 10)),  # south
    (3, (10, 8)),   # west
])
def test_monster_appears_two_cells_ahead_for_every_heading(heading, monster_pos):
    env = GridBattleEnv(empty_room(size=25))
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=heading)
    env.monsters = [Monster(monster_pos[0], monster_pos[1], health=2)]
    obs = env.observe()
    side, n = 9, 81
    monster = obs[n:2 * n].reshape(side, side)
    expected = np.zeros((side, side))
    expected[2, 4] = 1.0  # two ahead of center (4,4)
    np.testing.assert_array_equal(monster, expected)


def test_right_side_entity_lands_right_of_center():
    env = GridBattleEnv(empty_room(size=25))
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)  # north: right = east
    env.items = [Item(10, 13, env_mod.ITEM_AMMO)]
    obs = env.observe()
    side, n = 9, 81
    ammo_chan = obs[2 * n:3 * n].reshape(side, side)
    assert ammo_chan[4, 7] == 1.0 and ammo_chan.sum() == 1.0


def test_inactive_items_invisible():
    env = GridBattleEnv(empty_room(size=25))
    env.reset(0)
    clear_interior_walls(env)
    place_agent(env, 10, 10, heading=0)
    env.items = [Item(9, 10, env_mod.ITEM_AMMO, respawn_timer=5)]
    obs = env.observe()
    assert not obs[2 * 81:3 * 81].any()


def _oracle_observation(env):
    """The observation by masked indices: each window cell's grid position
    from the heading vectors, cells off the grid read as wall, and each
    monster and active item rotated into the window on its own."""
    radius, side = env_mod.OBS_RADIUS, env_mod.OBS_SIDE
    n = side * side
    fwd = env_mod.HEADING_VECS[env.heading]
    right = env_mod.HEADING_VECS[(env.heading + 1) % 4]
    cells = np.arange(n)
    ahead, across = radius - cells // side, cells % side - radius
    rows = env.agent_row + ahead * fwd[0] + across * right[0]
    cols = env.agent_col + ahead * fwd[1] + across * right[1]
    inb = ((rows >= 0) & (rows < env.config.grid_height)
           & (cols >= 0) & (cols < env.config.grid_width))
    vec = np.zeros(4 * n + 3)
    vec[:n] = 1.0
    vec[:n][inb] = env.walls[rows[inb], cols[inb]]

    def mark(base, row, col):
        dr, dc = row - env.agent_row, col - env.agent_col
        a = dr * fwd[0] + dc * fwd[1]
        b = dr * right[0] + dc * right[1]
        if abs(a) <= radius and abs(b) <= radius:
            vec[base + (radius - a) * side + radius + b] = 1.0

    for m in env.monsters:
        mark(n, m.row, m.col)
    for item in env.items:
        if item.respawn_timer == 0:
            mark(2 * n if item.kind == env_mod.ITEM_AMMO else 3 * n,
                 item.row, item.col)
    vec[4 * n:] = np.clip([env.ammo / env_mod.AMMO_SCALE,
                           env.health / env_mod.HEALTH_SCALE,
                           env.kills / env_mod.KILLS_SCALE], 0.0, 1.0)
    return vec


def _near_border(size):
    r = env_mod.OBS_RADIUS
    return st.one_of(st.integers(0, r), st.integers(size - 1 - r, size - 1),
                     st.integers(0, size - 1))


@st.composite
def _observed_worlds(draw):
    height, width = draw(st.integers(12, 40)), draw(st.integers(12, 40))
    env = GridBattleEnv(make_scenario(grid_height=height, grid_width=width,
                                      episode_length=100))
    env.reset(draw(st.integers(0, 2**31 - 1)))
    for action in draw(st.lists(st.integers(0, 5), max_size=40)):
        if env.step(action)[1]:
            break
    for r, c in draw(st.lists(st.tuples(st.integers(0, height - 1),
                                        st.integers(0, width - 1)),
                              max_size=20)):
        env.walls[r, c] = not env.walls[r, c]  # edited in place after reset
    env.agent_row, env.agent_col = draw(_near_border(height)), \
        draw(_near_border(width))
    env.heading = draw(st.integers(0, 3))
    near = st.integers(-env_mod.OBS_RADIUS - 1, env_mod.OBS_RADIUS + 1)
    for thing in env.monsters + env.items:
        if draw(st.booleans()):  # moved next to the agent, inside the grid
            thing.row = min(max(env.agent_row + draw(near), 0), height - 1)
            thing.col = min(max(env.agent_col + draw(near), 0), width - 1)
    for item in env.items:
        item.respawn_timer = draw(st.sampled_from((0, 0, 1, 17, -1)))
    env.ammo, env.health, env.kills = draw(st.integers(0, 60)), \
        draw(st.integers(0, 100)), draw(st.integers(0, 12))
    return env


@settings(max_examples=150, deadline=None)
@given(_observed_worlds())
def test_observe_matches_the_masked_index_oracle(env):
    assert np.array_equal(env.observe(), _oracle_observation(env))


@pytest.mark.parametrize("k", range(4))
def test_turn_is_rot90_as_a_view(k):
    w = np.arange(2 * 9 * 9).reshape(2, 9, 9)  # no rotation maps it to itself
    turned = env_mod._TURN[k](w)
    assert np.array_equal(turned, np.rot90(w, k, axes=(1, 2)))
    assert np.shares_memory(turned, w)


def test_observation_deterministic():
    env = GridBattleEnv(original_scenario())
    env.reset(3)
    np.testing.assert_array_equal(env.observe(), env.observe())


def test_normalization_scales_and_clipping():
    np.testing.assert_allclose(
        normalize_measurements(Measurements(20, 50, 5)),
        [0.5, 0.5, 0.5])
    np.testing.assert_allclose(
        normalize_measurements(Measurements(100, 100, 100)),
        [1.0, 1.0, 1.0])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-50, 250)] * 3), min_size=1,
                max_size=8))
def test_normalization_is_one_formula_for_records_lists_and_arrays(triples):
    """Bit for bit: each record alone, a list of records, the (N, 3) float
    array that ``episode_to_samples`` passes, and ``observe``'s tail."""
    records = [Measurements(*t) for t in triples]
    rows = normalize_measurements(records)
    assert rows.shape == (len(records), 3)
    assert rows.tobytes() == normalize_measurements(
        np.asarray(records, dtype=float)).tobytes()
    env = GridBattleEnv(original_scenario())
    env.reset(0)
    for record, row in zip(records, rows):
        assert normalize_measurements(record).tobytes() == row.tobytes()
        env.ammo, env.health, env.kills = record
        assert env.observe()[-3:].tobytes() == row.tobytes()
    assert ((rows >= 0.0) & (rows <= 1.0)).all()


def test_measurements_record_repr_immutability_and_key():
    m = Measurements(3, 55, 2)
    assert repr(m) == "Measurements(ammo=3, health=55, kills=2)"
    assert Measurements(*m) == m and (m.ammo, m.health, m.kills) == (3, 55, 2)
    with pytest.raises(AttributeError):
        m.ammo = 4
    goals = {m: "goal"}
    assert goals[Measurements(3, 55, 2)] == "goal"
    assert Measurements(3, 55, 1) not in goals


# -- fitness and interfaces -------------------------------------------------------


def _finished(scenario, kills, died):
    """An env holding an episode that ended with these kills."""
    env = GridBattleEnv(scenario)
    env.reset(0)
    env.kills, env.alive = kills, not died
    return env


def test_fitness_original_no_death_penalty():
    assert episode_fitness(_finished(original_scenario(), 12, True)) == 12.0


def test_fitness_hard_death_penalty():
    assert episode_fitness(_finished(hard_scenario(), 5, True)) == -95.0


def test_fitness_hard_survivor():
    assert episode_fitness(_finished(hard_scenario(), 0, False)) == 0.0


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("preset_name = hard\nmonster_damage = 7\n"
                    "# comment line\nepisode_length = 99\n")
    cfg = scenario_from_overrides(parse_kv_file(path))
    assert cfg.preset_name == "hard"
    assert cfg.monster_damage == 7
    assert cfg.episode_length == 99
    assert cfg.initial_health == 10  # inherited from the hard preset


def test_scenario_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("monster_speed = 3\n")
    with pytest.raises(ConfigError):
        scenario_from_overrides(parse_kv_file(path))


def test_trace_csv_layout(tmp_path):
    from goalevo.cli import TRACE_HEADER, _write_csv
    rows = [(0, "noop", 20, 100, 0, 5, 6), (1, "attack", 19, 100, 1, 5, 6)]
    path = tmp_path / "trace.csv"
    _write_csv(path, TRACE_HEADER, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,action,ammo,health,kills,agent_x,agent_y"
    assert lines[1] == "0,noop,20,100,0,5,6"
