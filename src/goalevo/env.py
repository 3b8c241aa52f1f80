"""Grid battle environment.

A seeded maze populated with monsters, ammo packs and health kits. The agent
is scored on the measurement triple (ammo, health, kills); scenario presets
``original``, ``hard`` and ``no_ammo`` change monster toughness, starting
resources and the death penalty while keeping the world rules identical.

All randomness flows through one per-episode generator owned by the
environment instance, so (config, seed, action sequence) fully determines a
trajectory. The world that ``reset`` builds depends only on (config, seed),
so it is built once per process and cached; instances share those read-only
initial worlds and nothing else, and can run in parallel freely.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .configio import ConfigError, apply_overrides, bounded, check_bounds

# Measurement normalization scales shared by observations, prediction targets
# and goal-network inputs. Levels are clipped to [0, 1] after scaling;
# prediction targets use the same scales without clipping.
AMMO_SCALE = 40.0
HEALTH_SCALE = 100.0
KILLS_SCALE = 10.0
MEASUREMENT_SCALES = np.array([AMMO_SCALE, HEALTH_SCALE, KILLS_SCALE])

MAX_HEALTH = 100

# Discrete action set, identical across all scenarios.
MOVE_FORWARD = 0
TURN_LEFT = 1
TURN_RIGHT = 2
MOVE_BACKWARD = 3
ATTACK = 4
NOOP = 5
N_ACTIONS = 6
ACTION_NAMES = ("move_forward", "turn_left", "turn_right", "move_backward",
                "attack", "noop")

# Headings in (row, col) deltas: 0=N, 1=E, 2=S, 3=W. The agent's "right" is
# the next heading clockwise.
HEADING_VECS = ((-1, 0), (0, 1), (1, 0), (0, -1))

ATTACK_RANGE = 5  # cells of straight line of sight along the heading
OBS_RADIUS = 4  # the egocentric window is (2 * OBS_RADIUS + 1) cells square
OBS_SIDE = 2 * OBS_RADIUS + 1
MONSTER_ADVANCE_PROB = 0.5
MONSTER_AGGRO_RADIUS = 6  # monsters only home within this Chebyshev range
RESPAWN_MIN_DIST = 6  # Chebyshev distance from agent for monster respawns
# Initial worlds cached per process. Every evaluate provider replays the same
# episode seeds (20 by default) and every genome of an evolve generation the
# same 8, so resets hit the cache while the bound holds one run's seeds.
WORLD_CACHE_SIZE = 64

ITEM_AMMO = "ammo"
ITEM_HEALTH = "health"


class EpisodeFinishedError(RuntimeError):
    """step() was called on an episode that already ended."""


class Measurements(NamedTuple):
    """The (ammo, health, kills) triple that drives and evaluates the agent."""

    ammo: int
    health: int
    kills: int


def _normalize_raw(ammo: float, health: float,
                   kills: float) -> tuple[float, float, float]:
    """``normalize_measurements`` of one triple in Python floats, for observe."""
    a = ammo / AMMO_SCALE
    h = health / HEALTH_SCALE
    k = kills / KILLS_SCALE
    return (0.0 if a < 0.0 else (1.0 if a > 1.0 else a),
            0.0 if h < 0.0 else (1.0 if h > 1.0 else h),
            0.0 if k < 0.0 else (1.0 if k > 1.0 else k))


def normalize_measurements(m) -> np.ndarray:
    """Scale measurements into [0, 1] (ammo/40, health/100, kills/10, clipped):
    one triple, or a sequence or (N, 3) array of them, row by row."""
    return np.clip(np.asarray(m, dtype=float) / MEASUREMENT_SCALES, 0.0, 1.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters. The three presets share everything except the
    knobs listed in their factory functions below."""

    grid_width: int = bounded(32, 5)
    grid_height: int = bounded(32, 5)
    wall_layout_seed: int = bounded(0, 0)
    n_monsters: int = bounded(7, 0)
    monster_health: int = bounded(1, 0)
    monster_damage: int = bounded(2, 0)
    monster_respawn: bool = True
    n_ammo_packs: int = bounded(6, 0)
    ammo_per_pack: int = bounded(5, 0)
    n_health_kits: int = bounded(8, 0)
    health_per_kit: int = bounded(25, 0)
    item_respawn_steps: int = bounded(50, 0)
    initial_ammo: int = bounded(20, 0)
    initial_health: int = bounded(100, 1, MAX_HEALTH)
    episode_length: int = bounded(525, 1)
    death_penalty: float = bounded(0.0, 0.0)
    preset_name: str = "original"

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.n_monsters > 0 and self.monster_health < 1:
            raise ConfigError("monster_health must be >= 1 when monsters exist")
        entities = 1 + self.n_monsters + self.n_ammo_packs + self.n_health_kits
        interior = (self.grid_width - 2) * (self.grid_height - 2)
        if entities > interior:  # walls can only leave fewer free cells
            raise ConfigError(
                f"n_monsters + n_ammo_packs + n_health_kits + 1 agent = "
                f"{entities} entities do not fit in the {interior} interior "
                f"cells of a {self.grid_width}x{self.grid_height} grid")


def original_scenario() -> ScenarioConfig:
    return ScenarioConfig()


def hard_scenario() -> ScenarioConfig:
    """Original with tougher monsters, a frail low-ammo agent and a death
    penalty: monster health doubled, initial health 10, penalty 100, ammo 0."""
    return dataclasses.replace(
        original_scenario(),
        monster_health=2 * original_scenario().monster_health,
        initial_health=10,
        death_penalty=100.0,
        initial_ammo=0,
        preset_name="hard",
    )


def no_ammo_scenario() -> ScenarioConfig:
    """Hard scenario with no ammo packs anywhere."""
    return dataclasses.replace(hard_scenario(), n_ammo_packs=0,
                               preset_name="no_ammo")


_PRESETS = {
    "original": original_scenario,
    "hard": hard_scenario,
    "no_ammo": no_ammo_scenario,
}


def scenario_preset(name: str) -> ScenarioConfig:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scenario preset {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None


def scenario_from_overrides(config: dict[str, str],
                            prefix: str = "") -> ScenarioConfig:
    """Build a scenario from the keys under ``prefix``, taken out of
    ``config``; ``preset_name`` picks the base (default ``original``)."""
    base = scenario_preset(config.pop(prefix + "preset_name", "original"))
    return apply_overrides(base, config, prefix)


@dataclass
class Monster:
    row: int
    col: int
    health: int


@dataclass
class Item:
    row: int
    col: int
    kind: str
    # 0 = active, >0 = steps until respawn, -1 = consumed for good
    respawn_timer: int = 0

    @property
    def active(self) -> bool:
        return self.respawn_timer == 0


def _generate_walls(width: int, height: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Bordered arena with random wall segments; any free pockets that the
    segments cut off are filled in, so all free cells stay mutually reachable."""
    walls = np.zeros((height, width), dtype=bool)
    walls[0, :] = walls[-1, :] = True
    walls[:, 0] = walls[:, -1] = True
    interior = (height - 2) * (width - 2)
    for _ in range(interior // 48):
        r = int(rng.integers(1, height - 1))
        c = int(rng.integers(1, width - 1))
        length = int(rng.integers(3, 9))
        dr, dc = ((0, 1), (1, 0))[int(rng.integers(2))]
        for k in range(length):
            rr, cc = r + dr * k, c + dc * k
            if 1 <= rr < height - 1 and 1 <= cc < width - 1:
                walls[rr, cc] = True
    # Keep the largest 4-connected free region; on a size tie, the one whose
    # first cell comes first in raster order. The border is wall, so a free
    # cell's four neighbours are always inside the grid.
    free = (~walls).ravel().tolist()
    keep: list[int] = []
    for start, is_free in enumerate(free):
        if not is_free:
            continue
        free[start] = False
        region = [start]
        for i in region:  # grows while it is walked
            for j in (i - width, i - 1, i + 1, i + width):
                if free[j]:
                    free[j] = False
                    region.append(j)
        if len(region) > len(keep):
            keep = region
    if not keep:
        raise ConfigError("wall layout left no free cells")
    walls = np.ones(height * width, dtype=bool)
    walls[keep] = False
    return walls.reshape(height, width)


@functools.lru_cache(maxsize=WORLD_CACHE_SIZE)
def _initial_world(cfg: ScenarioConfig, seed: int):
    """The world ``reset(seed)`` starts from: read-only walls and free cells,
    the agent's (row, col, heading), the monster cells, the (row, col, kind)
    of each item, and the generator state after placement. Cached at module
    level because ``neat.evaluate`` plays each episode seed once per genome."""
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.wall_layout_seed, seed)))
    walls = _generate_walls(cfg.grid_width, cfg.grid_height, rng)
    free_cells = np.argwhere(~walls)
    needed = 1 + cfg.n_monsters + cfg.n_ammo_packs + cfg.n_health_kits
    if needed > len(free_cells):
        raise ConfigError(
            f"{needed} entities do not fit in {len(free_cells)} free cells")
    order = rng.permutation(len(free_cells))
    cells = [tuple(c) for c in free_cells[order].tolist()]
    agent_row, agent_col = cells[0]
    heading = int(rng.integers(4))
    # monsters prefer cells away from the spawn so episodes don't open
    # with an unavoidable beating (the stable sort puts far cells first);
    # items go anywhere
    remaining = cells[1:]
    monster_cells = sorted(remaining, key=lambda c: max(
        abs(c[0] - agent_row), abs(c[1] - agent_col)) < RESPAWN_MIN_DIST)
    monster_cells = monster_cells[:cfg.n_monsters]
    used = set(monster_cells)
    item_cells = [c for c in remaining if c not in used]
    kinds = [ITEM_AMMO] * cfg.n_ammo_packs + [ITEM_HEALTH] * cfg.n_health_kits
    items = tuple((r, c, kind) for (r, c), kind in zip(item_cells, kinds))
    walls.flags.writeable = free_cells.flags.writeable = False
    return (walls, free_cells, (agent_row, agent_col, heading),
            tuple(monster_cells), items, rng.bit_generator.state)


# The egocentric view is the north-up window turned by the heading:
# ``_TURN[k](w)`` is ``np.rot90(w, k, axes=(1, 2))`` on a (channel, row, col)
# stack, as basic-slice views that write through to ``w``. Window rows then
# run front-to-back, columns left-to-right from the agent's point of view.
_TURN = (lambda w: w,
         lambda w: w[:, :, ::-1].swapaxes(1, 2),
         lambda w: w[:, ::-1, ::-1],
         lambda w: w[:, ::-1].swapaxes(1, 2))


def observation_size() -> int:
    """Length of the observation vector: 4 occupancy channels + 3 measurements."""
    return 4 * OBS_SIDE * OBS_SIDE + 3


class GridBattleEnv:
    """One agent, one maze, monsters and pickups; gym-style reset/step.

    The wall layout is derived from (config.wall_layout_seed, reset seed), so
    different episode seeds see different mazes from the same family.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # The walls sit inside a frame of wall cells OBS_RADIUS wide, so every
        # observation window lies within the framed array; ``walls`` is its
        # writable grid view, and edits to it show in both.
        r = OBS_RADIUS
        self._framed = np.ones((config.grid_height + 2 * r,
                                config.grid_width + 2 * r), dtype=bool)
        self.walls = self._framed[r:-r, r:-r]
        self.rng = np.random.default_rng(0)  # every reset sets its state
        self._done = True

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int) -> Measurements:
        cfg = self.config
        walls, self._free_cells, agent, monster_cells, items, rng_state = \
            _initial_world(cfg, int(seed))
        self.walls[...] = walls
        self.agent_row, self.agent_col, self.heading = agent
        self.monsters = [Monster(r, c, cfg.monster_health)
                         for r, c in monster_cells]
        self.items = [Item(r, c, kind) for r, c, kind in items]
        self.rng.bit_generator.state = rng_state
        # The generator's held 32-bit half, kept here between syncs
        # because ``_draw_moves`` draws raw words (see there).
        self._has_half = rng_state["has_uint32"]
        self._half = rng_state["uinteger"]

        self.ammo = cfg.initial_ammo
        self.health = cfg.initial_health
        self.kills = 0
        self.steps = 0
        self.alive = True
        self._done = False
        return self.measurements

    @property
    def measurements(self) -> Measurements:
        return Measurements(self.ammo, self.health, self.kills)

    def state_snapshot(self) -> dict:
        """Full comparable state, including the generator state; two envs with
        equal snapshots are bit-identical."""
        self._sync_rng()
        return {
            "agent": (self.agent_row, self.agent_col, self.heading),
            "monsters": tuple((m.row, m.col, m.health) for m in self.monsters),
            "items": tuple((i.row, i.col, i.kind, i.respawn_timer)
                           for i in self.items),
            "measurements": (self.ammo, self.health, self.kills),
            "steps": self.steps,
            "alive": self.alive,
            "walls": self.walls.tobytes(),
            "rng_state": repr(self.rng.bit_generator.state),
        }

    # -- transition --------------------------------------------------------

    def step(self, action: int) -> tuple[Measurements, bool]:
        if self._done:
            raise EpisodeFinishedError("episode is finished; call reset()")
        cfg = self.config
        if action in (MOVE_FORWARD, MOVE_BACKWARD):
            dr, dc = HEADING_VECS[self.heading]
            if action == MOVE_BACKWARD:
                dr, dc = -dr, -dc
            nr, nc = self.agent_row + dr, self.agent_col + dc
            if not self.walls[nr, nc] and self._monster_at(nr, nc) is None:
                self.agent_row, self.agent_col = nr, nc
        elif action == TURN_LEFT:
            self.heading = (self.heading - 1) % 4
        elif action == TURN_RIGHT:
            self.heading = (self.heading + 1) % 4
        elif action == ATTACK:
            if self.ammo > 0:
                self.ammo -= 1
                self._fire()
        elif action == NOOP:
            pass
        else:
            raise ValueError(f"unknown action {action!r}")

        self._pickup()
        self._monsters_act()
        self.steps += 1
        if self.health <= 0:
            self.health = 0
            self.alive = False
        done = (not self.alive) or self.steps >= cfg.episode_length
        self._done = done
        return self.measurements, done

    def _monster_at(self, row: int, col: int) -> Monster | None:
        for m in self.monsters:
            if m.row == row and m.col == col:
                return m
        return None

    def _fire(self) -> None:
        dr, dc = HEADING_VECS[self.heading]
        r, c = self.agent_row, self.agent_col
        for _ in range(ATTACK_RANGE):
            r += dr
            c += dc
            if self.walls[r, c]:
                return
            m = self._monster_at(r, c)
            if m is not None:
                m.health -= 1
                if m.health <= 0:
                    self.kills += 1
                    if self.config.monster_respawn:
                        self._respawn_monster(m)
                    else:
                        self.monsters.remove(m)
                return

    def _respawn_monster(self, monster: Monster) -> None:
        free = self._free_cells
        cheb = np.maximum(np.abs(free[:, 0] - self.agent_row),
                          np.abs(free[:, 1] - self.agent_col))
        candidates = free[cheb >= RESPAWN_MIN_DIST]
        if len(candidates) == 0:
            candidates = free[cheb >= 1]
        self._sync_rng()
        monster.health = self.config.monster_health
        for _ in range(50):
            r, c = candidates[int(self.rng.integers(len(candidates)))]
            r, c = int(r), int(c)
            if self._monster_at(r, c) is None:
                monster.row, monster.col = r, c
                break
        # else, on a dense board, the monster is parked where it died
        state = self.rng.bit_generator.state
        self._has_half, self._half = state["has_uint32"], state["uinteger"]

    def _sync_rng(self) -> None:
        """Write the held half into the generator, for numpy's own draws."""
        state = self.rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self.rng.bit_generator.state = state

    def _pickup(self) -> None:
        """Take an active item on the agent's cell; count respawn timers down."""
        cfg = self.config
        for item in self.items:
            if (item.respawn_timer == 0 and item.row == self.agent_row
                    and item.col == self.agent_col
                    and (item.kind == ITEM_AMMO or self.health < MAX_HEALTH)):
                if item.kind == ITEM_AMMO:
                    self.ammo += cfg.ammo_per_pack
                else:  # a kit stays while health is full
                    self.health = min(MAX_HEALTH,
                                      self.health + cfg.health_per_kit)
                item.respawn_timer = (cfg.item_respawn_steps
                                      if cfg.item_respawn_steps > 0 else -1)
            if item.respawn_timer > 0:
                item.respawn_timer -= 1

    def _draw_moves(self, n: int) -> tuple[list[float], list[int]]:
        """``rng.random(n)`` then ``rng.integers(0, 4, size=n)`` as lists,
        read from one ``random_raw`` call by numpy's own rules for PCG64.

        A double is a word's top 53 bits over 2**53. A direction is the top
        two bits of a 32-bit half: the held half first, then each further
        word's low half and then its high half. The last word's high half is
        kept as the new held half, marked as held if it went unused.
        """
        k = (n - self._has_half + 1) // 2  # words for the directions
        words = self.rng.bit_generator.random_raw(n + k).tolist()
        dirs = [self._half >> 30] if self._has_half else []
        for w in words[n:]:
            dirs += ((w >> 30) & 3, w >> 62)
        if k:
            self._half = words[-1] >> 32
        self._has_half = len(dirs) - n
        return [(w >> 11) * 2.0**-53 for w in words[:n]], dirs[:n]

    def _monsters_act(self) -> None:
        cfg = self.config
        ar, ac = self.agent_row, self.agent_col
        walls, monsters = self.walls, self.monsters
        near = MONSTER_AGGRO_RADIUS
        advance, dirs = self._draw_moves(len(monsters))
        for m, adv, d in zip(monsters, advance, dirs):
            dr = ar - m.row
            dc = ac - m.col
            if (adv < MONSTER_ADVANCE_PROB and -near <= dr <= near
                    and -near <= dc <= near):
                # purposeful act: bite when adjacent, otherwise close in
                if abs(dr) + abs(dc) == 1:
                    self.health = max(0, self.health - cfg.monster_damage)
                    continue
                sr = (dr > 0) - (dr < 0)
                sc = (dc > 0) - (dc < 0)
                if abs(dr) >= abs(dc):
                    tries = ((sr, 0), (0, sc))
                else:
                    tries = ((0, sc), (sr, 0))
            else:
                tries = (HEADING_VECS[d],)
            for tr, tc in tries:
                row, col = m.row + tr, m.col + tc
                if (not (tr or tc) or walls[row, col]
                        or (row == ar and col == ac)):
                    continue
                for other in monsters:  # ``_monster_at``, inlined
                    if other.row == row and other.col == col:
                        break
                else:
                    m.row, m.col = row, col
                    break

    # -- observation -------------------------------------------------------

    def observe(self) -> np.ndarray:
        """Egocentric occupancy channels (wall, monster, ammo, health kit)
        rotated to the agent's heading, plus normalized measurements."""
        side, n = OBS_SIDE, OBS_SIDE * OBS_SIDE
        vec = np.zeros(4 * n + 3)
        # vec's channels turned back to north-up: a view that writes into vec
        win = _TURN[-self.heading % 4](vec[:4 * n].reshape(4, side, side))
        row, col = self.agent_row, self.agent_col  # the window's framed corner
        win[0] = self._framed[row:row + side, col:col + side]
        top, left = row - OBS_RADIUS, col - OBS_RADIUS  # ... in grid cells
        for m in self.monsters:
            dr, dc = m.row - top, m.col - left
            if 0 <= dr < side and 0 <= dc < side:
                win[1, dr, dc] = 1.0
        for item in self.items:
            dr, dc = item.row - top, item.col - left
            if item.active and 0 <= dr < side and 0 <= dc < side:
                win[2 if item.kind == ITEM_AMMO else 3, dr, dc] = 1.0
        vec[4 * n:] = _normalize_raw(self.ammo, self.health, self.kills)
        return vec


# -- fitness ----------------------------------------------------------------


def episode_fitness(env: GridBattleEnv) -> float:
    """Kills minus the death penalty if the agent died, in the env's episode."""
    return float(env.kills) - (0.0 if env.alive else env.config.death_penalty)
