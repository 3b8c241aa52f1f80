"""Grid battle environment.

A seeded maze populated with monsters, ammo packs and health kits. The agent
is scored on the measurement triple (ammo, health, kills); scenario presets
``original``, ``hard`` and ``no_ammo`` change monster toughness, starting
resources and the death penalty while keeping the world rules identical.

All randomness flows through one per-episode generator owned by the
environment instance, so (config, seed, action sequence) fully determines a
trajectory. Instances share no state and can run in parallel freely.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .configio import ConfigError, apply_overrides, parse_kv_file

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
DEFAULT_OBS_RADIUS = 4
MONSTER_ADVANCE_PROB = 0.5
MONSTER_AGGRO_RADIUS = 6  # monsters only home within this Chebyshev range
RESPAWN_MIN_DIST = 6  # Chebyshev distance from agent for monster respawns

ITEM_AMMO = "ammo"
ITEM_HEALTH = "health"


class EpisodeFinishedError(RuntimeError):
    """step() was called on an episode that already ended."""


@dataclass(frozen=True)
class Measurements:
    """The (ammo, health, kills) triple that drives and evaluates the agent."""

    ammo: int
    health: int
    kills: int

    def as_array(self) -> np.ndarray:
        return np.array([self.ammo, self.health, self.kills], dtype=float)


def _normalize_raw(ammo: float, health: float, kills: float) -> np.ndarray:
    a = ammo / AMMO_SCALE
    h = health / HEALTH_SCALE
    k = kills / KILLS_SCALE
    return np.array([
        0.0 if a < 0.0 else (1.0 if a > 1.0 else a),
        0.0 if h < 0.0 else (1.0 if h > 1.0 else h),
        0.0 if k < 0.0 else (1.0 if k > 1.0 else k),
    ])


def normalize_measurements(m: Measurements) -> np.ndarray:
    """Scale measurements into [0, 1] (ammo/40, health/100, kills/10, clipped)."""
    return _normalize_raw(m.ammo, m.health, m.kills)


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters. The three presets share everything except the
    knobs listed in their factory functions below."""

    grid_width: int = 32
    grid_height: int = 32
    wall_layout_seed: int = 0
    n_monsters: int = 7
    monster_health: int = 1
    monster_damage: int = 2
    monster_respawn: bool = True
    n_ammo_packs: int = 6
    ammo_per_pack: int = 5
    n_health_kits: int = 8
    health_per_kit: int = 25
    item_respawn_steps: int = 50
    initial_ammo: int = 20
    initial_health: int = 100
    episode_length: int = 525
    death_penalty: float = 0.0
    preset_name: str = "original"

    def validate(self) -> None:
        if self.grid_width < 5 or self.grid_height < 5:
            raise ConfigError("grid must be at least 5x5")
        if not (1 <= self.initial_health <= MAX_HEALTH):
            raise ConfigError("initial_health must be in 1..100")
        if self.episode_length < 1:
            raise ConfigError("episode_length must be positive")
        for name in ("n_monsters", "monster_health", "monster_damage",
                     "n_ammo_packs", "ammo_per_pack", "n_health_kits",
                     "health_per_kit", "initial_ammo", "item_respawn_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.n_monsters > 0 and self.monster_health < 1:
            raise ConfigError("monster_health must be >= 1 when monsters exist")
        if self.death_penalty < 0:
            raise ConfigError("death_penalty must be non-negative")


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


def scenario_from_overrides(overrides: dict[str, str],
                            base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Build a scenario from string overrides; ``preset_name`` picks the base."""
    overrides = dict(overrides)
    if "preset_name" in overrides:
        base = scenario_preset(overrides["preset_name"])
        del overrides["preset_name"]
    elif base is None:
        base = original_scenario()
    cfg = apply_overrides(base, overrides)
    cfg.validate()
    return cfg


def load_scenario(path: str | Path,
                  base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Load a scenario from a ``key = value`` file whose keys match
    ScenarioConfig fields exactly."""
    return scenario_from_overrides(parse_kv_file(path), base=base)


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
    free = ~walls
    labels, n_regions = ndimage.label(
        free, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if n_regions == 0:
        raise ConfigError("wall layout left no free cells")
    if n_regions > 1:
        sizes = np.bincount(labels.ravel())[1:]
        keep = int(np.argmax(sizes)) + 1
        walls |= labels != keep
    return walls


@functools.cache
def _window_offsets(radius: int) -> list[np.ndarray]:
    """Per-heading world offsets for each egocentric window cell.

    Window rows run front-to-back, columns left-to-right from the agent's
    point of view; the agent sits at the center cell.
    """
    side = 2 * radius + 1
    per_heading = []
    for h in range(4):
        f = HEADING_VECS[h]
        r = HEADING_VECS[(h + 1) % 4]
        offs = np.empty((side * side, 2), dtype=np.int64)
        i = 0
        for wr in range(side):
            a = radius - wr  # cells ahead
            for wc in range(side):
                b = wc - radius  # cells to the right
                offs[i, 0] = a * f[0] + b * r[0]
                offs[i, 1] = a * f[1] + b * r[1]
                i += 1
        per_heading.append(offs)
    return per_heading


def observation_size(radius: int = DEFAULT_OBS_RADIUS) -> int:
    """Length of the observation vector: 4 occupancy channels + 3 measurements."""
    side = 2 * radius + 1
    return 4 * side * side + 3


class GridBattleEnv:
    """One agent, one maze, monsters and pickups; gym-style reset/step.

    The wall layout is derived from (config.wall_layout_seed, reset seed), so
    different episode seeds see different mazes from the same family.
    """

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.walls: np.ndarray | None = None
        self.rng: np.random.Generator | None = None
        self._done = True

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int) -> Measurements:
        cfg = self.config
        self.rng = np.random.default_rng(
            np.random.SeedSequence((cfg.wall_layout_seed, int(seed))))
        self.walls = _generate_walls(cfg.grid_width, cfg.grid_height, self.rng)
        self._free_cells = np.argwhere(~self.walls)

        needed = 1 + cfg.n_monsters + cfg.n_ammo_packs + cfg.n_health_kits
        if needed > len(self._free_cells):
            raise ConfigError(
                f"{needed} entities do not fit in {len(self._free_cells)} free cells")
        order = self.rng.permutation(len(self._free_cells))
        cells = [tuple(c) for c in self._free_cells[order].tolist()]

        self.agent_row, self.agent_col = cells[0]
        self.heading = int(self.rng.integers(4))
        # monsters prefer cells away from the spawn so episodes don't open
        # with an unavoidable beating; items go anywhere
        remaining = cells[1:]
        far, near = [], []
        for c in remaining:
            if max(abs(c[0] - self.agent_row),
                   abs(c[1] - self.agent_col)) >= RESPAWN_MIN_DIST:
                far.append(c)
            else:
                near.append(c)
        monster_cells = (far + near)[:cfg.n_monsters]
        used = set(monster_cells)
        item_cells = [c for c in remaining if c not in used]
        self.monsters = [Monster(r, c, cfg.monster_health)
                         for r, c in monster_cells]
        self.items = [Item(r, c, ITEM_AMMO)
                      for r, c in item_cells[:cfg.n_ammo_packs]]
        self.items += [Item(r, c, ITEM_HEALTH)
                       for r, c in item_cells[cfg.n_ammo_packs:
                                              cfg.n_ammo_packs + cfg.n_health_kits]]

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
        for item in self.items:
            if item.respawn_timer > 0:
                item.respawn_timer -= 1
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
        for _ in range(50):
            r, c = candidates[int(self.rng.integers(len(candidates)))]
            r, c = int(r), int(c)
            if self._monster_at(r, c) is None:
                monster.row, monster.col = r, c
                monster.health = self.config.monster_health
                return
        # dense board fallback: park the monster where it died
        monster.health = self.config.monster_health

    def _pickup(self) -> None:
        cfg = self.config
        for item in self.items:
            if not item.active or item.row != self.agent_row \
                    or item.col != self.agent_col:
                continue
            if item.kind == ITEM_AMMO:
                self.ammo += cfg.ammo_per_pack
            else:
                if self.health >= MAX_HEALTH:
                    continue  # kit stays for when it is needed
                self.health = min(MAX_HEALTH, self.health + cfg.health_per_kit)
            item.respawn_timer = (cfg.item_respawn_steps
                                  if cfg.item_respawn_steps > 0 else -1)

    def _monsters_act(self) -> None:
        cfg = self.config
        if not self.monsters:
            return
        ar, ac = self.agent_row, self.agent_col
        advance = self.rng.random(len(self.monsters))
        rand_dirs = self.rng.integers(0, 4, size=len(self.monsters))
        for i, m in enumerate(self.monsters):
            dr = ar - m.row
            dc = ac - m.col
            aggro = max(abs(dr), abs(dc)) <= MONSTER_AGGRO_RADIUS
            if aggro and advance[i] < MONSTER_ADVANCE_PROB:
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
                for tr, tc in tries:
                    if tr == 0 and tc == 0:
                        continue
                    if self._monster_move(m, m.row + tr, m.col + tc):
                        break
            else:
                tr, tc = HEADING_VECS[rand_dirs[i]]
                self._monster_move(m, m.row + tr, m.col + tc)

    def _monster_move(self, m: Monster, row: int, col: int) -> bool:
        if self.walls[row, col]:
            return False
        if row == self.agent_row and col == self.agent_col:
            return False
        if self._monster_at(row, col) is not None:
            return False
        m.row, m.col = row, col
        return True

    # -- observation -------------------------------------------------------

    def observe(self, radius: int = DEFAULT_OBS_RADIUS) -> np.ndarray:
        """Egocentric occupancy channels (wall, monster, ammo, health kit)
        rotated to the agent's heading, plus normalized measurements."""
        offs = _window_offsets(radius)
        side = 2 * radius + 1
        n = side * side
        off = offs[self.heading]
        rows = self.agent_row + off[:, 0]
        cols = self.agent_col + off[:, 1]
        inb = ((rows >= 0) & (rows < self.config.grid_height)
               & (cols >= 0) & (cols < self.config.grid_width))
        vec = np.zeros(4 * n + 3)
        wall_chan = vec[0:n]
        wall_chan[:] = 1.0  # outside the grid counts as wall
        wall_chan[inb] = self.walls[rows[inb], cols[inb]]

        f = HEADING_VECS[self.heading]
        rv = HEADING_VECS[(self.heading + 1) % 4]
        ar, ac = self.agent_row, self.agent_col

        def mark(chan_base: int, row: int, col: int) -> None:
            dr, dc = row - ar, col - ac
            a = dr * f[0] + dc * f[1]
            b = dr * rv[0] + dc * rv[1]
            if -radius <= a <= radius and -radius <= b <= radius:
                vec[chan_base + (radius - a) * side + (radius + b)] = 1.0

        for m in self.monsters:
            mark(n, m.row, m.col)
        for item in self.items:
            if item.active:
                mark(2 * n if item.kind == ITEM_AMMO else 3 * n,
                     item.row, item.col)
        vec[4 * n:] = _normalize_raw(self.ammo, self.health, self.kills)
        return vec


# -- episode records and fitness -------------------------------------------


@dataclass
class EpisodeRecord:
    """Outcome of one finished episode plus optional per-step trace."""

    kills: int
    died: bool
    steps: int
    final_measurements: Measurements
    goal_sum: np.ndarray = field(default_factory=lambda: np.zeros(3))
    goal_steps: int = 0
    trace: list[tuple] | None = None


def episode_fitness(record, config: ScenarioConfig) -> float:
    """Kills minus the death penalty if the agent died."""
    return float(record.kills) - (config.death_penalty if record.died else 0.0)


TRACE_HEADER = ("step", "action", "ammo", "health", "kills",
                "agent_x", "agent_y")


def write_trace_csv(trace: list[tuple], path: str | Path) -> None:
    """Write a per-step episode trace with the documented column layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(trace)
