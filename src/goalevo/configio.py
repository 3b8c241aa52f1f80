"""Plain-text ``key = value`` config files, field coercion and bounds."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration (bad key, bad value, impossible combination)."""


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def parse_kv_file(path: str | Path) -> dict[str, str]:
    return parse_kv_text(Path(path).read_text())


def parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


_PARSERS = {"bool": parse_bool, "int": int, "float": float, "str": str}


def coerce_value(key: str, value: str, typ: str) -> object:
    """Coerce the config string ``value`` of ``key`` to a field type. Config
    dataclasses live in modules with postponed annotations, so ``typ`` is an
    annotation string: a scalar name or ``tuple[<scalar>, ...]``. A value
    that does not parse raises ConfigError naming the key and the value."""
    scalar = typ.removeprefix("tuple[").removesuffix(", ...]")
    if scalar not in _PARSERS:
        raise ConfigError(f"unsupported config field type {typ!r}")
    parse = _PARSERS[scalar]
    try:
        if scalar == typ:
            return parse(value)
        return tuple(parse(p) for p in value.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def apply_overrides(instance, config: dict[str, str], prefix: str):
    """Return a dataclass copy with the keys ``prefix + <field>`` taken out
    of ``config`` and their string values coerced onto its fields.

    A key under ``prefix`` that names no field, or whose value does not
    parse or fails a check, raises ConfigError naming the key as the config
    file spells it, so typos fail loudly.
    """
    field_types = {f.name: f.type for f in dataclasses.fields(instance)}
    updates = {}
    for key in [k for k in config if k.startswith(prefix)]:
        name = key[len(prefix):]
        if name not in field_types:
            raise ConfigError(
                f"unknown config key {key!r} for {type(instance).__name__}"
            )
        updates[name] = coerce_value(key, config.pop(key), field_types[name])
    try:  # each bound and cross-field message starts with its field name
        return dataclasses.replace(instance, **updates)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def bounded(default, lo=-math.inf, hi=math.inf, open_lo=False, open_hi=False):
    """A dataclass field whose value, or each element of a tuple value,
    ``check_bounds`` requires in [lo, hi], less each end marked open."""
    return dataclasses.field(default=default,
                             metadata={"bounds": (lo, hi, open_lo, open_hi)})


def check_bounds(config) -> None:
    """Raise ConfigError, naming the field, its range and its value, unless
    every number in the fields of the dataclass ``config`` is finite and in
    its ``bounded`` range; strings and booleans are skipped."""
    for f in dataclasses.fields(config):
        lo, hi, open_lo, open_hi = f.metadata.get(
            "bounds", (-math.inf, math.inf, False, False))
        value = getattr(config, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, (str, bool)) or (
                    math.isfinite(v) and (lo < v if open_lo else lo <= v)
                    and (v < hi if open_hi else v <= hi)):
                continue
            if hi < math.inf:
                allowed = (f" in {'(' if open_lo else '['}{lo}, "
                           f"{hi}{')' if open_hi else ']'}")
            else:
                allowed = (f" {'>' if open_lo else '>='} {lo}"
                           if lo > -math.inf else "")
            raise ConfigError(f"{f.name} must be a finite number{allowed}, "
                              f"got {value!r}")
