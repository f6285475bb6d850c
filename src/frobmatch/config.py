"""Experiment configuration files: INI-style sections of key=value lines.

Unknown sections or keys are hard errors, as are duplicate keys (reported
with their line number), malformed integers, singular curves, and a fixed
sieve window z outside [3, Z_FIXED_MAX].
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from frobmatch.elliptic import CurveQ


class ConfigError(Exception):
    pass


# Largest fixed sieve window z: the window (z/2, z] then has P = 560 primes,
# which bounds the sieve's P x P Gram matrix and its P-row Legendre blocks.
Z_FIXED_MAX = 10**4


_KNOWN_KEYS = {
    "curve1": {"a", "b"},
    "curve2": {"a", "b"},
    "experiment": {"x_max", "x_checkpoints", "z_policy", "q1", "q2", "cache_dir", "threads"},
}
_REQUIRED_KEYS = {
    "curve1": {"a", "b"},
    "curve2": {"a", "b"},
    "experiment": {"x_max"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    curve1: CurveQ
    curve2: CurveQ
    x_max: int
    x_checkpoints: tuple[int, ...]
    z_policy: str  # "grh" | "uncond" | "fixed"
    z_fixed: float | None
    q1: int | None
    q2: int | None
    cache_dir: str | None
    threads: int


def _int_field(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _default_threads() -> int:
    """The CPUs this process may run on; os.cpu_count() where the platform
    has no affinity call, which also counts CPUs the process may not use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        cp.read_string(text)
    except configparser.DuplicateOptionError as e:
        raise ConfigError(f"line {e.lineno}: duplicate key {e.option!r} in [{e.section}]") from None
    except configparser.Error as e:
        raise ConfigError(str(e)) from None

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for section, keys in _REQUIRED_KEYS.items():
        if section not in cp:
            raise ConfigError(f"missing section [{section}]")
        for key in keys:
            if key not in cp[section]:
                raise ConfigError(f"missing key {key!r} in [{section}]")

    def curve(section: str) -> CurveQ:
        a = _int_field(section, "a", cp[section]["a"])
        b = _int_field(section, "b", cp[section]["b"])
        try:
            return CurveQ(a, b)
        except ValueError as e:
            raise ConfigError(f"[{section}]: {e}") from None

    exp = cp["experiment"]
    x_max = _int_field("experiment", "x_max", exp["x_max"])
    if x_max < 5:
        raise ConfigError(f"x_max must be >= 5, got {x_max}")

    if "x_checkpoints" in exp:
        parts = [s.strip() for s in exp["x_checkpoints"].split(",") if s.strip()]
        checkpoints = tuple(_int_field("experiment", "x_checkpoints", s) for s in parts)
        if not checkpoints:
            raise ConfigError("x_checkpoints is empty")
        if list(checkpoints) != sorted(checkpoints):
            raise ConfigError("x_checkpoints must be ascending")
        if checkpoints[-1] > x_max:
            raise ConfigError("x_checkpoints must not exceed x_max")
    else:
        checkpoints = (x_max,)

    policy_raw = exp.get("z_policy", "grh").strip()
    z_fixed = None
    if policy_raw in ("grh", "uncond"):
        policy = policy_raw
    elif policy_raw.startswith("fixed:"):
        policy = "fixed"
        try:
            z_fixed = float(policy_raw.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"z_policy: bad fixed value in {policy_raw!r}") from None
        if not (math.isfinite(z_fixed) and 3 <= z_fixed <= Z_FIXED_MAX):
            raise ConfigError(
                f"z_policy: fixed z must be finite, >= 3 and <= {Z_FIXED_MAX}, got {z_fixed}"
            )
    else:
        raise ConfigError(f"z_policy must be grh, uncond, or fixed:<z>, got {policy_raw!r}")

    q1 = _int_field("experiment", "q1", exp["q1"]) if "q1" in exp else None
    q2 = _int_field("experiment", "q2", exp["q2"]) if "q2" in exp else None
    if (q1 is None) != (q2 is None):
        raise ConfigError("q1 and q2 must be given together")

    threads = _int_field("experiment", "threads", exp["threads"]) if "threads" in exp else _default_threads()
    if threads < 1:
        raise ConfigError(f"threads must be positive, got {threads}")

    return ExperimentConfig(
        curve1=curve("curve1"),
        curve2=curve("curve2"),
        x_max=x_max,
        x_checkpoints=checkpoints,
        z_policy=policy,
        z_fixed=z_fixed,
        q1=q1,
        q2=q2,
        cache_dir=exp.get("cache_dir") or None,
        threads=threads,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
