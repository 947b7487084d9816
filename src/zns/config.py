"""Flat key-value experiment configuration files.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Only ``forcing.mode`` may repeat, one ``m1,m2,re,im`` entry per
line; any other key set twice is an error, and every real number must be
finite (the dataclasses refuse any other).  Keys mirror
:class:`zns.harness.ExperimentConfig`; three CLI options override keys:

    n1, n2            mode counts (default 64; ``--resolution R`` sets both to R)
    l1, l2            periods (default 2*pi)
    mu                viscosity (required)
    epsilon           comma-separated positive values (required; ``--epsilon E``
                      of simulate and contraction makes E the only one)
    h                 step size (required)
    t_end             end of the measurement window (required)
    t_spin            start of the window (default 10/nu)
    seed              RNG seed (default 0; ``--seed``)
    omega0_norm       initial |w| (default 1.0)
    record_every      steps between diagnostics rows (default 10)
    blowup_threshold  abort when any |coefficient| exceeds this (default 1e12)
    forcing.sigma     phase-rotation frequency; nonzero makes the forcing
                      time-periodic (default 0, steady)
    forcing.mode      m1,m2,re,im  (repeatable, at least one required)
    tol.<name>        override a Tolerances field, e.g. tol.slope_min = 0.8
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

from .forcing import ForcingSpec
from .harness import ExperimentConfig, Tolerances
from .lattice import Domain


def finite_float(text: str) -> float:
    """Parse a real number, rejecting nan and infinities: for options that reach no dataclass."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_TOL_TYPES = {f.name: type(f.default) for f in fields(Tolerances)}

_SCALARS = {
    "n1": int, "n2": int, "l1": float, "l2": float, "mu": float,
    "h": float, "t_end": float, "t_spin": float, "seed": int,
    "omega0_norm": float, "record_every": int, "blowup_threshold": float,
}

_DOMAIN_FIELDS = {"n1": "N1", "n2": "N2", "l1": "L1", "l2": "L2"}

# Dataclass field -> the key that sets it, so a refused value names its line of the file.
_KEYS = {**{name: key for key, name in _DOMAIN_FIELDS.items()}, "epsilons": "epsilon",
         "sigma": "forcing.sigma", "amplitudes": "forcing.mode",
         **{name: f"tol.{name}" for name in _TOL_TYPES}}


class ConfigError(ValueError):
    pass


def rename_refusal(e: ValueError, names: dict[str, str]) -> str:
    """The message of a refusal ``<field> must be ...``, its field renamed by ``names``."""
    name, must, rest = str(e).partition(" must be ")
    return f"{names.get(name, name)}{must}{rest}"


def read_config_entries(path: Path) -> list[tuple[str, str]]:
    """Raw (key, value) pairs in file order."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        entries.append((key.strip(), value.strip()))
    return entries


def build_config(entries: list[tuple[str, str]], overrides: dict | None = None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from raw entries plus CLI overrides.

    Only the keys that are set reach the dataclasses, so an unset key takes
    the default of its ``ExperimentConfig``, ``Domain`` or ``Tolerances`` field.
    A refused value names its key, unless an override set it (then its field).
    """
    values: dict = {}
    modes: list[tuple[int, int, float, float]] = []
    forcing_values: dict = {}
    tol_values: dict = {}
    seen: set[str] = set()
    for key, value in entries:
        if key in seen and key != "forcing.mode":
            raise ConfigError(f"config key {key!r} is set more than once")
        seen.add(key)
        try:
            if key in _SCALARS:
                values[key] = _SCALARS[key](value)
            elif key == "epsilon":
                values["epsilon"] = tuple(float(v) for v in value.split(","))
            elif key == "forcing.sigma":
                forcing_values["sigma"] = float(value)
            elif key == "forcing.mode":
                parts = value.split(",")
                if len(parts) != 4:
                    raise ConfigError(f"forcing.mode needs m1,m2,re,im; got {value!r}")
                m1, m2, re, im = parts
                modes.append((int(m1), int(m2), complex(float(re), float(im))))
            elif key.startswith("tol."):
                name = key[4:]
                if name not in _TOL_TYPES:
                    raise ConfigError(f"unknown tolerance {name!r}")
                tol_values[name] = _TOL_TYPES[name](value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as e:  # a value that does not parse
            raise ConfigError(f"{key}: {e}") from e

    overridden = {k: v for k, v in (overrides or {}).items() if v is not None}
    values.update(overridden)

    missing = [k for k in ("mu", "epsilon", "h", "t_end") if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if not modes:
        raise ConfigError("at least one forcing.mode entry is required")

    domain = {name: values.pop(key) for key, name in _DOMAIN_FIELDS.items() if key in values}
    values["epsilons"] = values.pop("epsilon")
    try:
        return ExperimentConfig(
            domain=Domain(**domain),
            forcing=ForcingSpec(tuple(modes), **forcing_values),
            tolerances=Tolerances(**tol_values),
            **values,
        )
    except ValueError as e:  # a field that an override set keeps its name, for the caller's
        named = {field: key for field, key in _KEYS.items() if key not in overridden}
        raise ConfigError(rename_refusal(e, named)) from e


def load_config(path: Path, overrides: dict | None = None) -> ExperimentConfig:
    return build_config(read_config_entries(path), overrides)
