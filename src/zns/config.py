"""Flat key-value experiment configuration files.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Only ``forcing.mode`` may repeat, one ``m1,m2,re,im`` entry per
line; any other key set twice is an error, and every real number must be
finite (the dataclasses refuse any other).  ``_SCHEMA`` is the one home of
each key's dataclass field and parser.  A caller's overrides arrive parsed,
each under the name its caller gives it (the CLI's flag), and a refused value
names its key or that name.  The keys:

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


def _mode(text: str) -> tuple[int, int, complex]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"needs m1,m2,re,im; got {text!r}")
    m1, m2, re, im = parts
    return int(m1), int(m2), complex(float(re), float(im))


# Key -> (the dataclass it sets, the field, the parser of its text).
_SCHEMA = {
    "n1": (Domain, "N1", int), "n2": (Domain, "N2", int),
    "l1": (Domain, "L1", float), "l2": (Domain, "L2", float),
    **{key: (ExperimentConfig, key, float)
       for key in ("mu", "h", "t_end", "t_spin", "omega0_norm", "blowup_threshold")},
    **{key: (ExperimentConfig, key, int) for key in ("seed", "record_every")},
    "epsilon": (ExperimentConfig, "epsilons", lambda text: tuple(map(float, text.split(",")))),
    "forcing.sigma": (ForcingSpec, "sigma", float), "forcing.mode": (ForcingSpec, "modes", _mode),
    **{f"tol.{f.name}": (Tolerances, f.name, type(f.default)) for f in fields(Tolerances)},
}


class ConfigError(ValueError):
    pass


def rename_refusal(e: ValueError, names: dict[str, str]) -> str:
    """The message of a refusal ``<field> must be ...``, its field renamed by ``names``."""
    name, must, rest = str(e).partition(" must be ")
    return f"{names.get(name, name)}{must}{rest}"


def load_config(path: Path, overrides: dict | None = None) -> ExperimentConfig:
    """The ExperimentConfig of a config file, each key of ``overrides`` (``{key: (name,
    parsed value)}``) set in place of the file's line.

    Only the keys that are set reach the dataclasses, so an unset key takes
    the default of its ``ExperimentConfig``, ``Domain`` or ``Tolerances`` field.
    A refused value names its key, or the name its override came with.
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, eq, value = line.split("#", 1)[0].partition("=")
        if eq:
            entries.append((key.strip(), value.strip()))
        elif key.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")

    given: dict = {}  # key -> (the name that a refusal of it gives, its value)
    for key, value in entries:
        if key in given and key != "forcing.mode":
            raise ConfigError(f"config key {key!r} is set more than once")
        if key not in _SCHEMA:
            unknown = f"tolerance {key[4:]!r}" if key.startswith("tol.") else f"config key {key!r}"
            raise ConfigError(f"unknown {unknown}")
        try:
            parsed = _SCHEMA[key][2](value)
        except ValueError as e:  # a value that does not parse
            raise ConfigError(f"{key}: {e}") from e
        if key == "forcing.mode":
            parsed = given.get(key, (key, ()))[1] + (parsed,)
        given[key] = (key, parsed)
    given.update(overrides or {})

    missing = [k for k in ("mu", "epsilon", "h", "t_end") if k not in given]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if "forcing.mode" not in given:
        raise ConfigError("at least one forcing.mode entry is required")

    names = {field: key for key, (_, field, _) in _SCHEMA.items()}
    kwargs: dict = {Domain: {}, ForcingSpec: {}, Tolerances: {}, ExperimentConfig: {}}
    for key, (name, value) in given.items():
        cls, field, _ = _SCHEMA[key]
        kwargs[cls][field], names[field] = value, name
    try:
        return ExperimentConfig(domain=Domain(**kwargs[Domain]),
                                forcing=ForcingSpec(**kwargs[ForcingSpec]),
                                tolerances=Tolerances(**kwargs[Tolerances]),
                                **kwargs[ExperimentConfig])
    except ValueError as e:
        raise ConfigError(rename_refusal(e, names)) from e
