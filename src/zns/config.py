"""Flat key-value experiment configuration files.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  ``forcing.mode`` may repeat, one ``m1,m2,re,im`` entry per line.
Keys mirror :class:`zns.harness.ExperimentConfig`:

    n1, n2            mode counts (default 64)
    l1, l2            periods (default 2*pi)
    mu                viscosity (required)
    epsilon           comma-separated positive values (required)
    h                 step size (required)
    t_end             end of the measurement window (required)
    t_spin            start of the window (default 10/nu)
    seed              RNG seed (default 0)
    omega0_norm       initial |w| (default 1.0)
    record_every      steps between diagnostics rows (default 10)
    blowup_threshold  abort when any |coefficient| exceeds this (default 1e12)
    forcing.kind      steady | time-periodic
    forcing.sigma     temporal frequency (default 0)
    forcing.mode      m1,m2,re,im  (repeatable, at least one required)
    tol.<name>        override a Tolerances field, e.g. tol.slope_min = 0.8
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .forcing import spec_from_entries
from .harness import ExperimentConfig, Tolerances
from .lattice import Domain

_TOL_TYPES = {f.name: type(f.default) for f in fields(Tolerances)}

_SCALARS = {
    "n1": int, "n2": int, "l1": float, "l2": float, "mu": float, "h": float,
    "t_end": float, "t_spin": float, "seed": int, "omega0_norm": float,
    "record_every": int, "blowup_threshold": float,
}

_DOMAIN_FIELDS = {"n1": "N1", "n2": "N2", "l1": "L1", "l2": "L2"}


class ConfigError(ValueError):
    pass


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
    """
    values: dict = {}
    modes: list[tuple[int, int, float, float]] = []
    kind = "steady"
    sigma = 0.0
    tol_values: dict = {}
    try:
        for key, value in entries:
            if key in _SCALARS:
                values[key] = _SCALARS[key](value)
            elif key == "epsilon":
                values["epsilon"] = tuple(float(v) for v in value.split(","))
            elif key == "forcing.kind":
                kind = value
            elif key == "forcing.sigma":
                sigma = float(value)
            elif key == "forcing.mode":
                parts = value.split(",")
                if len(parts) != 4:
                    raise ConfigError(f"forcing.mode needs m1,m2,re,im; got {value!r}")
                modes.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
            elif key.startswith("tol."):
                name = key[4:]
                if name not in _TOL_TYPES:
                    raise ConfigError(f"unknown tolerance {name!r}")
                tol_values[name] = _TOL_TYPES[name](value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
    except ValueError as e:
        raise ConfigError(str(e)) from e

    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    missing = [k for k in ("mu", "epsilon", "h", "t_end") if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if not modes:
        raise ConfigError("at least one forcing.mode entry is required")

    domain = Domain(**{name: values.pop(key)
                       for key, name in _DOMAIN_FIELDS.items() if key in values})
    values["epsilons"] = values.pop("epsilon")
    try:
        return ExperimentConfig(
            domain=domain,
            forcing=spec_from_entries(modes, kind, sigma),
            tolerances=Tolerances(**tol_values),
            **values,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config(path: Path, overrides: dict | None = None) -> ExperimentConfig:
    return build_config(read_config_entries(path), overrides)
