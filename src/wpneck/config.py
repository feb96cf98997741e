"""Run configuration: declarative key = value file plus flag overrides.

The config file format is one ``key = value`` pair per line, ``#`` comments
allowed.  Unknown and repeated keys are rejected (typos should fail loudly
in batch runs).  The default config path can be set with the WPNECK_CONFIG
environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .surface import ELL_CEILING, ELL_FLOOR

__all__ = ["RunConfig", "load_config", "CONFIG_ENV_VAR"]

CONFIG_ENV_VAR = "WPNECK_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    ell_min: float = 1e-3
    ell_max: float = 1e-1
    ell_count: int = 12
    grid_n: int = 16384
    sweep_grid_n: int = 16384
    modes: int = 4
    cutoff_c: float = 0.5
    barrier_alpha: float = 0.3
    tt_k_max: int = 8
    jobs: int = 1
    seed: int = 1234
    out: str = "-"

    def __post_init__(self):
        for f in fields(self):
            # NaN passes every comparison below as false, and inf as a bound
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.ell_min <= 0 or self.ell_max <= self.ell_min:
            raise ValueError("need 0 < ell_min < ell_max")
        if self.ell_min < ELL_FLOOR:
            raise ValueError(f"ell_min must be at least {ELL_FLOOR:g}, the model's ell floor "
                             f"(got {self.ell_min:g})")
        if self.ell_max > ELL_CEILING:
            raise ValueError(f"ell_max must be at most {ELL_CEILING:.6g} = pi/log 4, the "
                             f"model's ell ceiling (got {self.ell_max:g})")
        if self.ell_count < 2:
            raise ValueError("need at least two sweep points")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for name in ("grid_n", "sweep_grid_n"):
            # the TT projection's factored solver borders the k = 0 null
            # directions of an even grid only, and its odd sector needs a node
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be at least 4")
            if getattr(self, name) % 2:
                raise ValueError(f"{name} must be even")
        if self.modes < 0:
            raise ValueError("modes must be non-negative")
        if not 0.0 < self.barrier_alpha < 1.0:
            raise ValueError("barrier_alpha must lie in (0, 1)")
        if self.tt_k_max < 1:
            raise ValueError("tt_k_max must be at least 1")
        if not 0.0 < self.cutoff_c <= 0.5:
            raise ValueError("cutoff_c must lie in (0, 1/2], below the barrier source")

    def ell_grid(self) -> list[float]:
        import numpy as np

        return [float(x) for x in np.geomspace(self.ell_min, self.ell_max,
                                               self.ell_count)]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    t = _FIELD_TYPES[name]
    if t in ("int", int):
        return int(raw)
    if t in ("float", float):
        return float(raw)
    return raw


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Config from (optional) file plus overrides; env var supplies the
    default path when none is given."""
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        updates = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in _FIELD_TYPES:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                if key in updates:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
                updates[key] = _coerce(key, raw)
        cfg = replace(cfg, **updates)
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        bad = set(clean) - set(_FIELD_TYPES)
        if bad:
            raise ValueError(f"unknown config overrides: {sorted(bad)}")
        cfg = replace(cfg, **clean)
    return cfg
