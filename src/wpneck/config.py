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
    grid_n: int | None = None  # unset: each command's own grid
    tt_k_max: int = 8
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
        if self.grid_n is not None:
            # the TT projection's factored solver borders the k = 0 null
            # directions of an even grid only, and its odd sector needs a node
            if self.grid_n < 4:
                raise ValueError("grid_n must be at least 4")
            if self.grid_n % 2:
                raise ValueError("grid_n must be even")
        if self.tt_k_max < 1:
            raise ValueError("tt_k_max must be at least 1")

    def ell_grid(self) -> list[float]:
        import numpy as np

        return [float(x) for x in np.geomspace(self.ell_min, self.ell_max,
                                               self.ell_count)]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    t = _FIELD_TYPES[name]
    if t in ("int", "int | None"):
        return int(raw)
    if t == "float":
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
