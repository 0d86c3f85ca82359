"""Numeric defaults for the verification suites.

Everything tunable lives here so a run is reproducible from its config
alone.  The only environment hook is SCHLICHT_OUT, which overrides the
output directory for reports and tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Defaults:
    order: int = 64            # truncation order for series work
    tolerance: float = 1e-9    # generic inequality tolerance
    quad: int = 1024           # quadrature nodes on the circle
    eval_radius: float = 0.99  # disk-evaluation guard radius
    eps_unit: float = 1e-12    # near-singular threshold for div/revert
    seed: int = 0
    out_dir: str = field(default_factory=lambda: os.environ.get("SCHLICHT_OUT", "."))


DEFAULTS = Defaults()


def load_config(path=None, **overrides) -> Defaults:
    """Defaults, optionally merged with a JSON config file and overrides."""
    cfg = DEFAULTS
    if path:
        with open(path) as fh:
            data = json.load(fh)
        known = {k: v for k, v in data.items() if hasattr(cfg, k)}
        cfg = replace(cfg, **known)
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
