"""Experiment configuration: one JSON document drives every subcommand."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asymptotics import _serves
from .errors import BadInput
from .potentials import Potential, _json_float, _json_int, _read_object


#: each JSON object of the config, key -> (field, reader); window and pde hold config fields
_WINDOW = {"z_max": ("z_max", _json_float), "n": ("nz", _json_int)}
_PDE = {"dt": ("dt", _json_float)}
_CONFIG = {"potential": ("potential", Potential.from_json_dict),
           "window": ("window", lambda doc: _read_object(doc, _WINDOW, "window")),
           "pde": ("pde", lambda doc: _read_object(doc, _PDE, "pde")),
           "rays": ("rays", lambda doc: [_json_float(v) for v in doc]),
           "times": ("times", lambda doc: [_json_float(v) for v in doc]),
           "t_min": ("t_min", _json_float)}


@dataclass
class ExperimentConfig:
    potential: Potential
    z_max: float = 16.0
    nz: int = 2049
    rays: list = field(default_factory=list)
    times: list = field(default_factory=list)
    dt: float = 5e-3
    t_min: float = 10.0

    def __post_init__(self):
        numbers = [self.z_max, self.dt, self.t_min, *self.rays, *self.times]
        if not all(np.isfinite(numbers)):
            raise BadInput("window, rays, times, dt and t_min must be finite")
        if self.z_max <= 0 or self.nz < 9 or self.nz % 2 == 0:
            raise BadInput("window needs z_max > 0 and odd nz >= 9")
        for xi in self.rays:
            if not _serves(-self.z_max, self.z_max, xi):
                raise BadInput(f"ray xi = {xi} is not served: it must lie at least 1% of the "
                               f"window's width inside it, with xi - 1 >= -z_max = {-self.z_max}")
        if len(set(self.rays)) < len(self.rays):
            raise BadInput(f"ray xi = {max(self.rays, key=self.rays.count)} is repeated")
        for t0, t1 in zip(self.times, self.times[1:]):
            if not t0 < t1:
                raise BadInput(f"times must be strictly increasing, got {t1} after {t0}")
        if self.t_min <= 0:
            raise BadInput("t_min must be positive")
        if self.times and self.times[0] < self.t_min:
            raise BadInput(f"times must all be >= t_min = {self.t_min}")
        if self.dt <= 0:
            raise BadInput("dt must be positive")

    def z_grid(self) -> np.ndarray:
        """The spectral window: linspace made exactly antisymmetric (z[::-1] == -z)
        so that CF4 folds every window.  linspace is antisymmetric only for a dyadic
        step and is returned unchanged there; elsewhere z moves by <= 1 ulp of z_max."""
        g = np.linspace(-self.z_max, self.z_max, self.nz)
        return 0.5 * (g - g[::-1])

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise BadInput(f"cannot parse config {path}: {exc}") from exc
        return cls.from_json_dict(doc)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        fields = _read_object(doc, _CONFIG, "config", required="potential")
        return cls(**fields.pop("window", {}), **fields.pop("pde", {}), **fields)
