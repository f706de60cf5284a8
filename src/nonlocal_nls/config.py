"""Experiment configuration: one JSON document drives every subcommand."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput
from .potentials import Potential, _json_float, _json_int


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
        span = 2.0 * self.z_max
        for xi in self.rays:
            if not (-self.z_max + 0.01 * span < xi < self.z_max - 0.01 * span):
                raise BadInput(f"ray xi = {xi} not strictly inside the window")
            if xi - 1.0 < -self.z_max:
                # beta and delta0 serve the xi with [xi - 1, xi] on the grid
                raise BadInput(f"ray xi = {xi} needs xi - 1 >= -z_max = {-self.z_max}")
        if list(self.times) != sorted(self.times):
            raise BadInput("times must be sorted ascending")
        if self.t_min <= 0:
            raise BadInput("t_min must be positive")
        if self.times and self.times[0] < self.t_min:
            raise BadInput(f"times must all be >= t_min = {self.t_min}")
        if self.dt <= 0:
            raise BadInput("dt must be positive")

    def z_grid(self) -> np.ndarray:
        return np.linspace(-self.z_max, self.z_max, self.nz)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BadInput(f"cannot parse config {path}: {exc}") from exc
        return cls.from_json_dict(doc)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict) or "potential" not in doc:
            raise BadInput("config must be an object with a 'potential' entry")
        window, pde = doc.get("window", {}), doc.get("pde", {})
        if not (isinstance(window, dict) and isinstance(pde, dict)):
            raise BadInput("config 'window' and 'pde' must be JSON objects")
        try:
            return cls(
                potential=Potential.from_json_dict(doc["potential"]),
                z_max=_json_float(window.get("z_max", 16.0)),
                nz=_json_int(window.get("n", 2049)),
                rays=[_json_float(v) for v in doc.get("rays", [])],
                times=[_json_float(v) for v in doc.get("times", [])],
                dt=_json_float(pde.get("dt", 5e-3)),
                t_min=_json_float(doc.get("t_min", 10.0)),
            )
        except (TypeError, ValueError) as exc:
            raise BadInput(f"bad config value: {exc}") from exc
