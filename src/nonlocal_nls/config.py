"""Experiment configuration: one JSON document drives every subcommand."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import _serves
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
        for xi in self.rays:
            if not _serves(-self.z_max, self.z_max, xi):
                raise BadInput(f"ray xi = {xi} is not served: it must lie at least 1% of the "
                               f"window's width inside it, with xi - 1 >= -z_max = {-self.z_max}")
        if list(self.times) != sorted(self.times):
            raise BadInput("times must be sorted ascending")
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

        def floats(values):
            return [_json_float(v) for v in values]

        # (field, section, key, reader): a key the document lacks takes the field's default
        keys = (("z_max", window, "z_max", _json_float), ("nz", window, "n", _json_int),
                ("rays", doc, "rays", floats), ("times", doc, "times", floats),
                ("dt", pde, "dt", _json_float), ("t_min", doc, "t_min", _json_float))
        try:
            return cls(potential=Potential.from_json_dict(doc["potential"]),
                       **{name: read(sec[key]) for name, sec, key, read in keys if key in sec})
        except (TypeError, ValueError) as exc:
            raise BadInput(f"bad config value: {exc}") from exc
