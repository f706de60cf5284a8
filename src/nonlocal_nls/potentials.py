"""Initial data q0(x).

The evolution couples q(x) with conj(q(-x)), so every potential evaluator
exposes both q(x) and the mirrored conjugate m(x) = conj(q(-x)).  They are
the entries of the off-diagonal Lax coefficient

    Q(x) = [[0, q(x)], [-sigma * conj(q(-x)), 0]]

in the linear system  phi_x + i z sigma3 phi = Q phi, which `_cf4` samples
at the Gauss points of each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadInput

#: |q| below this level counts as numerically absent (truncation criterion)
TAIL_LEVEL = 1e-12
#: |q0| / max |q0| and |qhat| / max |qhat| counted as signal
BAND_LEVEL = 1e-10


def _json_int(value) -> int:
    """An integer from JSON: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _json_float(value) -> float:
    """A real number from JSON: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _complex_values(value) -> np.ndarray:
    """Complex values: an array, or from JSON a list of [re, im] pairs of two numbers."""
    if isinstance(value, np.ndarray):
        return value.astype(complex)
    pairs = [(_json_float(re), _json_float(im)) for re, im in value]
    return np.array(pairs).reshape(-1, 2).view(complex).ravel()


def _read_object(doc, table: dict, section: str, required=None) -> dict:
    """{field: reader(doc[key])} for each key of the JSON object `doc`, by `table`, key ->
    (field, reader).  A key `doc` lacks keeps its field's default; a key `table` does not
    define, a bad value and a `doc` without the key `required` are refused."""
    if not isinstance(doc, dict) or (required and required not in doc):
        raise BadInput(f"{section} must be a JSON object"
                       + (f" with the key {required!r}" if required else ""))
    fields = {}
    for key, value in doc.items():
        if key not in table:
            raise BadInput(f"unknown key {key!r} in {section}, which defines {list(table)}")
        field, read = table[key]
        try:
            fields[field] = read(value)
        except (TypeError, ValueError) as exc:
            raise BadInput(f"bad {key!r} in {section}: {exc}") from exc
    return fields


#: the params of each kind, key -> (default, reader); samples has no default
_PARAMS = {"zero": {}, "box": {"left": (-1.0, _json_float), "right": (1.0, _json_float)},
           "gaussian": {"width": (1.0, _json_float), "center": (0.0, _json_float),
                        "chirp": (0.0, _json_float)},
           "samples": {"samples": (None, _complex_values)}}
#: the potential object, key -> (field, reader); Potential reads its params by the kind's table
_POTENTIAL = {"kind": ("kind", str),
              "amplitude": ("amplitude", lambda pair: complex(_complex_values([pair])[0])),
              "sigma": ("sigma", _json_int), "L": ("L", _json_float), "N": ("N", _json_int),
              "params": ("params", lambda params: params)}


def uniform_grid(h: float, n: int) -> np.ndarray:
    """The n-point periodic grid x_j = -h + j * (2h/n) on [-h, h)."""
    return -h + (2.0 * h / n) * np.arange(n)


def _solve_141(d):
    """Solve m_{i-1} + 4 m_i + m_{i+1} = d_i along the last axis, m = 0 past both ends.

    The matrix is diagonal in the sine basis (eigenvalues 4 + 2 cos(k pi/(n+1))),
    so two DST-I, each the real FFT of an odd extension, solve every row at once.
    """
    if np.iscomplexobj(d):
        return _solve_141(d.real) + 1j * _solve_141(d.imag)
    n = d.shape[-1]
    pad = np.zeros(d.shape[:-1] + (1,))

    def dst(v):
        odd = np.concatenate([pad, v, pad, -v[..., ::-1]], axis=-1)
        return -0.5 * np.fft.rfft(odd).imag[..., 1:-1]

    lam = 4.0 + 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return dst(dst(d) / lam) * (2.0 / (n + 1))


class UniformSpline:
    """Cubic spline through y on a uniform grid x (de Boor, ch. IV), natural or not-a-knot.

    x runs along the last axis of y, which may be complex; values come back
    with the leading axes of y first.  The end pieces extrapolate.
    """

    def __init__(self, x, y, natural=False):
        self._x = x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        self._h = (x[-1] - x[0]) / (x.size - 1)
        if x.size < 4 or not np.allclose(np.diff(x), self._h, rtol=1e-9, atol=0.0):
            raise BadInput("a spline needs at least 4 uniformly spaced points")
        # m = h^2 y'' at the knots: m_{i-1} + 4 m_i + m_{i+1} = d_i at inner knots
        d = 6.0 * (y[..., :-2] - 2.0 * y[..., 1:-1] + y[..., 2:])
        m = np.zeros_like(d, shape=y.shape)
        if natural:
            m[..., 1:-1] = _solve_141(d)
        else:
            # m_0 = 2 m_1 - m_2 turns row 1 into 6 m_1 = d_1; the same at the right end
            m[..., 1], m[..., -2] = d[..., 0] / 6.0, d[..., -1] / 6.0
            d[..., 1] -= m[..., 1]
            d[..., -2] -= m[..., -2]
            m[..., 2:-2] = _solve_141(d[..., 1:-1])
            m[..., 0], m[..., -1] = 2.0 * m[..., 1] - m[..., 2], 2.0 * m[..., -2] - m[..., -3]
        y0, y1, m0, m1 = y[..., :-1], y[..., 1:], m[..., :-1], m[..., 1:]
        # Horner coefficients in u = (x - x_i)/h, constant term first
        self._c = np.stack([y0, y1 - y0 - (2.0 * m0 + m1) / 6.0, 0.5 * m0, (m1 - m0) / 6.0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # bin i holds [x_i, x_{i+1}); the end bins reach to -inf and +inf
        i = self._x[1:-1].searchsorted(x, "right")
        u = (x - self._x[i]) / self._h
        c = self._c[..., i]
        return ((c[3] * u + c[2]) * u + c[1]) * u + c[0]


@dataclass
class Potential:
    kind: str
    amplitude: complex = 0.0 + 0.0j
    sigma: int = 1
    L: float = 64.0
    N: int = 4096
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in tuple(_PARAMS):
            raise BadInput(f"unknown potential kind {self.kind!r}")
        if self.sigma not in (1, -1):
            raise BadInput("sigma must be +1 or -1")
        if not (self.L > 0):
            raise BadInput("domain halfwidth L must be positive")
        if self.N < 4 or self.N & (self.N - 1):
            raise BadInput("N must be a power of two >= 4")
        table = _PARAMS[self.kind]
        given = _read_object(self.params, {key: (key, read) for key, (_, read) in table.items()},
                             f"{self.kind} params")
        self.params = {key: given.get(key, default) for key, (default, _) in table.items()}
        self.amplitude = complex(self.amplitude)
        numbers = [self.amplitude.real, self.amplitude.imag, self.L]
        numbers += [v for v in self.params.values() if isinstance(v, float)]
        if not all(np.isfinite(numbers)):
            raise BadInput("amplitude, L and numeric params must be finite")
        self._spline = None
        if self.kind == "box":
            left, right = self.params["left"], self.params["right"]
            if not right > left:
                raise BadInput("box needs right > left")
            if max(abs(left), abs(right)) > self.L:
                raise BadInput("box support must lie inside [-L, L]")
        elif self.kind == "gaussian":
            if self.params["width"] <= 0:
                raise BadInput("gaussian width must be positive")
            if self.tail_bound() > TAIL_LEVEL:
                raise BadInput("gaussian tail exceeds 1e-12 at the edge of [-L, L]")
        elif self.kind == "samples":
            vals = self.params["samples"]
            if vals is None or vals.shape != (self.N,) or not np.isfinite(vals).all():
                raise BadInput("samples params need 'samples': N finite values")
            self._spline = UniformSpline(self.grid(), vals, natural=True)

    # -- evaluation ---------------------------------------------------------

    def grid(self) -> np.ndarray:
        """Uniform symmetric grid x_j = -L + j * (2L/N), j = 0..N-1."""
        return uniform_grid(self.L, self.N)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros(x.shape, dtype=complex)
        if self.kind == "box":
            inside = (x >= self.params["left"]) & (x <= self.params["right"])
            return np.where(inside, self.amplitude, 0.0 + 0.0j)
        if self.kind == "gaussian":
            w, x0, c = self.params["width"], self.params["center"], self.params["chirp"]
            return self.amplitude * np.exp(-(1.0 + 1j * c) * (x - x0) ** 2 / (2.0 * w * w))
        inside = (x >= -self.L) & (x <= self.L)
        out = np.zeros(x.shape, dtype=complex)
        out[inside] = self._spline(x[inside])
        return out

    def mirror_conj(self, x) -> np.ndarray:
        """conj(q(-x)), the partner sample entering the PT-symmetric product."""
        return np.conj(self(-np.asarray(x, dtype=float)))

    @cached_property
    def signal_bandwidth(self) -> float:
        """Largest |k| whose spectral amplitude on the grid exceeds BAND_LEVEL * max |qhat|."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=2.0 * self.L / self.N)
        mag = np.abs(np.fft.fft(self(self.grid())))
        hot = mag > BAND_LEVEL * mag.max(initial=0.0)
        return float(np.abs(k[hot]).max(initial=0.0))

    # -- geometry -----------------------------------------------------------

    def scatter_halfwidth(self) -> float:
        """Halfwidth X such that |q| < 1e-12 * (1 + |A|) outside [-X, X]."""
        if self.kind == "zero":
            return 1.0
        if self.kind == "box":
            return self.breakpoints()[-1] + 0.125
        if self.kind == "gaussian":
            w, x0 = self.params["width"], self.params["center"]
            amp = max(abs(self.amplitude), TAIL_LEVEL)
            reach = w * np.sqrt(2.0 * np.log(amp / (TAIL_LEVEL * 0.1)))
            return min(abs(x0) + reach, self.L)
        q = np.abs(self.params["samples"])
        thresh = TAIL_LEVEL * (1.0 + q.max(initial=0.0))
        hot = np.nonzero(q > thresh)[0]
        if hot.size == 0:
            return 1.0
        x = self.grid()
        return min(max(abs(x[hot[0]]), abs(x[hot[-1]])) + 4.0 * self.L / self.N, self.L)

    def breakpoints(self) -> list[float] | None:
        """Jumps of x -> (q(x), conj(q(-x))), both constant between them; None if smooth.

        `_cf4` plans one step per piece between them, where CF4 is exact.
        """
        if self.kind != "box":
            return None
        left, right = self.params["left"], self.params["right"]
        return sorted({left, right, -left, -right})

    def tail_bound(self) -> float:
        """Upper estimate of sup |q| outside [-L, L].

        For sampled data the edge samples stand in for the invisible tail:
        a sampled potential that has not decayed by the boundary cannot be
        truncated faithfully.
        """
        if self.kind in ("zero", "box"):
            return 0.0
        if self.kind == "samples":
            vals = np.abs(self.params["samples"])
            edge = max(4, self.N // 64)
            return float(max(vals[:edge].max(), vals[-edge:].max()))
        w, x0 = self.params["width"], self.params["center"]
        # a centre outside [-L, L] leaves the peak itself outside
        edge = max(self.L - abs(x0), 0.0)
        return abs(self.amplitude) * float(np.exp(-(edge * edge) / (2.0 * w * w)))

    def l1_bound(self) -> float:
        """Upper bound of int |q| dx over the line.

        Closed forms for zero, box and gaussian (the chirp leaves |q| as it
        is).  Sampled data is the spline on [-L, L]: the knot pieces and the
        last piece's extrapolation over [L - h, L].  On a piece, q is
        sum_k beta_k B_k(u) in the cubic Bernstein basis, so |q| <= sum_k
        |beta_k| B_k(u), and each B_k integrates to 1/4: h/4 sum_k |beta_k|
        bounds the piece's integral.  The margin over int |q| is O(h^2) on
        smooth data (about 1e-7 relative on a chirped gaussian sampled at h = 1/64).
        """
        if self.kind == "zero":
            return 0.0
        if self.kind == "box":
            return abs(self.amplitude) * (self.params["right"] - self.params["left"])
        if self.kind == "gaussian":
            return abs(self.amplitude) * self.params["width"] * float(np.sqrt(2.0 * np.pi))
        c = self._spline._c
        c0, c1, c2, c3 = c[:, -1]
        shifted = np.array([c0 + c1 + c2 + c3, c1 + 2.0 * c2 + 3.0 * c3, c2 + 3.0 * c3, c3])
        c0, c1, c2, c3 = np.concatenate([c, shifted[:, None]], axis=1)
        beta = np.stack([c0, c0 + c1 / 3.0, c0 + (2.0 * c1 + c2) / 3.0, c0 + c1 + c2 + c3])
        return 0.25 * self._spline._h * float(np.abs(beta).sum())

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Potential":
        return cls(**_read_object(doc, _POTENTIAL, "potential", required="kind"))
