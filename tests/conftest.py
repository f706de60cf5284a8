import numpy as np
import pytest

from nonlocal_nls import Potential, ScatteringData, _cf4, compute_scattering
from nonlocal_nls.phase import SpectralContext


@pytest.fixture(scope="session")
def box_plus():
    return Potential(kind="box", amplitude=0.3, sigma=1,
                     params={"left": -1.0, "right": 1.0}, L=8.0, N=256)


@pytest.fixture(scope="session")
def box_minus():
    return Potential(kind="box", amplitude=0.3, sigma=-1,
                     params={"left": -1.0, "right": 1.0}, L=8.0, N=256)


@pytest.fixture(scope="session")
def gauss_small():
    return Potential(kind="gaussian", amplitude=0.1, sigma=1,
                     params={"width": 1.0}, L=16.0, N=1024)


@pytest.fixture(scope="session")
def zgrid_wide():
    return np.linspace(-16.0, 16.0, 2049)


@pytest.fixture(scope="session")
def box_data(box_plus, zgrid_wide):
    return compute_scattering(box_plus, zgrid_wide)


@pytest.fixture(scope="session")
def box_ctx(box_data):
    return SpectralContext(box_data)


@pytest.fixture(scope="session")
def box_minus_data(box_minus, zgrid_wide):
    return compute_scattering(box_minus, zgrid_wide)


@pytest.fixture(scope="session")
def accept_gauss_data(zgrid_wide):
    """Scattering data of the acceptance-suite gaussian on |z| <= 16."""
    pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                    params={"width": 2.6}, L=512.0, N=2 ** 15)
    return compute_scattering(pot, zgrid_wide)


@pytest.fixture(scope="session")
def accept_gauss_ctx(accept_gauss_data):
    return SpectralContext(accept_gauss_data)


@pytest.fixture(scope="session")
def gauss_small_ctx(gauss_small, zgrid_wide):
    return SpectralContext(compute_scattering(gauss_small, zgrid_wide))


def jost_nodes(potential, z, nodes, n_steps):
    """Y(z, x) at ascending `nodes` from `_cf4._propagate` (constant outside [-X, X]).

    Starts from Y(-X) = I and steps the pieces `_cf4._split` cuts from
    [-X, X] at `nodes` with n_steps in all, as `y_matrix_batch` steps its
    level's pieces cut at 0.  Returns one 4-tuple (Y11, Y12, Y21, Y22) of
    (nz,) arrays per node.
    """
    X = potential.scatter_halfwidth()
    return jost_legs(potential, z, nodes, _cf4._split(potential, -X, X, n_steps, nodes))


def jost_legs(potential, z, nodes, pieces):
    """`jost_nodes` over given pieces (seg_from, seg_to, n) of [-X, X], cut at `nodes`.

    Each leg builds its own coefficient sets, where `y_matrix_batch` shares them."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    X = potential.scatter_halfwidth()
    sp, sm = _cf4._phase_diag(z, X)
    cols = [(np.ones_like(z), np.zeros_like(z)), (np.zeros_like(z), np.ones_like(z))]
    x_cur, out = -X, []
    for x in nodes:
        leg = [p for p in pieces if x_cur < p[1] <= x]
        if leg:
            cols = _cf4._propagate(potential, z, leg, cols, {})
            x_cur = leg[-1][1]
        (t11, t21), (t12, t22) = cols
        ep, em = _cf4._phase_diag(z, x_cur)
        out.append((ep * t11 * sp, ep * t12 * sm, em * t21 * sp, em * t22 * sm))
    return out


def series_entries(coef, b, c):
    """Entries (e11, e12, e21, e22) of exp([[d, b_i], [c_i, -d]]) from segment
    coefficients, summed by `_cf4._series_sums` as the kernel sums them.
    Each entry has shape (b.size, nz)."""
    b, c = np.atleast_1d(b), np.atleast_1d(c)
    e = np.array([row for row, _, _ in _cf4._series_sums(coef, b, c)])
    nz = coef.shape[1] // 3
    s = e[:, 2 * nz:]
    return e[:, :nz], s * b[:, None], s * c[:, None], e[:, nz:2 * nz]


def synthetic_data(z, r_fn, rb_fn):
    """ScatteringData with prescribed reflection functions.

    a = abreve = (1 - r rbreve)^{-1/2} keeps a abreve - b bbreve = 1 exact.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(r_fn(z), dtype=complex)
    rb = np.asarray(rb_fn(z), dtype=complex)
    w = 1.0 - r * rb
    a = w ** -0.5
    return ScatteringData(
        z_grid=z, a=a, a_breve=a.copy(), b=r * a, b_breve=rb * a,
        r=r, r_breve=rb, truncation_error=0.0,
    )


def synthetic_context(z, r_fn, rb_fn):
    """SpectralContext of `synthetic_data`."""
    return SpectralContext(synthetic_data(z, r_fn, rb_fn))


@pytest.fixture()
def make_synthetic():
    return synthetic_context
