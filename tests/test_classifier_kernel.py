"""The grid classifier against the closed-form rule written out cell by cell.

``refraction._propagation`` is the one classifier of ``phase_diagram``,
``classify`` and the lossy normal-incidence path, so its codes are pinned
here against an independent broadcast of the rule of the ``refraction``
module docstring: a cell propagates when sin^2 theta < lim (d > 0) or
sin^2 theta > lim (d < 0), its code is LH where x < 0 and RH otherwise,
and it is TR wherever |d| < DEGENERACY_TOL, t_zz == 0 or d * lim is not
finite.  The grids cover what an index-based expansion can get wrong:
sin^2 theta that is not monotone in theta (theta past pi/2 or below 0),
repeated sin^2 values, lim equal to a grid value, grid sizes at the edges
of the small integer types, masked columns and every TR edge of the code.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mobius_optics import refraction as rf
from mobius_optics import response as rs
from mobius_optics.ring import RingParams

E, H = rf.Polarization.E, rf.Polarization.H
LH, RH, MASKED = (int(c) for c in (rf.Classification.LH, rf.Classification.RH,
                                   rf.Classification.MASKED))
TOL = rf.DEGENERACY_TOL
NAN, INF = float("nan"), float("inf")

CFG = rs.MediumConfig(RingParams(12))
DELTA0 = rs.resonance_frequency(CFG)
BW = rs.bandwidth(CFG)
# above resonance lim = t_zz x lies in (0, 1) at about half of these columns,
# for E and for H (and d < 0 at a few of the H ones)
WIDE = np.linspace(0.2 * DELTA0, 1.8 * DELTA0, 257)
# around resonance: the mu1 < 0 window, its LH band and masked columns
NARROW = np.unique(np.concatenate([np.linspace(DELTA0 - 3 * BW, DELTA0 + 3 * BW, 121),
                                   DELTA0 + np.array([-1e5, 0.0, 1e5])]))


def _entries(tensors, pol):
    """t_yy, t_yz, t_zz and x: t is mu for E and eps for H, x the other's xx."""
    if pol is E:
        t, x = tensors.mu_r, tensors.eps_r[..., 0, 0]
    else:
        t, x = tensors.eps_r, tensors.mu_r[..., 0, 0]
    return t[..., 1, 1], t[..., 1, 2], t[..., 2, 2], x


def _naive(tensors, pol, sin2):
    """(n_theta, n_omega) codes of the rule, one broadcast comparison per cell."""
    tyy, tyz, tzz, x = _entries(tensors, pol)
    s = np.asarray(sin2, dtype=float)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        d = tyy * tzz - tyz * tyz
        lim = tzz * x
        valid = (np.abs(d) >= TOL) & (tzz != 0.0) & np.isfinite(d * lim)
        propagating = ((d > 0.0) & (s < lim)) | ((d < 0.0) & (s > lim))
    code = np.where(x < 0.0, LH, RH) * valid
    codes = (propagating * code).astype(np.int8)
    codes[:, np.asarray(tensors.near_resonance, bool)] = MASKED
    return codes


def _columns(rows):
    """Lossless ResponseTensors, one frequency per (t_yy, t_yz, t_zz, x) row.

    The E-polarized blocks read t from mu_r and x from eps_xx; the other
    entries are those of vacuum.
    """
    tyy, tyz, tzz, x = np.array(rows, dtype=float).reshape(-1, 4).T
    m = tyy.size
    mu, eps = np.zeros((m, 3, 3)), np.zeros((m, 3, 3))
    mu[:, 0, 0] = eps[:, 1, 1] = eps[:, 2, 2] = 1.0
    mu[:, 1, 1], mu[:, 2, 2], eps[:, 0, 0] = tyy, tzz, x
    mu[:, 1, 2] = mu[:, 2, 1] = tyz
    return rs.ResponseTensors(omega=np.full(m, DELTA0), eta=np.zeros(m, complex),
                              eps_r=eps, mu_r=mu, alpha=0.0, beta=0.0,
                              eps1=np.ones(m), mu1=np.ones(m),
                              near_resonance=np.zeros(m, bool))


def _dual(tensors):
    """The same blocks as H-polarized waves see them."""
    return replace(tensors, eps_r=tensors.mu_r, mu_r=tensors.eps_r)


def _check_kernel(rows, sin2):
    tensors = _columns(rows)
    sin2 = np.asarray(sin2, dtype=float)
    want = _naive(tensors, E, sin2)
    for t, pol in ((tensors, E), (_dual(tensors), H)):
        with np.errstate(over="ignore", invalid="ignore"):   # d of the nan and inf rows
            got = rf._propagation(t, pol, sin2[:, None])
        assert got.dtype == np.int8 and got.shape == want.shape
        np.testing.assert_array_equal(got, want, err_msg=str(pol))
    return want


# grid sin^2 values that the lim of some rows below equals exactly
SIN2_EDGES = (0.0, 0.25, 0.5, 1.0)

EDGE_ROWS = [
    # |d| = 0.5 t_zz just below and just above DEGENERACY_TOL, both signs
    (0.5, 0.0, 1.8 * TOL, 1.0), (0.5, 0.0, 2.2 * TOL, 1.0),
    (-0.5, 0.0, 1.8 * TOL, 1.0), (-0.5, 0.0, 2.2 * TOL, 1.0),
    (-0.5, 0.0, 2.2 * TOL, -2.0), (0.5, 0.0, -2.2 * TOL, -2.0),
    # t_zz == 0, with d != 0 and with d == 0
    (1.0, 0.5, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (-1.0, 0.5, 0.0, -1.0),
    # nan and inf entries
    (NAN, 0.3, 0.9, 1.0), (1.2, NAN, 0.9, 1.0), (1.2, 0.3, NAN, 1.0), (1.2, 0.3, 0.9, NAN),
    (INF, 0.3, 0.9, 1.0), (1.2, INF, 0.9, 1.0), (1.2, 0.3, INF, 1.0), (1.2, 0.3, 0.9, INF),
    (-INF, 0.3, 0.9, -1.0), (1.2, 0.3, 0.9, -INF),
    # d * lim overflows although lim is finite, and lim itself overflows
    (1e200, 0.0, 1e200, 1e-300), (1.0, 0.0, 1e200, 1e200),
    # lim = 0 exactly, d of either sign
    (1.0, 0.0, 1.0, 0.0), (-1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, -0.0),
    # ordinary hyperbolic and elliptic blocks, LH and RH
    (-0.7, 0.4, 1.3, -0.8), (-0.7, 0.4, 1.3, 0.6), (1.4, -0.2, 0.8, 1.7), (1.4, -0.2, 0.8, -1.7),
    (2.0, 0.0, 0.5, -1.5), (-2.0, 0.0, 0.5, 3.0), (0.3, 0.1, -0.4, -1.2),
]
# lim = t_zz x equal to a grid value, for d > 0 and d < 0 and either sign of x
for _s in SIN2_EDGES:
    EDGE_ROWS += [(1.0, 0.0, 1.0, _s), (-1.0, 0.0, 1.0, _s),
                  (1.0, 0.0, -1.0, -_s), (-1.0, 0.0, -1.0, -_s)]


def _theta_grid(kind, n):
    if kind == "beyond_quadrant":   # sin^2 not monotone: theta in [-pi, 2 pi]
        return np.linspace(-math.pi, 2.0 * math.pi, n)
    if kind == "plus_minus":        # sin^2(-theta) == sin^2(theta) exactly
        half = np.linspace(0.05, 1.5, n // 2)
        return np.concatenate([-half[::-1], half])
    if kind == "supplementary":     # theta and pi - theta
        half = np.linspace(0.05, 1.5, n // 2)
        return np.concatenate([half, (math.pi - half)[::-1]])
    return np.linspace(0.0, math.radians(89.0), n)


THETA_KINDS = ("quadrant", "beyond_quadrant", "plus_minus", "supplementary")


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_kernel_matches_rule_at_every_edge(kind):
    sin2 = np.concatenate([np.sin(_theta_grid(kind, 64)) ** 2, SIN2_EDGES, SIN2_EDGES])
    codes = _check_kernel(EDGE_ROWS, sin2)
    assert {LH, RH, 0} <= set(np.unique(codes).tolist())


def test_kernel_keeps_rows_in_any_order_with_repeats():
    sin2 = [0.25, 0.25, 0.0, 0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 1.0, 0.25]
    _check_kernel(EDGE_ROWS, sin2)
    _check_kernel(EDGE_ROWS, sin2[::-1])


@pytest.mark.parametrize("n_theta", (1, 2, 255, 256, 257, 65535, 65536))
def test_kernel_at_the_edges_of_the_rank_types(n_theta):
    sin2 = np.sin(np.linspace(-2.0, 2.0, n_theta)) ** 2
    # lims at the smallest, a middle and the largest grid value
    picks = np.sort(sin2)[[0, n_theta // 2, -1]]
    rows = [(sign, 0.0, 1.0, s) for s in picks for sign in (1.0, -1.0)]
    _check_kernel(rows + EDGE_ROWS[:8] + EDGE_ROWS[-8:], sin2)


def test_kernel_on_a_scalar_and_on_one_frequency():
    # classify passes one sin^2 and one frequency, the lossy path sin^2 = 0
    tensors = _columns(EDGE_ROWS)
    want = _naive(tensors, E, [0.0])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(rf._propagation(tensors, E, 0.0), want)
        for row in EDGE_ROWS:
            one = _columns(row)
            one = replace(one, eps_r=one.eps_r[0], mu_r=one.mu_r[0])
            for s in SIN2_EDGES + (0.3,):
                want = _naive(_columns(row), E, [s])[0, 0]
                assert int(rf._propagation(one, E, s)) == want, (row, s)


def _grid_oracle(pol, theta, omega):
    tensors = rs.response_tensors(replace(CFG, lossy=False), omega)
    return _naive(tensors, pol, np.sin(theta) ** 2)


def _exact_lim_thetas(pol, omega, columns=12):
    """theta at a few ulps around arcsin sqrt(lim) for columns with 0 < lim < 1."""
    tensors = rs.response_tensors(replace(CFG, lossy=False), omega)
    _, _, tzz, x = _entries(tensors, pol)
    lim = tzz * x
    inside = lim[(lim > 0.0) & (lim < 1.0)]
    thetas = []
    for value in inside[:: max(1, inside.size // columns)]:
        theta = math.asin(math.sqrt(value))
        for _ in range(4):
            theta = np.nextafter(theta, 0.0)
        for _ in range(9):
            thetas.append(theta)
            theta = np.nextafter(theta, 2.0)
    return np.unique(thetas), lim


@pytest.mark.filterwarnings("ignore:omega grid spacing")   # the wide grid
@pytest.mark.parametrize("pol", (E, H))
@pytest.mark.parametrize("kind", THETA_KINDS)
@pytest.mark.parametrize("omega", (WIDE, NARROW), ids=("wide", "narrow"))
def test_phase_diagram_matches_rule_cell_by_cell(omega, kind, pol):
    theta = _theta_grid(kind, 96)
    got = rf.phase_diagram(CFG, pol, theta, omega).codes
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, _grid_oracle(pol, theta, omega))
    if omega is NARROW:
        assert (got == MASKED).any() and (pol is H or (got == LH).any())


@pytest.mark.filterwarnings("ignore:omega grid spacing")
@pytest.mark.parametrize("pol", (E, H))
def test_phase_diagram_with_lim_on_grid_values(pol):
    theta, lim = _exact_lim_thetas(pol, WIDE)
    assert np.isin(np.sin(theta) ** 2, lim).any()   # some grid value is a lim
    got = rf.phase_diagram(CFG, pol, theta, WIDE).codes
    np.testing.assert_array_equal(got, _grid_oracle(pol, theta, WIDE))


@pytest.mark.filterwarnings("ignore:omega grid spacing")
@pytest.mark.parametrize("n_theta", (1, 255, 256, 65535, 65536))
def test_phase_diagram_at_the_edges_of_the_rank_types(n_theta):
    theta = np.linspace(-2.0, 2.0, n_theta) if n_theta > 1 else np.array([0.4])
    omega = np.unique(np.concatenate([NARROW[::8], WIDE[::32]]))
    pd = rf.phase_diagram(CFG, E, theta, omega)
    want = _grid_oracle(E, theta, omega)
    assert (want == MASKED).any()
    np.testing.assert_array_equal(pd.codes, want)


# ---------------------------------------------------------------------------
# Property: random blocks and grids against the rule
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 1.8 * TOL, -1.8 * TOL, 2.2 * TOL, -2.2 * TOL,
           1e200, -1e200, NAN, INF, -INF)
entries = st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0)
grid_values = st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(entries, entries, entries, entries | grid_values),
                min_size=1, max_size=12),
       st.lists(grid_values, min_size=1, max_size=40))
def test_kernel_matches_rule_on_random_blocks(rows, sin2):
    _check_kernel(rows, sin2)


thetas = st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=60, unique=True).map(sorted)


@pytest.mark.filterwarnings("ignore:omega grid spacing")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(thetas, st.sampled_from((E, H)), st.sampled_from((WIDE, NARROW)))
def test_phase_diagram_matches_rule_on_random_theta_grids(theta, pol, omega):
    theta, omega = np.array(theta), omega[::4]
    got = rf.phase_diagram(CFG, pol, theta, omega).codes
    np.testing.assert_array_equal(got, _grid_oracle(pol, theta, omega))
