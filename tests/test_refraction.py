import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mobius_optics import cli
from mobius_optics import refraction as rf
from mobius_optics import response as rs
from mobius_optics.constants import EV, HBAR, NM, NS
from mobius_optics.ring import RingParams

CFG = rs.MediumConfig(RingParams(12))
DELTA0 = rs.resonance_frequency(CFG)
BW = rs.bandwidth(CFG)
ZEROS = CFG.resonance.mu1_zeros
WINDOW_MID = DELTA0 + 0.5 * (ZEROS[0] + ZEROS[1])
E, H = rf.Polarization.E, rf.Polarization.H
LH, RH, TR = rf.Classification.LH, rf.Classification.RH, rf.Classification.TR


def wave(pol, theta_deg, om):
    return rf.IncidentWave(pol, math.radians(theta_deg), om)


def _oracle_roots(t, w):
    """Both complex k_tz roots of the oracle's quadratic, '+' discriminant first."""
    return _fresnel_oracle(*rf._blocks(t, w.polarization), w.k_iy, w.k_i)[4]


def test_identity_medium_roots_and_classification():
    # on resonance the lossless response vanishes and the medium is vacuum
    t = rs.response_tensors(CFG, DELTA0)
    for theta in (0.0, 20.0, 75.0):
        for pol in (E, H):
            w = wave(pol, theta, DELTA0)
            expected = w.k_i * math.cos(w.theta)
            roots = _oracle_roots(t, w)
            assert sorted(np.real(roots)) == pytest.approx([-expected, expected], rel=1e-12)
            assert np.abs(np.imag(roots)).max() < 1e-12 * w.k_i
            res = rf.classify(t, w)
            assert res.classification is RH
            assert res.k_tz == pytest.approx(expected, rel=1e-12)


def _closed_form_roots_E(t, w):
    """Closed-form root expression, an independent check on the quadratic."""
    h = t.eta.real
    a, b = CFG.resonance.alpha, CFG.resonance.beta
    mu1 = 1 - (a**2 + 4 * b**2) * h
    mu_yz = -2 * a * b * h
    mu_zz = 1 - 4 * b**2 * h
    disc = mu1 * ((1 - h) * (1 - 4 * b**2 * h) - math.sin(w.theta) ** 2)
    root = np.sqrt(complex(disc))
    return np.array([
        (w.k_i * root - mu_yz * w.k_iy) / mu_zz,
        (-w.k_i * root - mu_yz * w.k_iy) / mu_zz,
    ])


def test_quadratic_matches_closed_form_roots():
    rng = np.random.default_rng(7)
    propagating = 0
    for _ in range(1000):
        om = DELTA0 + rng.uniform(-20 * BW, 20 * BW)
        theta = rng.uniform(0.0, 89.0)
        t = rs.response_tensors(CFG, om)
        w = wave(E, theta, om)
        want = _closed_form_roots_E(t, w)
        scale = max(abs(z) for z in want) + w.k_i
        got = np.sort_complex(_oracle_roots(t, w))
        assert np.abs(got - np.sort_complex(want)).max() < 1e-10 * scale
        res = rf.classify(t, w)
        if res.classification is not TR:
            # the causal branch is the '+' root where mu1 > 0 and the '-' root where mu1 < 0
            assert abs(res.k_tz - want[0 if t.mu1 > 0 else 1]) < 1e-10 * scale
            propagating += 1
    assert propagating > 100


def test_total_reflection_when_discriminant_negative():
    # mu1 > 0 but eta' > 1: no real propagating root
    om = DELTA0 + 2.5 * ZEROS[1]
    t = rs.response_tensors(CFG, om)
    assert t.mu1 > 0 and t.eta.real > 1
    w = wave(E, 10.0, om)
    roots = _oracle_roots(t, w)
    assert np.abs(np.imag(roots)).min() > 1e-6 * w.k_i
    res = rf.classify(t, w)
    assert res.classification is TR
    assert res.k_tz is None and res.poynting_dir is None


def test_branch_flip_reverses_energy_flow():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        om = DELTA0 + rng.uniform(-20 * BW, 20 * BW)
        theta = rng.uniform(0.0, 89.0)
        t = rs.response_tensors(CFG, om)
        w = wave(E, theta, om)
        roots = _oracle_roots(t, w)
        if np.abs(np.imag(roots)).max() > 1e-12 * w.k_i:
            continue
        s0 = rf._poynting(t, E, w.k_iy, roots[0].real)[1]
        s1 = rf._poynting(t, E, w.k_iy, roots[1].real)[1]
        assert s0 * s1 < 0, "the two branches must carry opposite S_tz"
        checked += 1


def test_left_handed_inside_negative_mu_window():
    t = rs.response_tensors(CFG, WINDOW_MID)
    assert t.mu1 < 0
    for theta in (0.0, 15.0, 45.0, 80.0):
        w = wave(E, theta, WINDOW_MID)
        res = rf.classify(t, w)
        assert res.classification is LH
        s_ty, s_tz = res.poynting_dir
        assert s_tz > 0
        assert w.k_iy * s_ty + res.k_tz * s_tz < 0


def test_poynting_nearly_parallel_to_wavevector_far_below_resonance():
    om = 0.5 * DELTA0
    t = rs.response_tensors(CFG, om)
    w = wave(E, 30.0, om)
    res = rf.classify(t, w)
    assert res.classification is RH
    k = np.array([w.k_iy, res.k_tz])
    s = np.array(res.poynting_dir)
    cosang = np.dot(k, s) / (np.linalg.norm(k) * np.linalg.norm(s))
    assert cosang > 0.999


def test_h_polarization_never_left_handed_on_default_grid():
    theta = np.linspace(0.0, math.radians(89.0), 128)
    omega = np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 512)
    pd = rf.phase_diagram(CFG, H, theta, omega)
    assert pd.count(rf.Classification.LH) == 0
    assert pd.count(rf.Classification.RH) > 0
    assert pd.count(rf.Classification.TR) > 0


def test_h_polarization_total_reflection_far_above_resonance_at_grazing():
    om = 1.4 * DELTA0
    t = rs.response_tensors(CFG, om)
    found_tr = any(
        rf.classify(t, wave(H, th, om)).classification is TR
        for th in (80.0, 85.0, 89.0)
    )
    assert found_tr


def test_duality_between_polarizations():
    # swapping the tensors maps one polarization's roots and class onto the other's
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = rng.uniform(-0.8, 0.8)
        yz = rng.uniform(-0.3, 0.3, size=2)
        eps = np.diag([1 - h, 1 + 0.3 * h, 1 - 0.4 * h])
        eps[1, 2] = eps[2, 1] = yz[0]
        mu = np.diag([1 + 0.2 * h, 1 - 0.1 * h, 1 + 0.5 * h])
        mu[1, 2] = mu[2, 1] = yz[1]
        om = DELTA0
        base = dict(omega=om, eta=0j, eps1=1.0, mu1=1.0, near_resonance=False)
        t_e = rs.ResponseTensors(eps_r=eps, mu_r=mu, **base)
        t_h = rs.ResponseTensors(eps_r=mu, mu_r=eps, **base)
        w_e = wave(E, 25.0, om)
        w_h = wave(H, 25.0, om)
        np.testing.assert_allclose(_oracle_roots(t_e, w_e), _oracle_roots(t_h, w_h), rtol=1e-12)
        res_e, res_h = rf.classify(t_e, w_e), rf.classify(t_h, w_h)
        assert res_e.classification is res_h.classification
        if res_e.classification is not TR:
            assert res_e.k_tz == pytest.approx(res_h.k_tz, rel=1e-12)


def test_grid_cells_are_exhaustive_and_lh_implies_negative_mu1():
    theta = np.linspace(0.0, math.radians(89.0), 64)
    omega = np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 256)
    pd = rf.phase_diagram(CFG, E, theta, omega)
    assert set(np.unique(pd.codes)) <= {-1, 0, 1, 2}
    mu1_vals = np.array([rs.response_tensors(CFG, om).mu1 for om in omega])
    lh_cols = (pd.codes == int(LH)).any(axis=0)
    assert np.all(mu1_vals[lh_cols] < 0)


def test_propagating_exactly_when_roots_are_real_and_distinct():
    theta = np.linspace(0.0, math.radians(89.0), 16)
    omega = np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 64)
    for om in omega:
        t = rs.response_tensors(CFG, om)
        for pol in (E, H):
            for th in theta:
                w = rf.IncidentWave(pol, float(th), float(om))
                res = rf.classify(t, w)
                roots = _oracle_roots(t, w)
                real = np.all(roots.imag == 0.0) and roots[0] != roots[1]
                assert (res.classification is not TR) == real
                if real:
                    assert res.poynting_dir[1] > 0.0


def test_phase_diagram_lh_band_bounded_by_mu1_zeros():
    theta = np.linspace(0.0, math.radians(89.0), 32)
    omega = np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 512)
    pd = rf.phase_diagram(CFG, E, theta, omega)
    lh_cols = np.where((pd.codes == int(LH)).any(axis=0))[0]
    assert lh_cols.size > 0
    assert np.array_equal(lh_cols, np.arange(lh_cols[0], lh_cols[-1] + 1))
    step = omega[1] - omega[0]
    assert abs(omega[lh_cols[0]] - (DELTA0 + ZEROS[0])) <= step
    assert abs(omega[lh_cols[-1]] - (DELTA0 + ZEROS[1])) <= step


@pytest.mark.parametrize("omega", ([0.0, DELTA0], [-DELTA0, DELTA0], [np.nan],
                                   [np.inf], [DELTA0, np.inf], [DELTA0, np.nan]))
def test_phase_diagram_rejects_non_positive_omega(omega):
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        rf.phase_diagram(CFG, E, np.array([0.0, 0.5]), np.array(omega))
    # the lossy path shares the check: it read inf as no LH cell and warned on nan
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        rf.lossy_lh_window(CFG, np.array(omega))


@pytest.mark.parametrize("theta", ([0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]))
def test_phase_diagram_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        rf.phase_diagram(CFG, E, np.array(theta), np.array([DELTA0 - BW, DELTA0 + BW]))


@pytest.mark.parametrize("theta,omega", (
    ([0.5, 0.0], [DELTA0 - BW, DELTA0 + BW]),   # decreasing theta
    ([0.0, 0.5], [DELTA0, DELTA0]),             # a repeated omega
))
def test_phase_diagram_rejects_grids_that_do_not_increase(theta, omega):
    with pytest.raises(ValueError, match="strictly increasing"):
        rf.phase_diagram(CFG, E, np.array(theta), np.array(omega))


_QUADRANT = np.linspace(0.0, math.radians(89.0), 512)
_HALF = np.linspace(0.05, 1.5, 256)
_SLIVER = DELTA0 + np.linspace(0.926869, 0.926876, 4096) * BW


@pytest.mark.parametrize("pol,theta,omega", (
    # one distinct theta row
    (E, _QUADRANT, np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 4096)),
    # the H LH sliver on +-theta: half the rows distinct, the most that
    # _propagation builds apart before it gathers the grid from them
    (H, np.concatenate([-_HALF[::-1], _HALF]), _SLIVER),
    # the sliver on theta in [0, 89 deg]: 500 of 512 rows distinct, where a
    # gather beside the distinct rows would pass 2 B/cell; every row is built
    (H, _QUADRANT, _SLIVER),
), ids=("one_row", "sliver", "sliver_most_distinct"))
def test_phase_diagram_allocates_less_than_one_float_grid(pol, theta, omega):
    # 512 x 4096 cells: one float64 temporary of the grid alone is 8 B/cell,
    # one bool temporary beside the int8 codes 2 B/cell
    rf.phase_diagram(CFG, pol, theta, omega)   # warm caches outside the trace
    tracemalloc.start()
    try:
        pd = rf.phase_diagram(CFG, pol, theta, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pd.codes.size == 512 * 4096
    assert peak < 2 * pd.codes.size, f"{peak / pd.codes.size:.1f} B/cell"


def test_single_cell_grid_with_negligible_response():
    pd = rf.phase_diagram(CFG, E, np.array([0.0]), np.array([2.0 * DELTA0]))
    assert pd.codes.shape == (1, 1)
    assert rf.Classification(pd.codes[0, 0]) is RH


def test_coarse_grid_warns_with_suggested_resolution():
    theta = np.array([0.0, 0.5])
    omega = np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 4)
    with pytest.warns(UserWarning, match="bandwidth/50"):
        rf.phase_diagram(CFG, E, theta, omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rf.phase_diagram(CFG, E, theta,
                         np.linspace(DELTA0 - 10 * BW, DELTA0 + 10 * BW, 512))


def test_masked_cells_near_resonance():
    omega = np.array([DELTA0 - 1e5, DELTA0, DELTA0 + 1e5, DELTA0 + 1e9])
    pd = rf.phase_diagram(CFG, E, np.array([0.0]), omega)
    labels = [rf.Classification(c) for c in pd.codes[0]]
    assert labels[0] is rf.Classification.MASKED
    assert labels[1] is rf.Classification.MASKED
    assert labels[2] is rf.Classification.MASKED
    assert labels[3] is not rf.Classification.MASKED


def test_wave_vector_surface_unit_circle_without_response():
    t = rs.response_tensors(CFG, DELTA0)  # lossless on resonance: vacuum
    result = rf.wave_vector_surface(t, E, 100)
    assert result.conic is rf.ConicClass.CIRCLE
    assert np.abs(result.n_ty**2 + result.n_tz**2 - 1.0).max() < 1e-12
    assert rf.surface_normal_check(t, E, result.n_ty, result.n_tz).max() < 1e-8


def test_wave_vector_surface_regimes():
    t_low = rs.response_tensors(CFG, 0.5 * DELTA0)
    low = rf.wave_vector_surface(t_low, E, 150)
    assert low.conic is rf.ConicClass.CIRCLE
    h = t_low.eta.real
    assert np.abs(low.n_ty**2 + low.n_tz**2 - (1 - h)).max() < 1e-3

    t_mid = rs.response_tensors(CFG, WINDOW_MID)
    mid = rf.wave_vector_surface(t_mid, E, 150)
    assert mid.conic is rf.ConicClass.HYPERBOLA
    assert mid.n_ty.shape == mid.n_tz.shape == (150,) and mid.normal.shape == (150, 2)
    assert rf.rotated_conic_residual(t_mid, E, mid.n_ty, mid.n_tz).max() < 1e-6

    t_above = rs.response_tensors(CFG, DELTA0 + 2.5 * ZEROS[1])
    above = rf.wave_vector_surface(t_above, E, 150)
    assert above.conic is rf.ConicClass.DEGENERATE
    assert above.n_ty.shape == above.n_tz.shape == (0,) and above.normal.shape == (0, 2)


def test_causal_branch_flows_into_medium_on_every_sample():
    for om in (0.5 * DELTA0, WINDOW_MID, 1.5 * DELTA0):
        t = rs.response_tensors(CFG, om)
        result = rf.wave_vector_surface(t, E, 150)
        assert (rf._poynting(t, E, result.n_ty, result.n_tz)[1] > 0).all()


def test_surface_determinant_residual_small():
    t = rs.response_tensors(CFG, WINDOW_MID)
    result = rf.wave_vector_surface(t, E, 150)
    # the samples solve t_yy n_ty^2 + 2 t_yz n_ty n_tz + t_zz n_tz^2 = det * eps_xx
    tyy, tyz, tzz, det, eps_xx = rf._blocks(t, E)
    n_ty, n_tz = result.n_ty, result.n_tz
    residual = np.abs(eps_xx - (tyy * n_ty**2 + 2.0 * tyz * n_ty * n_tz + tzz * n_tz**2) / det)
    assert residual.max() < 1e-10 * (1 + abs(t.eta.real))


def test_poynting_orthogonal_to_surface_tangent():
    for om, tol in ((0.5 * DELTA0, 1e-6), (WINDOW_MID, 1e-6)):
        t = rs.response_tensors(CFG, om)
        result = rf.wave_vector_surface(t, E, 120)
        assert len(result.n_ty) >= 100
        assert rf.surface_normal_check(t, E, result.n_ty, result.n_tz).max() < tol


def test_surface_normal_check_signals_apex():
    # at the apex the stencil leaves the causal branch: NaN, which fails any check
    t = rs.response_tensors(CFG, 0.5 * DELTA0)
    n_max = math.sqrt((t.mu_r[2, 2] * t.eps_r[0, 0]))
    n_ty = np.array([n_max, 0.5 * n_max])
    n_tz = rf._causal_n_tz(t, E, n_ty)
    check = rf.surface_normal_check(t, E, n_ty, n_tz)
    assert np.isnan(check[0]) and check[1] < 1e-8
    assert np.isnan(rf._causal_n_tz(t, E, np.array([1.01 * n_max]))).all()


def test_mixing_angle_diagonalizes_the_block():
    t = rs.response_tensors(CFG, WINDOW_MID)
    phi = rf.mixing_angle(t, E)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, s], [-s, c]])
    block = np.array([[t.mu_r[1, 1], t.mu_r[1, 2]], [t.mu_r[1, 2], t.mu_r[2, 2]]])
    diag = rot @ block @ rot.T
    assert abs(diag[0, 1]) < 1e-15
    a, b = CFG.resonance.alpha, CFG.resonance.beta
    assert math.tan(2 * phi) == pytest.approx(-4 * a * b / (4 * b**2 - a**2), rel=1e-9)


def test_degenerate_yz_block_signaled_and_classified_tr():
    # a singular mu yz block degenerates the dispersion quadratic
    mu = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    t = rs.ResponseTensors(omega=DELTA0, eta=0j, eps_r=np.eye(3), mu_r=mu,
                           eps1=1.0, mu1=0.0, near_resonance=False)
    w = wave(E, 10.0, DELTA0)
    assert abs(rf._blocks(t, E)[3]) < rf.DEGENERACY_TOL
    res = rf.classify(t, w)
    assert res.classification is TR
    assert res.k_tz is None and res.poynting_dir is None


def test_classification_flips_from_lh_to_tr_across_upper_mu1_zero():
    om_zero = brentq(lambda om: rs.response_tensors(CFG, om).mu1,
                     WINDOW_MID, DELTA0 + 2 * ZEROS[1], xtol=1e-6)
    below = rs.response_tensors(CFG, om_zero - 1e3)
    above = rs.response_tensors(CFG, om_zero + 1e3)
    assert rf.classify(below, wave(E, 10.0, om_zero - 1e3)).classification is LH
    assert rf.classify(above, wave(E, 10.0, om_zero + 1e3)).classification is TR


def test_lossy_limit_reproduces_lossless_at_normal_incidence():
    sharp = rs.MediumConfig(RingParams(12, decay_rate=1.0))
    d0 = rs.resonance_frequency(sharp)
    zeros = sharp.resonance.mu1_zeros
    cases = (
        (0.5 * d0, RH),
        (d0 + 0.5 * (zeros[0] + zeros[1]), LH),
        (d0 + 2.5 * zeros[1], TR),
    )
    lossy = rf._lossy_normal(sharp, np.array([om for om, _ in cases]))
    for (om, expected), code in zip(cases, lossy):
        t = rs.response_tensors(sharp, om)
        lossless = rf.classify(t, rf.IncidentWave(E, 0.0, om)).classification
        assert rf.Classification(code) is lossless is expected


def test_lossy_window_tracks_lossless_window():
    grid = np.linspace(DELTA0 - 2 * BW, DELTA0 + 2 * BW, 2000)
    window = rf.lossy_lh_window(CFG, grid)
    assert window is not None
    lo_shift = abs((window[0] - DELTA0) - ZEROS[0]) / BW
    hi_shift = abs((window[1] - DELTA0) - ZEROS[1]) / BW
    assert lo_shift < 0.1
    assert hi_shift < 0.1


@pytest.mark.parametrize("case", ("overdamped", "near_critical"))
def test_short_lifetime_kills_the_window(case):
    if case == "overdamped":
        tau_c = CFG.resonance.critical_lifetime
        cfg = rs.MediumConfig(RingParams(12, decay_rate=1.0 / (0.5 * tau_c)))
        grid, lossless_lh = np.linspace(DELTA0 - 2 * BW, DELTA0 + 2 * BW, 500), 0
    else:
        # N = 6 at 1/gamma = 0.6 ns, just above tau_c = 0.575 ns: the lossless mu_eff is
        # -0.135 to -0.0003 on the window, but loss lifts Re mu_eff to 1.01-1.32 there,
        # so Re(eps)|mu| + Re(mu)|eps| > 0 and no cell has negative phase velocity
        cfg = _medium(6, 0.6)
        mid, bw = cfg.resonance.window[1], cfg.resonance.bandwidth
        grid, lossless_lh = np.linspace(mid - 2 * bw, mid + 2 * bw, 2000), 500
    lossless = rf._propagation(rs.response_tensors(cfg, grid), E, 0.0)
    assert np.count_nonzero(lossless == int(LH)) == lossless_lh
    assert rf.lossy_lh_window(cfg, grid) is None


def test_incident_wave_validation():
    with pytest.raises(ValueError):
        rf.IncidentWave(E, math.pi / 2, DELTA0)
    with pytest.raises(ValueError):
        rf.IncidentWave(E, -0.1, DELTA0)
    for omega in (0.0, -DELTA0, math.inf, math.nan):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            rf.IncidentWave(E, 0.0, omega)


# ---------------------------------------------------------------------------
# Differential tests: scalar and vectorised paths, cell by cell
# ---------------------------------------------------------------------------

LIFETIMES_NS = (0.6, 1.0, 4.0, 40.0)


def _medium(n, gamma_inv_ns):
    return rs.MediumConfig(RingParams(n, decay_rate=1.0 / (gamma_inv_ns * NS)))


@pytest.mark.parametrize("n", (12, 24))
@pytest.mark.parametrize("gamma_inv_ns", LIFETIMES_NS)
def test_classify_matches_phase_diagram_cell_by_cell(gamma_inv_ns, n):
    cfg = _medium(n, gamma_inv_ns)
    d0 = rs.resonance_frequency(cfg)
    span = 10 * rs.bandwidth(cfg)
    theta = np.linspace(0.0, math.radians(89.0), 24)
    omega = np.linspace(d0 - span, d0 + span, 128)
    compared = 0
    for pol in (E, H):
        codes = rf.phase_diagram(cfg, pol, theta, omega).codes
        for j, om in enumerate(omega):
            t = rs.response_tensors(cfg, float(om))
            for i, th in enumerate(theta):
                if codes[i, j] == int(rf.Classification.MASKED):
                    continue
                cls = rf.classify(t, rf.IncidentWave(pol, float(th), float(om)))
                assert int(cls.classification) == codes[i, j], (pol, th, om)
                compared += 1
    assert compared > 0.99 * 2 * theta.size * omega.size


@pytest.mark.parametrize("gamma_inv_ns", (0.3,) + LIFETIMES_NS)
def test_lossy_normal_incidence_matches_lossy_lh_window(gamma_inv_ns):
    # each frequency classified on its own, against the window of the whole sweep
    cfg = _medium(12, gamma_inv_ns)
    grid = np.linspace(DELTA0 - 2 * BW, DELTA0 + 2 * BW, 2000)
    lh = [om for om in grid if rf._lossy_normal(cfg, np.array([om]))[0] == int(LH)]
    expected = (min(lh), max(lh)) if lh else None
    assert rf.lossy_lh_window(cfg, grid) == expected


# the validate golden configs, rings where validate fails for reasons still open
# (large N or radius, large couplings) and the lifetimes above
LOSSY_RING_CONFIGS = (
    {}, {"gamma_inv_ns": 0.3}, {"N": 3}, {"N": 4}, {"N": 6, "gamma_inv_ns": 0.6},
    {"half_width_nm": 1e5}, {"half_width_nm": 1e26}, {"xi_intra_ev": 1e-6},
    {"half_width_nm": 0.01}, {"half_width_nm": 0.00998},
    {"N": 5}, {"N": 400}, {"radius_nm": 10}, {"v_inter_ev": 1e6}, {"xi_intra_ev": 1e6},
    {"gamma_inv_ns": 8}, *({"gamma_inv_ns": g} for g in LIFETIMES_NS),
)


@st.composite
def _lossy_rings(draw):
    """Random rings, with lifetimes from half to a hundred times the critical one."""
    ring = RingParams(draw(st.integers(3, 400)),
                      v_inter=draw(st.floats(1e-5, 1e3)), xi_intra=draw(st.floats(1e-5, 1e3)),
                      half_width=draw(st.floats(1e-3, 1e3)) * NM)
    tau_c = rs.MediumConfig(ring).resonance.critical_lifetime
    return replace(ring, decay_rate=1.0 / (tau_c * draw(st.floats(0.5, 100.0))))


def _examples(rings):
    """Decorator: one explicit hypothesis example per ring."""
    def decorate(test):
        for ring in rings:
            test = example(ring=ring)(test)
        return test
    return decorate


def _complex_root_codes(cfg, omega):
    """Normal-incidence codes from the complex root of the E-polarized quadratic.

    k = k_tz / k_i = sqrt(d eps_xx / mu_zz) is the root with Im k >= 0, which
    decays into the medium, and of a real root the one that carries energy in.
    At k_iy = 0 the Poynting flow into the medium is S_tz = Re(k mu_zz / d).  A
    cell is TR where its lossless limit is, where S_tz <= 0 or where k is not
    finite; otherwise it is LH where Re(k) S_tz < 0 and RH elsewhere.
    """
    lossless = rs.response_tensors(replace(cfg, lossy=False), omega)
    tr = rf._propagation(lossless, E, 0.0) == int(TR)
    t = rs.response_tensors(replace(cfg, lossy=True), omega)
    eps, tyy, tyz, tzz = t.eps_r[:, 0, 0], t.mu_r[:, 1, 1], t.mu_r[:, 1, 2], t.mu_r[:, 2, 2]
    with np.errstate(over="ignore", invalid="ignore"):
        det = tyy * tzz - tyz * tyz
        k = np.sqrt(det * eps / tzz)
        k = np.where(k.imag < 0.0, -k, k)
        k = np.where((k.imag == 0.0) & ((tzz * k / det).real <= 0.0), -k, k)
        s_tz = (tzz * k / det).real
    tr |= (s_tz <= 0.0) | ~np.isfinite(k)
    return np.where(tr, int(TR), np.where(k.real * s_tz < 0.0, int(LH), int(RH)))


@settings(max_examples=100, deadline=None)
@given(ring=_lossy_rings())
@_examples(cli.parse_config(json.dumps(c)).ring for c in LOSSY_RING_CONFIGS)
def test_lossy_lh_verdict_matches_negative_phase_velocity_condition(ring):
    # the Depine-Lakhtakia verdict of _lossy_normal against the complex Fresnel root:
    # every code, TR included, on the ring and its overdamped companion (1/gamma =
    # 0.8 tau_c), over Delta_0 +- 2 and +- 20 bandwidths (+- 2 and 20 gamma if overdamped)
    res = rs.MediumConfig(ring).resonance
    companion = replace(ring, decay_rate=1.0 / (0.8 * res.critical_lifetime))
    span = res.bandwidth or res.gamma
    for half_span in (2, 20):
        if res.delta0 - half_span * span <= 0.0:
            continue
        grid = np.linspace(res.delta0 - half_span * span, res.delta0 + half_span * span, 2000)
        for cfg in (rs.MediumConfig(ring), rs.MediumConfig(companion)):
            codes = rf._lossy_normal(cfg, grid)
            assert np.array_equal(codes, _complex_root_codes(cfg, grid)), (cfg.ring, half_span)


# ---------------------------------------------------------------------------
# Differential tests: the per-cell Fresnel solve as an oracle
# ---------------------------------------------------------------------------

def _fresnel_oracle(tyy, tyz, tzz, det, other_xx, k_iy, k_i):
    """Classify by solving the Fresnel quadratic cell by cell.

    Returns the int8 Classification codes, the causal branch's k_tz, S_ty
    and S_tz (meaningful only where the code is not TR) and both complex
    roots, the '+' discriminant first, stacked on a leading axis.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qb = 2.0 * tyz * k_iy
        qc = tyy * k_iy**2 - det * k_i**2 * other_xx
        disc = qb**2 - 4.0 * tzz * qc
        propagating = disc > 0.0
        degenerate = np.abs(det) < rf.DEGENERACY_TOL
        sqrt_disc = np.sqrt(np.where(propagating, disc, 0.0))
        k_tz = (-qb + np.sign(det) * sqrt_disc) / (2.0 * tzz)
        s_ty = (tyz * k_tz + tyy * k_iy) / det
        s_tz = (tyz * k_iy + tzz * k_tz) / det
        k_dot_s = k_iy * s_ty + k_tz * s_tz
        codes = np.full(disc.shape, int(TR), dtype=np.int8)
        ok = propagating & ~degenerate & (s_tz > 0.0)
        codes[ok & (k_dot_s < 0.0)] = int(LH)
        codes[ok & (k_dot_s >= 0.0)] = int(RH)
        complex_root = np.sqrt(disc + 0j)
        roots = np.stack([(-qb + complex_root) / (2.0 * tzz), (-qb - complex_root) / (2.0 * tzz)])
    return codes, k_tz, s_ty, s_tz, roots


@pytest.mark.filterwarnings("ignore:omega grid spacing")   # the wide grid
@pytest.mark.parametrize("n", (12, 24))
@pytest.mark.parametrize("gamma_inv_ns", LIFETIMES_NS)
def test_phase_diagram_matches_fresnel_oracle_cell_by_cell(gamma_inv_ns, n):
    cfg = _medium(n, gamma_inv_ns)
    d0 = rs.resonance_frequency(cfg)
    span = 10 * rs.bandwidth(cfg)
    theta = np.linspace(0.0, math.radians(89.0), 96)
    for omega in (np.linspace(d0 - span, d0 + span, 1024),
                  np.linspace(0.2 * d0, 1.8 * d0, 1024)):
        tensors = rs.response_tensors(cfg, omega)
        k_i = omega / rf.C_LIGHT
        for pol in (E, H):
            want = _fresnel_oracle(*rf._blocks(tensors, pol),
                                   k_i * np.sin(theta)[:, None], k_i)[0]
            want[:, tensors.near_resonance] = int(rf.Classification.MASKED)
            got = rf.phase_diagram(cfg, pol, theta, omega).codes
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, want, err_msg=str(pol))


def _tensors(mu, eps=None):
    eps = np.eye(3) if eps is None else eps
    return rs.ResponseTensors(omega=DELTA0, eta=0j, eps_r=np.asarray(eps, float),
                              mu_r=np.asarray(mu, float), eps1=1.0, mu1=1.0,
                              near_resonance=False)


def _yz(tyy, tyz, tzz, txx=1.0):
    return [[txx, 0.0, 0.0], [0.0, tyy, tyz], [0.0, tyz, tzz]]


NAN = float("nan")
TOL = rf.DEGENERACY_TOL
EDGE_TENSORS = {
    # |det| = 0.5 * tzz just below and just above DEGENERACY_TOL, both signs
    "det_below_tol": _tensors(_yz(0.5, 0.0, 1.8 * TOL)),
    "det_above_tol": _tensors(_yz(0.5, 0.0, 2.2 * TOL)),
    "neg_det_below_tol": _tensors(_yz(-0.5, 0.0, 1.8 * TOL)),
    "neg_det_above_tol": _tensors(_yz(-0.5, 0.0, 2.2 * TOL)),
    "neg_det_above_tol_neg_eps": _tensors(_yz(-0.5, 0.0, 2.2 * TOL), _yz(1, 0, 1, -2.0)),
    "tzz_zero": _tensors(_yz(1.0, 0.5, 0.0)),
    "tzz_zero_singular": _tensors(_yz(1.0, 0.0, 0.0)),
    "nan_eps_xx": _tensors(_yz(1.2, 0.3, 0.9), _yz(1, 0, 1, NAN)),
    "nan_mu_yy": _tensors(_yz(NAN, 0.3, 0.9)),
    "nan_mu_yz": _tensors(_yz(1.2, NAN, 0.9)),
    "nan_mu_zz": _tensors(_yz(1.2, 0.3, NAN)),
    "hyperbolic_lh": _tensors(_yz(-0.7, 0.4, 1.3), _yz(1, 0, 1, -0.8)),
    "hyperbolic_rh": _tensors(_yz(-0.7, 0.4, 1.3), _yz(1, 0, 1, 0.6)),
    "elliptic": _tensors(_yz(1.4, -0.2, 0.8), _yz(1, 0, 1, 1.7)),
    "default_window_mid": rs.response_tensors(CFG, WINDOW_MID),
    "default_below": rs.response_tensors(CFG, 0.5 * DELTA0),
    "default_above_window": rs.response_tensors(CFG, DELTA0 + 2.5 * ZEROS[1]),
}


def _assert_classify_matches_oracle(t, pol, theta, om):
    """Compare classify with the oracle on one cell; return the classification."""
    w = rf.IncidentWave(pol, theta, om)
    res = rf.classify(t, w)
    code, k_tz, s_ty, s_tz, _ = _fresnel_oracle(*rf._blocks(t, pol), w.k_iy, w.k_i)
    assert int(res.classification) == int(code)
    if int(code) == int(TR):
        assert res.k_tz is None and res.poynting_dir is None
    else:
        assert math.isfinite(res.k_tz)
        # relative to |k_tz| where it outgrows k_i (t_zz near 0 on the edge tensors)
        assert abs(res.k_tz - k_tz) <= 1e-12 * max(w.k_i, abs(k_tz))
        want = np.array([s_ty, s_tz], dtype=float)
        assert np.abs(np.subtract(res.poynting_dir, want)).max() <= 1e-12 * np.hypot(*want)
    return res.classification


@pytest.mark.parametrize("name", sorted(EDGE_TENSORS))
@pytest.mark.parametrize("pol", (E, H))
def test_classify_matches_fresnel_oracle_at_edges(name, pol):
    t = EDGE_TENSORS[name]
    if pol is H:   # the dual: the edge moves into the blocks H-polarized waves see
        t = replace(t, eps_r=t.mu_r, mu_r=t.eps_r)
    om = float(t.omega)
    for theta_deg in (0.0, 1e-6, 5.0, 30.0, 60.0, 89.0):
        _assert_classify_matches_oracle(t, pol, math.radians(theta_deg), om)


def _random_symmetric_tensors(count, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        eps, mu = (np.diag(rng.uniform(-2.0, 2.0, 3)) for _ in range(2))
        eps[1, 2] = eps[2, 1] = rng.uniform(-1.0, 1.0)
        mu[1, 2] = mu[2, 1] = rng.uniform(-1.0, 1.0)
        yield _tensors(mu, eps)


def test_classify_matches_fresnel_oracle_on_random_symmetric_tensors():
    thetas = np.radians([0.0, 10.0, 35.0, 50.0, 70.0, 88.0])
    counts = {LH: 0, RH: 0, TR: 0}
    for t in _random_symmetric_tensors(300):
        for pol in (E, H):
            for theta in thetas:
                counts[_assert_classify_matches_oracle(t, pol, float(theta), DELTA0)] += 1
    assert min(counts.values()) > 100


def test_classify_reads_a_finite_root_at_the_propagation_edge():
    # within an ulp or so of sin^2 theta = lim, rounding alone can make the
    # kernel find a cell propagating where the root solver's discriminant is
    # not positive; such a cell reads the double root there, not NaN
    propagating = 0
    for t in _random_symmetric_tensors(300):
        for pol in (E, H):
            _, _, tzz, _, x = rf._blocks(t, pol)
            lim = float(tzz * x)
            if not 0.0 < lim < 1.0:
                continue
            edge = math.asin(math.sqrt(lim))
            thetas = [edge]
            for toward in (0.0, 2.0):   # the six floats on each side
                theta = edge
                for _ in range(6):
                    theta = float(np.nextafter(theta, toward))
                    thetas.append(theta)
            for theta in thetas:
                w = rf.IncidentWave(pol, theta, DELTA0)
                res = rf.classify(t, w)
                if res.classification is TR:
                    continue
                propagating += 1
                k_tz = _fresnel_oracle(*rf._blocks(t, pol), w.k_iy, w.k_i)[1]
                assert math.isfinite(res.k_tz) and np.all(np.isfinite(res.poynting_dir))
                # the root is sqrt-sensitive to rounding in the discriminant here
                assert abs(res.k_tz - k_tz) <= 1e-7 * max(w.k_i, abs(k_tz))
    assert propagating > 1000


# The per-point surface path that preceded the array one, kept as the
# reference of the differential test below.  A stencil that leaves the
# causal branch raised there; it reads NaN here.

def _ref_causal_n_tz(t, pol, n_ty):
    tyy, tyz, tzz, det, other_xx = rf._blocks(t, pol)
    disc4 = tyz**2 * n_ty**2 - tzz * (tyy * n_ty**2 - det * other_xx)
    if disc4 <= 0.0:
        return None
    return (-tyz * n_ty + math.copysign(1.0, det) * math.sqrt(disc4)) / tzz


def _ref_surface(t, pol, n_samples):
    """(conic, rows of n_ty, n_tz, normal_y, normal_z, conic residual, normal check)."""
    tyy, tyz, tzz, det, other_xx = rf._blocks(t, pol)
    phi = 0.5 * math.atan2(2.0 * tyz, tyy - tzz)
    c, s = math.cos(phi), math.sin(phi)
    lam1 = tyy * c**2 + 2.0 * tyz * s * c + tzz * s**2
    lam2 = tyy * s**2 - 2.0 * tyz * s * c + tzz * c**2
    rhs = det * other_xx
    if lam1 * lam2 > 0.0 and rhs / lam1 > 0.0:
        conic = rf.ConicClass.CIRCLE
    elif lam1 * lam2 < 0.0:
        conic = rf.ConicClass.HYPERBOLA
    else:
        return rf.ConicClass.DEGENERATE, []
    lim = tzz * other_xx
    if conic is rf.ConicClass.CIRCLE:
        n_max = math.sqrt(lim)
        grid = np.linspace(-0.95 * n_max, 0.95 * n_max, n_samples)
    elif lim > 0.0:
        apex = math.sqrt(lim)
        right = np.linspace(1.05 * apex, 3.0 * apex, n_samples // 2)
        grid = np.concatenate([-right[::-1], right])
    else:
        scale = math.sqrt(abs(det * other_xx / tzz))
        grid = np.linspace(-2.0 * scale, 2.0 * scale, n_samples)
    rows = []
    for n_ty in grid:
        n_tz = _ref_causal_n_tz(t, pol, float(n_ty))
        if n_tz is None:
            continue
        grad = np.array([tyy * n_ty + tyz * n_tz, tyz * n_ty + tzz * n_tz]) * (-2.0 / det)
        normal = grad / np.linalg.norm(grad)
        n_ty = float(n_ty)
        nt, nz = n_ty * c + n_tz * s, -n_ty * s + n_tz * c
        residual = abs((lam1 * nt**2 + lam2 * nz**2) / rhs - 1.0)
        step = 6e-6 * max(1.0, abs(n_ty))   # relative to the sample beyond |n_ty| = 1
        left = _ref_causal_n_tz(t, pol, n_ty - step)
        right = _ref_causal_n_tz(t, pol, n_ty + step)
        check = NAN
        if left is not None and right is not None:
            tangent = np.array([2.0 * step, right - left])
            tangent /= np.linalg.norm(tangent)
            flow = np.array(rf._poynting(t, pol, n_ty, n_tz))
            flow /= np.linalg.norm(flow)
            check = abs(float(np.dot(flow, tangent)))
        rows.append((n_ty, n_tz, normal[0], normal[1], residual, check))
    return conic, rows


def _surface_columns(t, pol, n_samples):
    """The library's surface as the reference's columns."""
    res = rf.wave_vector_surface(t, pol, n_samples)
    return res.conic, np.column_stack([
        res.n_ty, res.n_tz, res.normal,
        rf.rotated_conic_residual(t, pol, res.n_ty, res.n_tz),
        rf.surface_normal_check(t, pol, res.n_ty, res.n_tz)])


def _assert_surface_matches_the_per_point_path(t, pol, n_samples):
    conic, want = _ref_surface(t, pol, n_samples)
    got_conic, got = _surface_columns(t, pol, n_samples)
    assert got_conic is conic
    assert got.shape == (len(want), 6)
    if want:
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)
    return conic


SURFACE_SAMPLES = (10, 20, 120, 200, 201)
SURFACE_OMEGAS = [DELTA0 + d * EV / HBAR for d in cli._default_surface_detunings(CFG.resonance)]


@pytest.mark.parametrize("n_samples", SURFACE_SAMPLES)
@pytest.mark.parametrize("pol", (E, H))
def test_default_surfaces_match_the_per_point_path(pol, n_samples):
    for om in SURFACE_OMEGAS + [1.5 * DELTA0]:
        _assert_surface_matches_the_per_point_path(rs.response_tensors(CFG, om), pol,
                                                   n_samples)


@pytest.mark.parametrize("pol", (E, H))
def test_random_surfaces_match_the_per_point_path(pol):
    rng = np.random.default_rng(909)
    conics = set()
    for i in range(100):
        eps, mu = (rng.uniform(-2.0, 2.0, (3, 3)) for _ in range(2))
        t = _tensors(mu + mu.T, eps + eps.T)
        conics.add(_assert_surface_matches_the_per_point_path(
            t, pol, SURFACE_SAMPLES[i % len(SURFACE_SAMPLES)]))
    assert conics == set(rf.ConicClass)
