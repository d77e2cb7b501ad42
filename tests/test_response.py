import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mobius_optics import dipole as dp
from mobius_optics import response as rs
from mobius_optics.constants import EPSILON_0, EV, HBAR
from mobius_optics.dipole import DipoleKind
from mobius_optics.ring import RingParams, VolumeConvention

CFG = rs.MediumConfig(RingParams(12))
CFG_2W = rs.MediumConfig(RingParams(12, volume_convention=VolumeConvention.CYLINDER_2W))
DELTA0 = rs.resonance_frequency(CFG)
GAMMA = CFG.ring.decay_rate


def test_molecular_volume_conventions():
    # direct SI evaluation of 2 pi (R + W)^2 W for the default geometry
    assert rs.molecular_volume(CFG_2W) == pytest.approx(6.663392801135625e-29, rel=1e-12)
    assert rs.molecular_volume(CFG) == pytest.approx(2 * rs.molecular_volume(CFG_2W))


def test_eta_prefactor_si_recomputation():
    assert rs.eta_prefactor(CFG_2W) == pytest.approx(3.0576793803210306e14, rel=1e-10)


def test_eta_real_part_vanishes_on_resonance():
    assert rs.eta(CFG, DELTA0).real == pytest.approx(0.0, abs=1e-20)


def test_eta_tends_to_zero_from_above_at_high_frequency():
    vals = [rs.eta(CFG, DELTA0 * f).real for f in (5.0, 50.0, 500.0)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3


def test_eta_singularity_signaled_without_damping():
    ring = RingParams(12, decay_rate=0.0)
    cfg = rs.MediumConfig(ring)
    with pytest.raises(rs.ResonanceSingularityError):
        rs.eta(cfg, rs.resonance_frequency(cfg))
    # off resonance the undamped response is fine
    assert np.isfinite(rs.eta(cfg, 1.01 * rs.resonance_frequency(cfg)).real)


def test_kramers_sign_and_passivity():
    omegas = DELTA0 + np.array([-1e12, -1e9, -1e7, 1e7, 1e9, 1e12])
    h = rs.eta(CFG, omegas)
    assert np.all(np.sign(h.real) == np.sign(omegas - DELTA0))
    assert np.all(h.imag < 0)
    lossy = rs.MediumConfig(CFG.ring, lossy=True)
    eps = rs.response_tensors(lossy, DELTA0 + 1e9).eps_r
    assert np.all(np.diag(eps).imag >= 0)


def test_alpha_beta_si_recomputation():
    a, b = rs.alpha_beta(CFG)
    assert a == pytest.approx(4.829794880988394e-3, rel=1e-10)
    assert b == pytest.approx(6.943914486755153e-4, rel=1e-10)


def test_alpha_beta_large_n_limit():
    # with the radius held fixed, beta ~ delta^2 vanishes and alpha -> R V / hbar c
    r_fixed = CFG.ring.radius
    a_prev = None
    for n in (64, 256, 1024):
        cfg = rs.MediumConfig(RingParams(n, radius=r_fixed))
        a, b = rs.alpha_beta(cfg)
        assert abs(b) < 1e-2 * a
        if a_prev is not None:
            assert abs(b) < b_prev
        a_prev, b_prev = a, b
    limit = r_fixed * CFG.ring.v_inter * EV / (HBAR * 299792458.0)
    assert a == pytest.approx(limit, rel=1e-3)


def test_tensors_reduce_to_identity_on_resonance():
    # losslessly, eta' = 0 exactly on resonance
    t = rs.response_tensors(CFG, DELTA0)
    np.testing.assert_allclose(t.eps_r, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(t.mu_r, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(rs.local_field_epsilon(CFG, DELTA0), np.eye(3), atol=1e-15)


@pytest.mark.parametrize("detuning", [-1e13, -1e10, 1e8, 1e9, 5e9, 1e12])
def test_yz_block_eigenvalue_identities(detuning):
    om = DELTA0 + detuning
    h = rs.eta(CFG, om).real
    t = rs.response_tensors(CFG, om)
    eps, mu = t.eps_r, t.mu_r
    assert np.array_equal(eps, eps.T)
    assert np.array_equal(mu, mu.T)
    a, b = rs.alpha_beta(CFG)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(eps[1:, 1:])),
        np.sort([1.0, 1.0 - 5 * h]), rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(mu[1:, 1:])),
        np.sort([1.0, 1.0 - (a**2 + 4 * b**2) * h]), rtol=1e-10, atol=1e-14)


def test_principal_axes_of_eps_and_mu_differ():
    t = rs.response_tensors(CFG, DELTA0 + 1e9)
    eps, mu = t.eps_r, t.mu_r
    ang = lambda t: 0.5 * math.atan2(2 * t[1, 2], t[1, 1] - t[2, 2])
    assert abs(ang(eps) - ang(mu)) > 1e-3


def test_ground_state_excluded_from_sums():
    freqs, dyads = rs._ground_dyads(CFG, DipoleKind.ELECTRIC)
    assert len(freqs) == 23  # 2N - 1 excited labels
    assert np.all(freqs > 0)


def test_full_sums_never_build_a_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("the full sums read only the ground row")

    monkeypatch.setattr(dp, "_table", no_table)
    cfg = rs.MediumConfig(RingParams(64))
    om = rs.resonance_frequency(cfg) + 50 * cfg.ring.decay_rate
    assert rs.epsilon_from_full_sum(cfg, om).shape == (3, 3)
    assert rs.mu_from_full_sum(cfg, om).shape == (3, 3)


@pytest.mark.parametrize("detuning_gammas", [10, 60, 100])
def test_full_sum_epsilon_matches_single_resonance_near_line(detuning_gammas):
    om = DELTA0 + detuning_gammas * GAMMA
    full = rs.epsilon_from_full_sum(CFG, om)
    single = rs.response_tensors(CFG, om).eps_r
    dominant = np.abs(single) > 1.0
    rel = (np.abs(full - single)[dominant] / np.abs(single)[dominant]).max()
    assert rel < 1e-2


def test_full_sum_permeability_matches_printed_tensor():
    om = DELTA0 + 20 * GAMMA
    full = rs.mu_from_full_sum(CFG, om)
    single = rs.response_tensors(CFG, om).mu_r
    resonant = np.abs(single - np.eye(3)) > 1e-3
    rel = (np.abs(full - single)[resonant] / np.abs(single)[resonant]).max()
    assert rel < 1e-4


def test_bandwidth_si_value_and_root_consistency():
    bw = rs.bandwidth(CFG_2W)
    assert bw == pytest.approx(7.706160151520129e9, rel=1e-10)
    zeros = rs.mu1_zero_detunings(CFG)
    f = lambda om: rs.mu1(CFG, om)
    mid = DELTA0 + 0.5 * (zeros[0] + zeros[1])
    lo = brentq(f, DELTA0 + 0.2 * zeros[0], mid, xtol=1e-3)
    hi = brentq(f, mid, DELTA0 + 2 * zeros[1], xtol=1e-3)
    assert abs((hi - lo) - rs.bandwidth(CFG)) / rs.bandwidth(CFG) < 1e-6


def test_bandwidth_vanishes_when_overdamped():
    a, b = rs.alpha_beta(CFG)
    pref = (a**2 + 4 * b**2) * rs.eta_prefactor(CFG)
    ring = RingParams(12, decay_rate=pref / 2)
    assert rs.bandwidth(rs.MediumConfig(ring)) == 0.0
    ring2 = RingParams(12, decay_rate=2 * pref)
    assert rs.bandwidth(rs.MediumConfig(ring2)) == 0.0
    assert rs.mu1_zero_detunings(rs.MediumConfig(ring2)) is None


def test_critical_lifetime_values_and_identity():
    tau_cyl = rs.critical_lifetime(CFG)
    tau_2w = rs.critical_lifetime(CFG_2W)
    assert tau_cyl == pytest.approx(0.517976107992338e-9, rel=1e-10)
    assert tau_2w == pytest.approx(0.258988053996169e-9, rel=1e-10)
    assert tau_cyl == pytest.approx(2 * tau_2w, rel=1e-12)
    # gamma = 1/tau_c makes the bandwidth radicand vanish exactly
    ring = RingParams(12, decay_rate=1.0 / tau_cyl)
    assert rs.bandwidth(rs.MediumConfig(ring)) == pytest.approx(0.0, abs=1e-3)


def test_simultaneous_negative_window_sits_just_above_resonance():
    zeros = rs.mu1_zero_detunings(CFG)
    assert zeros is not None and zeros[0] > 0
    mid = DELTA0 + 0.5 * (zeros[0] + zeros[1])
    assert rs.mu1(CFG, mid) < 0
    assert rs.eps1(CFG, mid) < 0
    # mu window strictly inside the eps window
    eps_zero_hi = brentq(lambda om: rs.eps1(CFG, om), mid, DELTA0 + 1e15)
    assert DELTA0 + zeros[1] < eps_zero_hi


def test_local_field_zero_crossings():
    f_corr = lambda om: rs.eta(CFG, om).real - 0.3
    om_corr = brentq(f_corr, DELTA0 + GAMMA, DELTA0 + 1e8 * GAMMA, xtol=1e-3)
    ev = np.linalg.eigvalsh(rs.local_field_epsilon(CFG, om_corr)[1:, 1:])
    assert min(abs(ev)) < 1e-9
    om_unc = brentq(lambda om: rs.eta(CFG, om).real - 0.2,
                    DELTA0 + GAMMA, DELTA0 + 1e8 * GAMMA, xtol=1e-3)
    assert abs(rs.eps1(CFG, om_unc)) < 1e-9
    # corrected and uncorrected negative windows overlap
    mid = DELTA0 + 0.5 * sum(rs.mu1_zero_detunings(CFG))
    assert rs.eps1(CFG, mid) < 0
    assert np.linalg.eigvalsh(rs.local_field_epsilon(CFG, mid)[1:, 1:]).min() < 0


def test_local_field_pole_signaled():
    om_pole = brentq(lambda om: rs.eta(CFG, om).real + 0.6,
                     DELTA0 - 1e8 * GAMMA, DELTA0 - GAMMA, xtol=1e-6)
    with pytest.raises(rs.LocalFieldPoleError):
        rs.local_field_epsilon(CFG, om_pole)


def _resonant_pair_polarizability(config, omega):
    """Dispersive molecular polarizability (m^3) of the resonant pair alone:

    -(1 / hbar eps0) sum dyad (omega - Delta) / ((omega - Delta)^2 + gamma^2)
    over the two degenerate lines at Delta_0, where the closed-form
    corrected permittivity applies.
    """
    freqs, dyads = rs._ground_dyads(config, DipoleKind.ELECTRIC)
    delta0 = rs.resonance_frequency(config)
    keep = np.abs(freqs - delta0) < 1e-6 * delta0
    x = omega - freqs[keep]
    weights = x / (x**2 + config.ring.decay_rate**2)
    return -np.tensordot(weights, dyads[keep], axes=(0, 0)).real / (HBAR * EPSILON_0)


def test_local_field_identity_from_polarizability():
    om = DELTA0 + 1e12
    g = _resonant_pair_polarizability(CFG, om) / rs.molecular_volume(CFG)
    # Clausius-Mossotti in matrix form: eps_r = 1 + (1 - g / 3)^-1 g with g = gamma_mol / v0
    rebuilt = np.eye(3) + np.linalg.inv(np.eye(3) - g / 3.0) @ g
    np.testing.assert_allclose(rebuilt, rs.local_field_epsilon(CFG, om),
                               rtol=1e-10, atol=1e-12)


def test_near_resonance_flag():
    assert rs.response_tensors(CFG, DELTA0 + 1e-4 * GAMMA).near_resonance
    assert not rs.response_tensors(CFG, DELTA0 + 1e-2 * GAMMA).near_resonance
    flags = rs.response_tensors(CFG, np.array([DELTA0, DELTA0 + GAMMA])).near_resonance
    assert flags.tolist() == [True, False]


def _bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=complex)).view(np.uint64)


@pytest.mark.parametrize("lossy", (False, True))
@pytest.mark.parametrize("n", (12, 33))
@pytest.mark.parametrize("gamma_inv_ns", (4.0, 0.3))
def test_batched_response_matches_scalar_calls_bit_for_bit(gamma_inv_ns, n, lossy):
    cfg = rs.MediumConfig(RingParams(n, decay_rate=1.0 / (gamma_inv_ns * 1e-9)),
                          lossy=lossy)
    d0 = rs.resonance_frequency(cfg)
    span = 10 * rs.bandwidth(cfg) or 1e-3 * d0
    omega = np.concatenate([np.linspace(d0 - span, d0 + span, 509),
                            [d0, d0 + 1e-4 * cfg.ring.decay_rate, 0.5 * d0]])
    batch = rs.response_tensors(cfg, omega)
    scalars = [rs.response_tensors(cfg, float(om)) for om in omega]
    assert batch.eps_r.shape == batch.mu_r.shape == (omega.size, 3, 3)
    for field in ("omega", "eta", "eps_r", "mu_r", "eps1", "mu1", "near_resonance"):
        stacked = np.array([getattr(t, field) for t in scalars])
        assert np.array_equal(_bits(getattr(batch, field)), _bits(stacked)), field
    assert batch.near_resonance[-2] and not batch.near_resonance[-1]
    one = scalars[0]
    assert type(one.omega) is float and type(one.eta) is complex
    assert type(one.eps1) is type(one.mu1) is (complex if lossy else float)
    assert type(one.near_resonance) is bool and one.eps_r.shape == (3, 3)
