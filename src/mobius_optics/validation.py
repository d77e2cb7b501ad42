"""Cross-validation of the closed forms against the brute-force route.

Every check pairs an analytic quantity with an independent numerical
construction and reports the deviation against a fixed threshold.  The
report is a plain dict (JSON-serialisable) so the command line can emit it
and scripts can assert on it.

The dense cross-checks run at fixed ring sizes (``SPECTRUM_NS``,
``TABLE_NS``, ``DENSE_N``), building each dense object once per size, so
their cost does not grow with N; the configured N reaches only the
closed-form checks.  Reductions keep NaN (``np.maximum``, ``np.max``, not
``max``), so a NaN deviation fails its check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from . import bruteforce as bf
from . import dipole as dp
from . import refraction as rf
from . import response as rs
from .constants import E_CHARGE, EV, HBAR, angular_frequency_to_ev
from .ring import (
    RingParams,
    Topology,
    VolumeConvention,
    amplitude_matrix,
    band_energies,
    label_axes,
)

# Ring sizes of the dense checks, each with its own radius N W / pi (radius=None):
# a configured radius belongs to the configured N, as in the closed-form checks.
SPECTRUM_NS = (3, 4, 6, 12, 24, 33, 64)
TABLE_NS = (4, 6, 12, 24)
DENSE_N = 12   # ring size of the remaining dense checks, one of TABLE_NS
RTOL = 4.0 * sys.float_info.epsilon
NO_ROOT = "no root found in the bracket"
NONPOSITIVE_SWEEP = "frequency sweep would reach omega <= 0"
NO_SURFACE = "the wave-vector surface has no points"
NO_TANGENT = "finite-difference stencil leaves the causal branch or the energy flow is not finite"
OVERFLOW = "squared elements overflow the float range"


def _brentq(f, a, b, xtol, rtol=RTOL, maxiter=100):
    """Root of f in [a, b] by Brent's method, or None when there is none to find.

    A line-for-line port of scipy's ``brentq.c`` (Brent 1973, ch. 4): the same
    steps in the same IEEE order, so it returns the same float bits.  None when
    f(a) and f(b) are of one sign, f is NaN, or maxiter steps do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        return None
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C gets inf or NaN, and bisects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):   # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            return None
    return None


def _check(name, value, threshold, passed=None, note=""):
    if isinstance(value, np.generic):   # report plain Python scalars
        value = value.item()
    if passed is None:
        passed = bool(value <= threshold)
    return {
        "name": name,
        "value": value,
        "threshold": threshold,
        "passed": bool(passed),
        "note": note,
    }


def spectrum_checks(params: RingParams) -> list[dict]:
    worst_e, worst_u = 0.0, 0.0
    for n in SPECTRUM_NS:
        p = replace(params, n_per_ring=n, radius=None)
        closed = np.sort(band_energies(p))
        w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
        worst_e = np.maximum(worst_e, float(np.abs(closed - w).max()))
        u = amplitude_matrix(p)
        worst_u = np.maximum(worst_u, float(np.abs(u.conj().T @ u - np.eye(2 * n)).max()))
    proj = bf.eigenspace_projector_residual(replace(params, n_per_ring=DENSE_N, radius=None))
    return [
        _check("spectrum_closed_vs_dense_ev", worst_e, 1e-10,
               note=f"N in {SPECTRUM_NS}"),
        _check("eigenvector_unitarity", worst_u, 1e-12),
        _check("eigenspace_projectors", float(proj), 1e-10),
    ]


def dipole_checks(params: RingParams) -> list[dict]:
    out = []
    worst_tbl = {"electric": 0.0, "magnetic": 0.0}
    worst_dyad = {"electric": 0.0, "magnetic": 0.0}
    tables = {}
    for n in TABLE_NS:
        p = replace(params, n_per_ring=n, radius=None)
        w, v = bf.numeric_eigensystem(bf.build_hamiltonian(p))
        u = amplitude_matrix(p)
        for kind, ana_fn, op in (
            ("electric", dp.electric_table, bf.electric_dipole_matrix(p)),
            ("magnetic", dp.magnetic_table, bf.magnetic_dipole_matrix(p, "commutator")),
        ):
            ana, num = ana_fn(p), bf._sandwich(op, u)
            scale = float(np.abs(num).max())
            worst_tbl[kind] = np.maximum(worst_tbl[kind], float(np.abs(ana - num).max()) / scale)
            worst_dyad[kind] = np.maximum(worst_dyad[kind],
                                          _dyad_deviation(p, w, bf._sandwich(op, v), ana))
            tables[n, kind] = ana, num
    for kind in ("electric", "magnetic"):
        out.append(_check(f"{kind}_table_vs_numeric", worst_tbl[kind], 1e-9,
                          note=f"momentum basis, N in {TABLE_NS}"))
        if worst_dyad[kind] == math.inf:
            out += _overdamped(f"{kind}_dyads_vs_dense_eigenvectors", note=OVERFLOW)
        else:
            out.append(_check(f"{kind}_dyads_vs_dense_eigenvectors", worst_dyad[kind], 1e-8,
                              note="ground-state dyads summed over degenerate levels"))
    p12 = replace(params, n_per_ring=DENSE_N, radius=None)
    (ana_e, num_e), (ana_m, num_m) = tables[DENSE_N, "electric"], tables[DENSE_N, "magnetic"]
    cal_e = bf.calibrate_conventions(ana_e, num_e, DENSE_N, float(np.abs(ana_e).max()))
    cal_m = bf.calibrate_conventions(ana_m, num_m, DENSE_N, float(np.abs(ana_m).max()))
    out.append(_check("electric_block_calibration", cal_e.residual, 1e-9,
                      note="fitted block phases are all +1"))
    out.append(_check("magnetic_block_calibration", cal_m.residual, 1e-9,
                      note="fitted block phases are all +1"))
    out.append(_check("selection_rule_sparsity", _sparsity_deviation(p12, num_e, num_m), 1e-12,
                      note="magnitudes outside the allowed blocks / natural scale"))
    bond = bf.numeric_magnetic_elements(p12, "bond_current")
    out.append(_check("commutator_vs_bond_current",
                      float(np.abs(num_m - bond).max() / np.abs(num_m).max()), 1e-10))
    return out


def _dyad_deviation(params: RingParams, w: np.ndarray, num: np.ndarray,
                    tbl: np.ndarray) -> float:
    """Ground-state transition dyads, numeric vs analytic, level-projected.

    ``num`` is the operator in the dense eigenbasis of levels ``w`` and ``tbl``
    its closed-form table; infinite when the squared elements overflow.
    """
    (ground, _), *excited = bf.match_levels(w, band_energies(params))
    try:
        scale = float(np.abs(num).max()) ** 2
    except OverflowError:
        return math.inf
    worst = 0.0
    for grp, cols in excited:
        vec_num = num[np.ix_(ground, grp)].reshape(-1, 3)
        vec_ana = tbl[0, cols]   # label 0 is the ground state
        dy_num = (vec_num[:, :, None] * vec_num.conj()[:, None, :]).sum(axis=0)
        dy_ana = (vec_ana[:, :, None] * vec_ana.conj()[:, None, :]).sum(axis=0)
        worst = np.maximum(worst, float(np.abs(dy_num - dy_ana).max()) / scale)
    return worst


def _sparsity_deviation(params: RingParams, d_num: np.ndarray, m_num: np.ndarray) -> float:
    """Largest numeric element outside the allowed blocks, per natural scale.

    Over the momentum-basis tables [a, b, c] = <a| O_c |b>, so each rule reads
    from b to a; magnetic elements count beyond |dl| = 2 and between bands.
    """
    n = params.n_per_ring
    band, ell = label_axes(n)
    dl = (ell[:, None] - ell[None, :]) % n        # l_a - l_b
    far = np.abs(np.where(dl > n // 2, dl - n, dl)) > 2
    inter = band[:, None] != band[None, :]
    # [kind, a, b, c]: the rule allows component c from b to a
    rules = dp.selection_table(n)[:, band[None, :], band[:, None], dl]
    allowed = rules[..., None] & dp.COMPONENT_BITS > 0
    d_scale = E_CHARGE * params.half_width
    m_scale = E_CHARGE * params.xi_intra * EV * params.radius * params.half_width / HBAR
    # np.hypot rounds like scalar abs(complex), array np.abs may not: keep each form's bits
    off_e = np.hypot(d_num.real, d_num.imag)[~allowed[0]] / d_scale
    off_far = np.abs(m_num[far]) / m_scale
    off_m = np.hypot(m_num.real, m_num.imag)[
        (inter & ~far)[..., None] & ~allowed[1]] / m_scale
    return float(np.max([off.max(initial=0.0) for off in (off_e, off_far, off_m)]))


def topology_checks(params: RingParams) -> list[dict]:
    p12 = replace(params, n_per_ring=DENSE_N, radius=None)
    ring_report = bf.perfect_ring_regression(replace(p12, topology=Topology.SINGLE_RING))
    annulene = bf.annulene_cross_check(replace(p12, topology=Topology.DOUBLE_RING_PERIODIC))
    mobius = bf.shared_transition_scan(p12)
    delta0_ev = angular_frequency_to_ev(rs.resonance_frequency(rs.MediumConfig(p12)))
    shared_at_resonance = any(
        t.electric > 1e-9 and t.magnetic > 1e-9
        and abs(t.frequency_ev - delta0_ev) < 1e-9
        for t in mobius.transitions
    )
    return [
        _check("perfect_ring_commutator", ring_report.commutator_norm, 1e-12),
        _check("perfect_ring_offdiag_magnetic", ring_report.max_offdiag_magnetic, 1e-12),
        _check("perfect_ring_has_electric_transitions",
               ring_report.max_offdiag_electric, 1e-3,
               passed=ring_report.max_offdiag_electric > 1e-3,
               note="contrast: electric elements stay finite"),
        _check("annulene_shared_transitions", annulene.n_shared, 0,
               passed=annulene.n_shared == 0,
               note="no frequency couples both electrically and magnetically"),
        _check("mobius_shared_transition", int(shared_at_resonance), 1,
               passed=shared_at_resonance,
               note="lowest inter-band line couples both ways"),
    ]


def response_checks(params: RingParams) -> list[dict]:
    out = []
    cfg = rs.MediumConfig(params)
    delta0 = rs.resonance_frequency(cfg)
    bw = rs.bandwidth(cfg)
    zeros = rs.mu1_zero_detunings(cfg)
    if zeros is not None:
        f = lambda om: rs.mu1(cfg, om)
        lo = _brentq(f, delta0 + 0.2 * zeros[0], delta0 + 2.0 * zeros[0], xtol=1e-3)
        hi = _brentq(f, delta0 + 0.5 * (zeros[0] + zeros[1]), delta0 + 2.0 * zeros[1],
                     xtol=1e-3)
        if lo is None or hi is None:
            out += _overdamped("bandwidth_closed_vs_roots", note=NO_ROOT)
        else:
            rel = abs((hi - lo) - bw) / bw
            out.append(_check("bandwidth_closed_vs_roots", rel, 1e-6,
                              note="mu1 root separation vs closed form"))
        mid = delta0 + 0.5 * (zeros[0] + zeros[1])
        simultaneous = rs.eps1(cfg, mid) < 0.0 and rs.mu1(cfg, mid) < 0.0
        out.append(_check("simultaneous_negative_window", int(simultaneous), 1,
                          passed=simultaneous,
                          note="eps1 < 0 and mu1 < 0 inside the mu1 window"))
    else:
        out.append(_check("bandwidth_closed_vs_roots", float("nan"), 1e-6,
                          passed=False, note="overdamped: no mu1 window"))
        out += _overdamped("simultaneous_negative_window")
    for conv in ("cylinder_4w", "cylinder_2w"):
        cfg_c = rs.MediumConfig(replace(params, volume_convention=VolumeConvention(conv)))
        out.append(_check(f"critical_lifetime_{conv}", rs.critical_lifetime(cfg_c), None,
                          passed=True,
                          note="the two volume conventions differ by exactly a factor 2 "
                               "in tau_c (0.52 ns for the 4W cylinder, 0.26 ns for 2W)"))
    om = delta0 + 50.0 * cfg.ring.decay_rate
    full = rs.epsilon_from_full_sum(cfg, om)
    single = rs.epsilon_tensor(cfg, om)
    dominant = np.abs(single) > 1.0
    if dominant.any():
        rel = float((np.abs(full - single)[dominant] / np.abs(single)[dominant]).max())
        out.append(_check("full_sum_vs_single_resonance_eps", rel, 1e-2,
                          note="50 linewidths above resonance"))
    else:
        out += _overdamped("full_sum_vs_single_resonance_eps",
                           note="no tensor entry above 1 in magnitude to compare")
    # corrected principal value crosses zero at eta' = 3/10 (uncorrected: 1/5)
    def corrected_principal(om):
        t = rs.local_field_epsilon(cfg, om)
        return float(np.linalg.eigvalsh(t[1:, 1:]).min())

    def eta_crossing(level):
        return _brentq(lambda om: rs.eta(cfg, om).real - level,
                       delta0 + cfg.ring.decay_rate, delta0 + 1e8 * cfg.ring.decay_rate,
                       xtol=1e-3)

    om_corr = eta_crossing(0.3)
    if om_corr is None:
        out += _overdamped("local_field_zero_crossing", note=NO_ROOT)
    else:
        out.append(_check("local_field_zero_crossing",
                          abs(corrected_principal(om_corr)), 1e-9,
                          note="corrected principal value vanishes where eta' = 3/10"))
    om_unc = eta_crossing(0.2)
    if om_unc is None:
        out += _overdamped("uncorrected_zero_crossing", note=NO_ROOT)
    else:
        out.append(_check("uncorrected_zero_crossing", abs(rs.eps1(cfg, om_unc)), 1e-9,
                          note="eps1 vanishes where eta' = 1/5"))
    if zeros is not None:
        overlap = rs.eps1(cfg, mid) < 0.0 and corrected_principal(mid) < 0.0
    elif om_corr is None or om_unc is None:
        return out + _overdamped("corrected_window_overlaps_uncorrected", note=NO_ROOT)
    else:
        overlap = (rs.eps1(cfg, om_corr) < 0.0) and (corrected_principal(om_unc) < 0.0
                                                     or corrected_principal(om_corr) <= 0.0)
    out.append(_check("corrected_window_overlaps_uncorrected", int(overlap), 1,
                      passed=bool(overlap),
                      note="both negative-permittivity windows share frequencies"))
    return out


def _overdamped(*names, note="overdamped: no mu1 window") -> list[dict]:
    """Failed checks with nothing to sample, so every ring reports the same names."""
    return [_check(name, float("nan"), None, passed=False, note=note) for name in names]


def _largest(name, values: np.ndarray, threshold) -> list[dict]:
    """Check on the largest of values, or failed with a note when there are none."""
    if not values.size:
        return _overdamped(name, note=NO_SURFACE)
    return [_check(name, np.max(values), threshold)]


def refraction_checks(params: RingParams) -> list[dict]:
    out = []
    cfg = rs.MediumConfig(params)
    delta0 = rs.resonance_frequency(cfg)
    bw = rs.bandwidth(cfg)
    zeros = rs.mu1_zero_detunings(cfg)
    diagram_checks = ("phase_diagram_E_has_lh_band", "phase_diagram_H_no_lh",
                      "lh_band_bounded_by_mu1_zeros", "lh_band_contiguous")
    if zeros is None:
        out += _overdamped(*diagram_checks)
    elif delta0 - 10 * bw <= 0.0:
        out += _overdamped(*diagram_checks, note=NONPOSITIVE_SWEEP)
    else:
        theta = np.linspace(0.0, math.radians(89.0), 128)
        omega = np.linspace(delta0 - 10 * bw, delta0 + 10 * bw, 512)
        pd_e = rf.phase_diagram(cfg, rf.Polarization.E, theta, omega)
        pd_h = rf.phase_diagram(cfg, rf.Polarization.H, theta, omega)
        lh_e = pd_e.count(rf.Classification.LH)
        lh_h = pd_h.count(rf.Classification.LH)
        out.append(_check("phase_diagram_E_has_lh_band", lh_e, 1,
                          passed=lh_e > 0, note=f"{lh_e} cells"))
        out.append(_check("phase_diagram_H_no_lh", lh_h, 0, passed=lh_h == 0))
        lh_rows = np.where((pd_e.codes == int(rf.Classification.LH)).any(axis=0))[0]
        step = float(omega[1] - omega[0])
        if lh_rows.size:
            lo_err = abs(omega[lh_rows[0]] - (delta0 + zeros[0]))
            hi_err = abs(omega[lh_rows[-1]] - (delta0 + zeros[1]))
            out.append(_check("lh_band_bounded_by_mu1_zeros",
                              float(np.maximum(lo_err, hi_err)), step,
                              note="band endpoints within one grid step"))
            contiguous = np.array_equal(lh_rows, np.arange(lh_rows[0], lh_rows[-1] + 1))
            out.append(_check("lh_band_contiguous", int(contiguous), 1, passed=contiguous))
        else:
            out += _overdamped("lh_band_bounded_by_mu1_zeros", "lh_band_contiguous",
                               note="no LH cells in the E diagram")
    # the circle radius^2 = 1 - eta' assumes mu_r ~ 1 at 0.5 delta0; a large
    # half width grows the magnetic response out of that domain (8.9e-3 at
    # 1e3 nm, where mu_xx = 1.008, and 0.887 at 1e5 nm)
    t_low = rs.response_tensors(cfg, 0.5 * delta0)
    sr = rf.wave_vector_surface(t_low, rf.Polarization.E, 200)
    h = rs.eta(cfg, 0.5 * delta0).real
    out += _largest("surface_circle_residual",
                    np.abs(rf._sq(sr.n_ty) + rf._sq(sr.n_tz) - (1.0 - h)), 1e-3)
    if zeros is None:
        return out + _overdamped("surface_hyperbola_residual", "poynting_normal_to_surface",
                                 "lossy_window_shift", "overdamped_window_empty")
    mid = delta0 + 0.5 * (zeros[0] + zeros[1])
    t_mid = rs.response_tensors(cfg, mid)
    sr2 = rf.wave_vector_surface(t_mid, rf.Polarization.E, 200)
    out += _largest("surface_hyperbola_residual",
                    rf.rotated_conic_residual(t_mid, rf.Polarization.E, sr2.n_ty, sr2.n_tz), 1e-6)
    normal = np.concatenate([rf.surface_normal_check(t, rf.Polarization.E, res.n_ty, res.n_tz)
                             for t, res in ((t_low, sr), (t_mid, sr2))])
    if np.isnan(normal).any():
        out += _overdamped("poynting_normal_to_surface", note=NO_TANGENT)
    else:
        out += _largest("poynting_normal_to_surface", normal, 1e-6)
    if delta0 - 2 * bw <= 0.0:
        return out + _overdamped("lossy_window_shift", "overdamped_window_empty",
                                 note=NONPOSITIVE_SWEEP)
    grid = np.linspace(delta0 - 2 * bw, delta0 + 2 * bw, 2000)
    win = rf.lossy_lh_window(cfg, grid)
    if win is None:
        out.append(_check("lossy_window_shift", float("nan"), 0.1, passed=False))
    else:
        shift = np.maximum(abs((win[0] - delta0) - zeros[0]),
                           abs((win[1] - delta0) - zeros[1])) / bw
        out.append(_check("lossy_window_shift", float(shift), 0.1,
                          note="endpoint shift relative to bandwidth"))
    tau_c = rs.critical_lifetime(cfg)
    cfg_over = rs.MediumConfig(replace(params, decay_rate=1.0 / (0.8 * tau_c)))
    win_over = rf.lossy_lh_window(cfg_over, grid)
    out.append(_check("overdamped_window_empty", int(win_over is None), 1,
                      passed=win_over is None,
                      note="lifetime below the critical value"))
    return out


def validation_report(params: RingParams | None = None) -> dict:
    """Run every cross-check and return a JSON-ready report."""
    if params is None:
        params = RingParams(12)
    checks = (
        spectrum_checks(params)
        + dipole_checks(params)
        + topology_checks(params)
        + response_checks(params)
        + refraction_checks(params)
    )
    return {
        "n_per_ring": params.n_per_ring,
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
