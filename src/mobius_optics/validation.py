"""Cross-validation of the closed forms against the brute-force route.

Every check pairs an analytic quantity with an independent numerical
construction and reports the deviation against a fixed threshold.  The
report is a plain dict (JSON-serialisable) so the command line can emit it
and scripts can assert on it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from . import bruteforce as bf
from . import dipole as dp
from . import refraction as rf
from . import response as rs
from .constants import E_CHARGE, EV, HBAR
from .ring import (
    Band,
    EigenLabel,
    RingParams,
    Topology,
    all_labels,
    amplitude_matrix,
    band_energy,
)

SPECTRUM_NS = (3, 4, 6, 12, 24, 33, 64)
TABLE_NS = (4, 6, 12, 24)


def _check(name, value, threshold, passed=None, note=""):
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
        closed = np.sort([band_energy(p, lab) for lab in all_labels(n)])
        w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
        worst_e = max(worst_e, float(np.abs(closed - w).max()))
        u = amplitude_matrix(p)
        worst_u = max(worst_u, float(np.abs(u.conj().T @ u - np.eye(2 * n)).max()))
    proj = bf.eigenspace_projector_residual(replace(params, radius=None))
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
    for n in TABLE_NS:
        p = replace(params, n_per_ring=n, radius=None)
        for kind, ana_fn, num_fn in (
            ("electric", dp.electric_table,
             lambda q: bf.numeric_electric_elements(q, momentum_basis=True)),
            ("magnetic", dp.magnetic_table,
             lambda q: bf.numeric_magnetic_elements(q, momentum_basis=True)),
        ):
            ana = ana_fn(p)
            num = num_fn(p)
            scale = float(np.abs(num).max())
            worst_tbl[kind] = max(worst_tbl[kind], float(np.abs(ana - num).max()) / scale)
            worst_dyad[kind] = max(worst_dyad[kind], _dyad_deviation(p, kind))
    for kind in ("electric", "magnetic"):
        out.append(_check(f"{kind}_table_vs_numeric", worst_tbl[kind], 1e-9,
                          note=f"momentum basis, N in {TABLE_NS}"))
        out.append(_check(f"{kind}_dyads_vs_dense_eigenvectors", worst_dyad[kind], 1e-8,
                          note="ground-state dyads summed over degenerate levels"))
    p12 = replace(params, n_per_ring=12, radius=None)
    cal_e = bf.calibrate_conventions(
        dp.electric_table(p12), bf.numeric_electric_elements(p12, momentum_basis=True),
        12, float(np.abs(dp.electric_table(p12)).max()))
    cal_m = bf.calibrate_conventions(
        dp.magnetic_table(p12), bf.numeric_magnetic_elements(p12, momentum_basis=True),
        12, float(np.abs(dp.magnetic_table(p12)).max()))
    out.append(_check("electric_block_calibration", cal_e.residual, 1e-9,
                      note="fitted block phases are all +1"))
    out.append(_check("magnetic_block_calibration", cal_m.residual, 1e-9,
                      note="fitted block phases are all +1"))
    out.append(_check("selection_rule_sparsity", _sparsity_deviation(p12), 1e-12,
                      note="magnitudes outside the allowed blocks / natural scale"))
    comm = bf.numeric_magnetic_elements(p12, "commutator", momentum_basis=True)
    bond = bf.numeric_magnetic_elements(p12, "bond_current", momentum_basis=True)
    out.append(_check("commutator_vs_bond_current",
                      float(np.abs(comm - bond).max() / np.abs(comm).max()), 1e-10))
    return out


def _dyad_deviation(params: RingParams, kind: str) -> float:
    """Ground-state transition dyads, numeric vs analytic, level-projected."""
    h = bf.build_hamiltonian(params)
    w, v = bf.numeric_eigensystem(h)
    if kind == "electric":
        op = bf.electric_dipole_matrix(params)
        tbl = dp.electric_table(params)
    else:
        op = bf.magnetic_dipole_matrix(params, "commutator")
        tbl = dp.magnetic_table(params)
    num = bf._sandwich(op, v)
    labels = all_labels(params.n_per_ring)
    energies = np.array([band_energy(params, lab) for lab in labels])
    groups_num = bf.group_levels(w)
    ground_num = groups_num[0]
    scale = float(np.abs(num).max()) ** 2
    worst = 0.0
    for grp in groups_num[1:]:
        e_level = float(w[grp].mean())
        cols = np.where(np.abs(energies - e_level) < 1e-6)[0]
        dy_num = np.zeros((3, 3), dtype=complex)
        for g in ground_num:
            for e_idx in grp:
                vec = num[g, e_idx]
                dy_num += np.outer(vec, vec.conj())
        dy_ana = np.zeros((3, 3), dtype=complex)
        for col in cols:
            vec = tbl[0, col]
            dy_ana += np.outer(vec, vec.conj())
        worst = max(worst, float(np.abs(dy_num - dy_ana).max()) / scale)
    return worst


def _sparsity_deviation(params: RingParams) -> float:
    """Largest numeric element outside the allowed blocks, per natural scale."""
    n = params.n_per_ring
    labels = all_labels(n)
    d_num = bf.numeric_electric_elements(params, momentum_basis=True)
    m_num = bf.numeric_magnetic_elements(params, momentum_basis=True)
    d_scale = E_CHARGE * params.half_width
    m_scale = E_CHARGE * params.xi_intra * EV * params.radius * params.half_width / HBAR
    comps = "xyz"
    worst = 0.0
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            dl = (lb.momentum_index - la.momentum_index) % n
            if dl > n // 2:
                dl -= n
            sel_e = dp.electric_selection(n, lb, la)  # from b to a: <a|O|b>
            for c in range(3):
                if comps[c] not in sel_e:
                    worst = max(worst, abs(d_num[a, b, c]) / d_scale)
            if abs(dl) > 2:
                worst = max(worst, float(np.abs(m_num[a, b]).max()) / m_scale)
            elif la.band is not lb.band:
                sel_m = dp.magnetic_selection(n, lb, la)
                for c in range(3):
                    if comps[c] not in sel_m:
                        worst = max(worst, abs(m_num[a, b, c]) / m_scale)
    return worst


def topology_checks(params: RingParams) -> list[dict]:
    single = replace(params, topology=Topology.SINGLE_RING, radius=None)
    ring_report = bf.perfect_ring_regression(single)
    annulene = bf.annulene_cross_check(
        replace(params, topology=Topology.DOUBLE_RING_PERIODIC, radius=None))
    mobius = bf.shared_transition_scan(replace(params, radius=None))
    delta0_ev = (band_energy(replace(params, radius=None), EigenLabel(0, Band.UP))
                 - band_energy(replace(params, radius=None), EigenLabel(0, Band.DOWN)))
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
    cfg = rs.MediumConfig(replace(params, radius=None))
    delta0 = rs.resonance_frequency(cfg)
    bw = rs.bandwidth(cfg)
    zeros = rs.mu1_zero_detunings(cfg)
    if zeros is not None:
        f = lambda om: rs.mu1(cfg, om)
        lo = brentq(f, delta0 + 0.2 * zeros[0], delta0 + 2.0 * zeros[0], xtol=1e-3)
        hi = brentq(f, delta0 + 0.5 * (zeros[0] + zeros[1]), delta0 + 2.0 * zeros[1],
                    xtol=1e-3)
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
    from .ring import VolumeConvention

    for conv in ("cylinder_4w", "cylinder_2w"):
        cfg_c = rs.MediumConfig(replace(params, radius=None,
                                      volume_convention=VolumeConvention(conv)))
        out.append({
            "name": f"critical_lifetime_{conv}",
            "value": rs.critical_lifetime(cfg_c),
            "threshold": None,
            "passed": True,
            "note": "the two volume conventions differ by exactly a factor 2 "
                    "in tau_c (0.52 ns for the 4W cylinder, 0.26 ns for 2W)",
        })
    om = delta0 + 50.0 * cfg.ring.decay_rate
    full = rs.epsilon_from_full_sum(cfg, om)
    single = rs.epsilon_tensor(cfg, om)
    dominant = np.abs(single) > 1.0
    rel = float((np.abs(full - single)[dominant] / np.abs(single)[dominant]).max())
    out.append(_check("full_sum_vs_single_resonance_eps", rel, 1e-2,
                      note="50 linewidths above resonance"))
    # corrected principal value crosses zero at eta' = 3/10 (uncorrected: 1/5)
    def corrected_principal(om):
        t = rs.local_field_epsilon(cfg, om)
        return float(np.linalg.eigvalsh(t[1:, 1:]).min())

    om_corr = brentq(
        lambda om: rs.eta(cfg, om).real - 0.3, delta0 + cfg.ring.decay_rate,
        delta0 + 1e8 * cfg.ring.decay_rate, xtol=1e-3)
    out.append(_check("local_field_zero_crossing",
                      abs(corrected_principal(om_corr)), 1e-9,
                      note="corrected principal value vanishes where eta' = 3/10"))
    om_unc = brentq(
        lambda om: rs.eta(cfg, om).real - 0.2, delta0 + cfg.ring.decay_rate,
        delta0 + 1e8 * cfg.ring.decay_rate, xtol=1e-3)
    out.append(_check("uncorrected_zero_crossing", abs(rs.eps1(cfg, om_unc)), 1e-9,
                      note="eps1 vanishes where eta' = 1/5"))
    if zeros is not None:
        both_negative_sample = delta0 + 0.5 * (zeros[0] + zeros[1])
        overlap = (rs.eps1(cfg, both_negative_sample) < 0.0
                   and corrected_principal(both_negative_sample) < 0.0)
    else:
        overlap = (rs.eps1(cfg, om_corr) < 0.0) and (corrected_principal(om_unc) < 0.0
                                                     or corrected_principal(om_corr) <= 0.0)
    out.append(_check("corrected_window_overlaps_uncorrected", int(overlap), 1,
                      passed=bool(overlap),
                      note="both negative-permittivity windows share frequencies"))
    return out


def _overdamped(*names) -> list[dict]:
    """Failed checks for a ring whose mu1 < 0 window they would sample."""
    return [_check(name, float("nan"), None, passed=False,
                   note="overdamped: no mu1 window") for name in names]


def refraction_checks(params: RingParams) -> list[dict]:
    out = []
    cfg = rs.MediumConfig(replace(params, radius=None))
    delta0 = rs.resonance_frequency(cfg)
    bw = rs.bandwidth(cfg)
    zeros = rs.mu1_zero_detunings(cfg)
    if zeros is None:
        out += _overdamped("phase_diagram_E_has_lh_band", "phase_diagram_H_no_lh",
                           "lh_band_bounded_by_mu1_zeros")
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
                              float(max(lo_err, hi_err)), step,
                              note="band endpoints within one grid step"))
            contiguous = np.array_equal(lh_rows, np.arange(lh_rows[0], lh_rows[-1] + 1))
            out.append(_check("lh_band_contiguous", int(contiguous), 1, passed=contiguous))
    t_low = rs.response_tensors(cfg, 0.5 * delta0)
    sr = rf.wave_vector_surface(t_low, rf.Polarization.E, 200)
    h = rs.eta(cfg, 0.5 * delta0).real
    circ = max(abs(p.n_ty**2 + p.n_tz**2 - (1.0 - h)) for p in sr.points)
    out.append(_check("surface_circle_residual", float(circ), 1e-3))
    if zeros is None:
        return out + _overdamped("surface_hyperbola_residual", "poynting_normal_to_surface",
                                 "lossy_window_shift", "overdamped_window_empty")
    mid = delta0 + 0.5 * (zeros[0] + zeros[1])
    t_mid = rs.response_tensors(cfg, mid)
    sr2 = rf.wave_vector_surface(t_mid, rf.Polarization.E, 200)
    hyp = max(rf.rotated_conic_residual(t_mid, rf.Polarization.E, p) for p in sr2.points)
    out.append(_check("surface_hyperbola_residual", float(hyp), 1e-6))
    worst_normal = 0.0
    for tensors, res in ((t_low, sr), (t_mid, sr2)):
        for pt in res.points:
            worst_normal = max(
                worst_normal,
                rf.surface_normal_check(tensors, rf.Polarization.E, pt))
    out.append(_check("poynting_normal_to_surface", float(worst_normal), 1e-6))
    grid = np.linspace(delta0 - 2 * bw, delta0 + 2 * bw, 2000)
    win = rf.lossy_lh_window(cfg, grid)
    if win is None:
        out.append(_check("lossy_window_shift", float("nan"), 0.1, passed=False))
    else:
        shift = max(abs((win[0] - delta0) - zeros[0]),
                    abs((win[1] - delta0) - zeros[1])) / bw
        out.append(_check("lossy_window_shift", float(shift), 0.1,
                          note="endpoint shift relative to bandwidth"))
    tau_c = rs.critical_lifetime(cfg)
    cfg_over = rs.MediumConfig(replace(params, radius=None,
                                     decay_rate=1.0 / (0.8 * tau_c)))
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
