"""Cross-validation of the closed forms against the brute-force route.

Every check pairs an analytic quantity with an independent numerical
construction and reports the deviation against a fixed threshold.  The
report is a plain dict (JSON-serialisable) so the command line can emit it
and scripts can assert on it.

``CHECKS`` declares every check once, in report order: its name, threshold,
note and pass rule.  Each group function returns one mapping from check name
to a value, or to the reason there is none (``NO_ROOT``, ``NONPOSITIVE_SWEEP``,
``NO_SURFACE``, ``NO_TANGENT``, ``OVERFLOW``, ``OVERDAMPED``, ``NO_LH_BAND``,
``NO_DOMINANT_ENTRY``, ``NO_LOSSY_LH``); a reason row reads NaN, a blank
threshold, failed, and the reason as its note.  A new check is one ``CHECKS``
row plus one entry in its group's return: ``validation_report`` raises unless
the groups return each name of the table once.

The dense cross-checks run at fixed ring sizes (``SPECTRUM_NS``,
``TABLE_NS``, ``DENSE_N``), building each dense object once per size, so
their cost does not grow with N; the configured N reaches only the
closed-form checks.  Reductions keep NaN (``np.maximum``, ``np.max``, not
``max``), so a NaN deviation fails its check.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

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

# reasons a check has no value, each the note of its failed row
NO_ROOT = "no root found in the bracket"
NONPOSITIVE_SWEEP = "frequency sweep would reach omega <= 0"
NO_SURFACE = "the wave-vector surface has no points"
NO_TANGENT = "finite-difference stencil leaves the causal branch or the energy flow is not finite"
OVERFLOW = "squared elements overflow the float range"
OVERDAMPED = "overdamped: no mu1 window"
NO_LH_BAND = "no LH cells in the E diagram"
NO_DOMINANT_ENTRY = "no tensor entry above 1 in magnitude to compare"
NO_LOSSY_LH = "no LH cell at normal incidence in the lossy sweep"

# pass rules on (value, threshold)
AT_MOST, AT_LEAST, ABOVE, ALWAYS = operator.le, operator.ge, operator.gt, lambda v, t: True
PER_RUN = object()   # a threshold the group returns with the value, as (value, threshold)


class Check(NamedTuple):
    name: str
    threshold: float | int | None   # None: no bound; PER_RUN: the group returns it
    note: str = ""                  # a template on the value, as in "{value} cells"
    passes: Callable[[object, object], bool] = AT_MOST


_TAU_NOTE = ("the two volume conventions differ by exactly a factor 2 "
             "in tau_c (0.52 ns for the 4W cylinder, 0.26 ns for 2W)")
CHECKS = (
    Check("spectrum_closed_vs_dense_ev", 1e-10, f"N in {SPECTRUM_NS}"),
    Check("eigenvector_unitarity", 1e-12),
    Check("eigenspace_projectors", 1e-10),
    Check("electric_table_vs_numeric", 1e-9, f"momentum basis, N in {TABLE_NS}"),
    Check("electric_dyads_vs_dense_eigenvectors", 1e-8, "ground-state dyads summed over degenerate levels"),
    Check("magnetic_table_vs_numeric", 1e-9, f"momentum basis, N in {TABLE_NS}"),
    Check("magnetic_dyads_vs_dense_eigenvectors", 1e-8, "ground-state dyads summed over degenerate levels"),
    Check("electric_block_calibration", 1e-9, "fitted block phases are all +1"),
    Check("magnetic_block_calibration", 1e-9, "fitted block phases are all +1"),
    Check("selection_rule_sparsity", 1e-12, "magnitudes outside the allowed blocks / natural scale"),
    Check("commutator_vs_bond_current", 1e-10),
    Check("perfect_ring_commutator", 1e-12),
    Check("perfect_ring_offdiag_magnetic", 1e-12),
    Check("perfect_ring_has_electric_transitions", 1e-3, "contrast: electric elements stay finite", ABOVE),
    Check("annulene_shared_transitions", 0, "no frequency couples both electrically and magnetically"),
    Check("mobius_shared_transition", 1, "lowest inter-band line couples both ways", AT_LEAST),
    Check("bandwidth_closed_vs_roots", 1e-6, "mu1 root separation vs closed form"),
    Check("simultaneous_negative_window", 1, "eps1 < 0 and mu1 < 0 inside the mu1 window", AT_LEAST),
    Check("critical_lifetime_cylinder_4w", None, _TAU_NOTE, ALWAYS),
    Check("critical_lifetime_cylinder_2w", None, _TAU_NOTE, ALWAYS),
    Check("full_sum_vs_single_resonance_eps", 1e-2, "50 linewidths above resonance"),
    Check("local_field_zero_crossing", 1e-9, "corrected principal value vanishes where eta' = 3/10"),
    Check("uncorrected_zero_crossing", 1e-9, "eps1 vanishes where eta' = 1/5"),
    Check("corrected_window_overlaps_uncorrected", 1,
          "both negative-permittivity windows share frequencies", AT_LEAST),
    Check("phase_diagram_E_has_lh_band", 1, "{value} cells", AT_LEAST),
    Check("phase_diagram_H_no_lh", 0),
    Check("lh_band_bounded_by_mu1_zeros", PER_RUN, "band endpoints within one grid step"),
    Check("lh_band_contiguous", 1, passes=AT_LEAST),
    Check("surface_circle_residual", 1e-3),
    Check("surface_hyperbola_residual", 1e-6),
    Check("poynting_normal_to_surface", 1e-6),
    Check("lossy_window_shift", 0.1, "endpoint shift relative to bandwidth"),
    Check("overdamped_window_empty", 1, "lifetime below the critical value", AT_LEAST),
)


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


def spectrum_checks(params: RingParams) -> dict:
    worst_e, worst_u = 0.0, 0.0
    for n in SPECTRUM_NS:
        p = replace(params, n_per_ring=n, radius=None)
        closed = np.sort(band_energies(p))
        w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
        worst_e = np.maximum(worst_e, float(np.abs(closed - w).max()))
        u = amplitude_matrix(p)
        worst_u = np.maximum(worst_u, float(np.abs(u.conj().T @ u - np.eye(2 * n)).max()))
    proj = bf.eigenspace_projector_residual(replace(params, n_per_ring=DENSE_N, radius=None))
    return {
        "spectrum_closed_vs_dense_ev": worst_e,
        "eigenvector_unitarity": worst_u,
        "eigenspace_projectors": float(proj),
    }


def dipole_checks(params: RingParams) -> dict:
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
    out = {}
    for kind in ("electric", "magnetic"):
        out[f"{kind}_table_vs_numeric"] = worst_tbl[kind]
        out[f"{kind}_dyads_vs_dense_eigenvectors"] = (
            OVERFLOW if worst_dyad[kind] == math.inf else worst_dyad[kind])
    p12 = replace(params, n_per_ring=DENSE_N, radius=None)
    (ana_e, num_e), (ana_m, num_m) = tables[DENSE_N, "electric"], tables[DENSE_N, "magnetic"]
    # an overflowing overlap (half widths near 1e90) gives a NaN phase: the residual is NaN
    with np.errstate(invalid="ignore"):
        cal_e = bf.calibrate_conventions(ana_e, num_e, DENSE_N, float(np.abs(ana_e).max()))
        cal_m = bf.calibrate_conventions(ana_m, num_m, DENSE_N, float(np.abs(ana_m).max()))
    bond = bf.numeric_magnetic_elements(p12, "bond_current")
    return out | {
        "electric_block_calibration": cal_e.residual,
        "magnetic_block_calibration": cal_m.residual,
        "selection_rule_sparsity": _sparsity_deviation(p12, num_e, num_m),
        "commutator_vs_bond_current": float(np.abs(num_m - bond).max() / np.abs(num_m).max()),
    }


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


def topology_checks(params: RingParams) -> dict:
    p12 = replace(params, n_per_ring=DENSE_N, radius=None)
    ring_report = bf.perfect_ring_regression(replace(p12, topology=Topology.SINGLE_RING))
    with np.errstate(over="ignore"):   # norms overflow at half widths near 1e90: no shared line
        annulene = bf.annulene_cross_check(replace(p12, topology=Topology.DOUBLE_RING_PERIODIC))
        mobius = bf.shared_transition_scan(p12)
    delta0_ev = angular_frequency_to_ev(rs.resonance_frequency(rs.MediumConfig(p12)))
    shared_at_resonance = any(
        t.electric > 1e-9 and t.magnetic > 1e-9
        and abs(t.frequency_ev - delta0_ev) < 1e-9
        for t in mobius.transitions
    )
    return {
        "perfect_ring_commutator": ring_report.commutator_norm,
        "perfect_ring_offdiag_magnetic": ring_report.max_offdiag_magnetic,
        "perfect_ring_has_electric_transitions": ring_report.max_offdiag_electric,
        "annulene_shared_transitions": annulene.n_shared,
        "mobius_shared_transition": int(shared_at_resonance),
    }


def response_checks(params: RingParams) -> dict:
    cfg = rs.MediumConfig(params)
    delta0 = rs.resonance_frequency(cfg)
    bw = rs.bandwidth(cfg)
    zeros = rs.mu1_zero_detunings(cfg)
    if zeros is None:
        bandwidth_dev = simultaneous = OVERDAMPED
    else:
        f = lambda om: rs.mu1(cfg, om)
        mid = delta0 + 0.5 * (zeros[0] + zeros[1])
        lo = _brentq(f, delta0 + 0.2 * zeros[0], mid, xtol=1e-3)
        hi = _brentq(f, mid, delta0 + 2.0 * zeros[1], xtol=1e-3)
        bandwidth_dev = NO_ROOT if lo is None or hi is None else abs((hi - lo) - bw) / bw
        simultaneous = int(rs.eps1(cfg, mid) < 0.0 and rs.mu1(cfg, mid) < 0.0)
    om = delta0 + 50.0 * cfg.ring.decay_rate
    full = rs.epsilon_from_full_sum(cfg, om)
    single = rs.response_tensors(cfg, om).eps_r
    dominant = np.abs(single) > 1.0
    full_sum_dev = (float((np.abs(full - single)[dominant] / np.abs(single)[dominant]).max())
                    if dominant.any() else NO_DOMINANT_ENTRY)
    # corrected principal value crosses zero at eta' = 3/10 (uncorrected: 1/5)
    def corrected_principal(om):
        t = rs.local_field_epsilon(cfg, om)
        return float(np.linalg.eigvalsh(t[1:, 1:]).min())

    def eta_crossing(level):
        return _brentq(lambda om: rs.eta(cfg, om).real - level,
                       delta0 + cfg.ring.decay_rate, delta0 + 1e8 * cfg.ring.decay_rate,
                       xtol=1e-3)

    om_corr = eta_crossing(0.3)
    om_unc = eta_crossing(0.2)
    if zeros is not None:
        overlap = int(rs.eps1(cfg, mid) < 0.0 and corrected_principal(mid) < 0.0)
    elif om_corr is None or om_unc is None:
        overlap = NO_ROOT
    else:
        overlap = int((rs.eps1(cfg, om_corr) < 0.0) and (corrected_principal(om_unc) < 0.0
                                                         or corrected_principal(om_corr) <= 0.0))
    return {
        "bandwidth_closed_vs_roots": bandwidth_dev,
        "simultaneous_negative_window": simultaneous,
        **{f"critical_lifetime_{conv}": rs.critical_lifetime(rs.MediumConfig(
            replace(params, volume_convention=VolumeConvention(conv))))
           for conv in ("cylinder_4w", "cylinder_2w")},
        "full_sum_vs_single_resonance_eps": full_sum_dev,
        "local_field_zero_crossing":
            NO_ROOT if om_corr is None else abs(corrected_principal(om_corr)),
        "uncorrected_zero_crossing": NO_ROOT if om_unc is None else abs(rs.eps1(cfg, om_unc)),
        "corrected_window_overlaps_uncorrected": overlap,
    }


def refraction_checks(params: RingParams) -> dict:
    cfg = rs.MediumConfig(params)
    delta0 = rs.resonance_frequency(cfg)
    bw = rs.bandwidth(cfg)
    zeros = rs.mu1_zero_detunings(cfg)
    if zeros is None:
        lh_e = lh_h = bounded = contiguous = OVERDAMPED
    elif delta0 - 10 * bw <= 0.0:
        lh_e = lh_h = bounded = contiguous = NONPOSITIVE_SWEEP
    else:
        theta = np.linspace(0.0, math.radians(89.0), 128)
        omega = np.linspace(delta0 - 10 * bw, delta0 + 10 * bw, 512)
        pd_e = rf.phase_diagram(cfg, rf.Polarization.E, theta, omega)
        lh_e = pd_e.count(rf.Classification.LH)
        lh_h = rf.phase_diagram(cfg, rf.Polarization.H, theta, omega).count(rf.Classification.LH)
        lh_rows = np.where((pd_e.codes == int(rf.Classification.LH)).any(axis=0))[0]
        if lh_rows.size:
            lo_err = abs(omega[lh_rows[0]] - (delta0 + zeros[0]))
            hi_err = abs(omega[lh_rows[-1]] - (delta0 + zeros[1]))
            bounded = float(np.maximum(lo_err, hi_err)), float(omega[1] - omega[0])
            contiguous = int(np.array_equal(lh_rows, np.arange(lh_rows[0], lh_rows[-1] + 1)))
        else:
            bounded = contiguous = NO_LH_BAND
    # the circle radius^2 = 1 - eta' assumes mu_r ~ 1 at 0.5 delta0; a large
    # half width grows the magnetic response out of that domain (8.9e-3 at
    # 1e3 nm, where mu_xx = 1.008, and 0.887 at 1e5 nm)
    t_low = rs.response_tensors(cfg, 0.5 * delta0)
    sr = rf.wave_vector_surface(t_low, rf.Polarization.E, 200)
    h = rs.eta(cfg, 0.5 * delta0).real
    circle = np.abs(rf._sq(sr.n_ty) + rf._sq(sr.n_tz) - (1.0 - h))
    circle = np.max(circle) if circle.size else NO_SURFACE
    if zeros is None:
        hyperbola = normal = shift = overdamped = OVERDAMPED
    else:
        mid = delta0 + 0.5 * (zeros[0] + zeros[1])
        t_mid = rs.response_tensors(cfg, mid)
        sr2 = rf.wave_vector_surface(t_mid, rf.Polarization.E, 200)
        hyperbola = rf.rotated_conic_residual(t_mid, rf.Polarization.E, sr2.n_ty, sr2.n_tz)
        hyperbola = np.max(hyperbola) if hyperbola.size else NO_SURFACE
        normal = np.concatenate([
            rf.surface_normal_check(t, rf.Polarization.E, res.n_ty, res.n_tz)
            for t, res in ((t_low, sr), (t_mid, sr2))])
        normal = (NO_TANGENT if np.isnan(normal).any()
                  else np.max(normal) if normal.size else NO_SURFACE)
        if delta0 - 2 * bw <= 0.0:
            shift = overdamped = NONPOSITIVE_SWEEP
        else:
            grid = np.linspace(delta0 - 2 * bw, delta0 + 2 * bw, 2000)
            win = rf.lossy_lh_window(cfg, grid)
            shift = NO_LOSSY_LH if win is None else float(np.maximum(
                abs((win[0] - delta0) - zeros[0]), abs((win[1] - delta0) - zeros[1])) / bw)
            tau_c = rs.critical_lifetime(cfg)
            cfg_over = rs.MediumConfig(replace(params, decay_rate=1.0 / (0.8 * tau_c)))
            overdamped = int(rf.lossy_lh_window(cfg_over, grid) is None)
    return {
        "phase_diagram_E_has_lh_band": lh_e,
        "phase_diagram_H_no_lh": lh_h,
        "lh_band_bounded_by_mu1_zeros": bounded,
        "lh_band_contiguous": contiguous,
        "surface_circle_residual": circle,
        "surface_hyperbola_residual": hyperbola,
        "poynting_normal_to_surface": normal,
        "lossy_window_shift": shift,
        "overdamped_window_empty": overdamped,
    }


def validation_report(params: RingParams | None = None) -> dict:
    """Run every cross-check and return a JSON-ready report, one row per ``CHECKS`` entry."""
    if params is None:
        params = RingParams(12)
    groups = [spectrum_checks(params), dipole_checks(params), topology_checks(params),
              response_checks(params), refraction_checks(params)]
    values = {name: value for group in groups for name, value in group.items()}
    if sorted(name for group in groups for name in group) != sorted(c.name for c in CHECKS):
        raise ValueError(f"check groups return {sorted(values)}, not each name of CHECKS once")
    checks = [_row(check, values[check.name]) for check in CHECKS]
    return {
        "n_per_ring": params.n_per_ring,
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _row(check: Check, value) -> dict:
    """The report row of one check: its value against the threshold, or failed for a reason."""
    if isinstance(value, str):
        return {"name": check.name, "value": math.nan, "threshold": None, "passed": False,
                "note": value}
    value, threshold = value if check.threshold is PER_RUN else (value, check.threshold)
    if isinstance(value, np.generic):   # report plain Python scalars
        value = value.item()
    return {"name": check.name, "value": value, "threshold": threshold,
            "passed": bool(check.passes(value, threshold)), "note": check.note.format(value=value)}
