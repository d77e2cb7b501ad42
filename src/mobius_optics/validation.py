"""Cross-validation of the closed forms against the brute-force route.

Every check pairs an analytic quantity with an independent numerical
construction and reports the deviation against a fixed threshold.  The
report is a plain dict (JSON-serialisable) so the command line can emit it
and scripts can assert on it.

``CHECKS`` declares every check once, in report order: its name, threshold,
note and pass rule.  Each group function returns one mapping from check name
to a value, or to the reason there is none (``NO_ROOT``, ``NONPOSITIVE_SWEEP``,
``REPEATED_SWEEP``, ``NO_SURFACE``, ``NO_TANGENT``, ``HOPPING_RATIO``,
``UNDERFLOW``, ``OVERDAMPED``, ``NO_LH_BAND``, ``NO_DOMINANT_ENTRY``,
``NO_LOSSY_LH``); a reason row reads NaN, a blank threshold, failed, and the
reason as its note.  A new check is one ``CHECKS`` row plus one entry in its
group's return: ``validation_report`` raises unless the groups return each
name of the table once.

The dense cross-checks (``DENSE_CHECKS``) run at fixed ring sizes
(``SPECTRUM_NS``, ``TABLE_NS``, ``DENSE_N``), so their cost does not grow
with N, and at a scale of powers of two that keeps their products in the
float range (``_canonical``); where V / xi is beyond that range, every dense
row reads ``HOPPING_RATIO``.  ``validation_report`` builds each dense object
once per ring and report, in one table of ``bruteforce.DenseRing`` contexts
made for the report and dropped when it returns.  A context groups its ring's
levels, matches them to the closed-form columns and projects each operator
onto each basis once, for every check: the groups read every dense table
through ``DenseRing.projection``.  A group called alone makes fresh contexts.
The oracle returns values, such as the block calibration residual; only a
row's threshold passes or fails it.

Reductions keep NaN (``np.maximum``, ``np.max``, not ``max``), so a NaN
deviation fails its check.
"""

from __future__ import annotations

import functools
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
from .response import NONPOSITIVE_SWEEP, OVERDAMPED, REPEATED_SWEEP
from .ring import (
    RingParams,
    Topology,
    VolumeConvention,
    band_energies,
    label_axes,
)

# Ring sizes of the dense checks, each with its own radius N W / pi (radius=None):
# a configured radius belongs to the configured N, as in the closed-form checks.
SPECTRUM_NS = (3, 4, 6, 12, 24, 33, 64)
TABLE_NS = (4, 6, 12, 24)
DENSE_N = 12   # ring size of the remaining dense checks, one of TABLE_NS

# reasons a check has no value, each the note of its failed row
NO_ROOT = "no root found in the bracket"
NO_SURFACE = "the wave-vector surface has no points"
NO_TANGENT = "finite-difference stencil leaves the causal branch or the energy flow is not finite"
HOPPING_RATIO = "V / xi or xi / V is beyond the float range"
UNDERFLOW = "the magnetic unit e xi R W / hbar underflows to 0"
NO_LH_BAND = "no LH cells in the E diagram"
NO_DOMINANT_ENTRY = "no tensor entry above 1 in magnitude to compare"
NO_LOSSY_LH = "no LH cell at normal incidence in the lossy sweep"

# pass rules on (value, threshold)
AT_MOST, AT_LEAST, ABOVE, ALWAYS = operator.le, operator.ge, operator.gt, lambda v, t: True
PER_RUN = object()   # a threshold the group returns with the value, as (value, threshold)

# a ring's dense context; validation_report hands the dense groups one table per report
Dense = Callable[[RingParams, float], bf.DenseRing]


class _Unscalable(ArithmeticError):
    """V / xi or xi / V is beyond the float range: one hopping is 0 in units of the other."""


class Check(NamedTuple):
    name: str
    threshold: float | int | None   # None: no bound; PER_RUN: the group returns it
    note: str = ""                  # a template on the value, as in "{value} cells"
    passes: Callable[[object, object], bool] = AT_MOST


_TAU_NOTE = ("the two volume conventions differ by exactly a factor 2 "
             "in tau_c (0.52 ns for the 4W cylinder, 0.26 ns for 2W)")
DENSE_CHECKS = (   # the rows of the dense groups, each run at a canonical ring
    Check("spectrum_closed_vs_dense_ev", 1e-10, f"N in {SPECTRUM_NS}"),
    Check("eigenvector_unitarity", 1e-12),
    Check("eigenspace_projectors", 1e-10),
    Check("electric_table_vs_numeric", 1e-9, f"momentum basis, N in {TABLE_NS}"),
    Check("electric_dyads_vs_dense_eigenvectors", 1e-8, "ground-state dyads summed over degenerate levels"),
    Check("magnetic_table_vs_numeric", 1e-9, f"momentum basis, N in {TABLE_NS}"),
    Check("magnetic_dyads_vs_dense_eigenvectors", 1e-8, "ground-state dyads summed over degenerate levels"),
    Check("electric_block_calibration", 1e-9, "residual after one fitted unit phase per dl and band-pair block"),
    Check("magnetic_block_calibration", 1e-9, "residual after one fitted unit phase per dl and band-pair block"),
    Check("selection_rule_sparsity", 1e-12, "magnitudes outside the allowed blocks / natural scale"),
    Check("commutator_vs_bond_current", 1e-10),
    Check("perfect_ring_commutator", 1e-12),
    Check("perfect_ring_offdiag_magnetic", 1e-12),
    Check("perfect_ring_has_electric_transitions", 1e-3, "contrast: electric elements stay finite", ABOVE),
    Check("annulene_shared_transitions", 0, "no frequency couples both electrically and magnetically"),
    Check("mobius_shared_transition", 1, "lowest inter-band line couples both ways", AT_LEAST),
)
CHECKS = DENSE_CHECKS + (
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


def _brentq(f, a, b, xtol):
    """Root of f in [a, b] by Brent's method, or None when there is none to find.

    A line-for-line port of scipy's ``brentq.c`` (Brent 1973, ch. 4) with its default
    rtol (4 eps) and maxiter (100): the same steps in the same IEEE order, so the same
    float bits.  None when f(a) and f(b) are of one sign, f is NaN, or it does not converge.
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
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * sys.float_info.epsilon * abs(xcur)) / 2
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


def _canonical(params: RingParams, n: int,
               topology: Topology = Topology.MOBIUS) -> tuple[RingParams, float]:
    """The ring a dense check of size n and topology runs at, and its energy unit 2^k eV.

    Each dense check is relative to its natural scale, so the ring has radius n W / pi,
    W times 2^j within a factor 2 of 0.077 nm, and its largest hopping (max(V, xi); xi
    for the single ring, which has no V) within a factor 2 of 3.6 eV in units of 2^k eV.
    """
    single = topology is Topology.SINGLE_RING
    top = params.xi_intra if single else max(params.v_inter, params.xi_intra)
    k = math.frexp(top)[1] - math.frexp(3.6)[1]
    xi = math.ldexp(params.xi_intra, -k)
    v = xi if single else math.ldexp(params.v_inter, -k)   # a single ring has no rungs
    if min(v, xi) == 0.0:
        raise _Unscalable
    j = math.frexp(0.077e-9)[1] - math.frexp(params.half_width)[1]
    return replace(params, n_per_ring=n, topology=topology, v_inter=v, xi_intra=xi,
                   half_width=math.ldexp(params.half_width, j), radius=None), math.ldexp(1.0, k)


def spectrum_checks(params: RingParams, dense: Dense = bf.DenseRing) -> dict:
    worst_e, worst_u = 0.0, 0.0
    for n in SPECTRUM_NS:
        ring = dense(*_canonical(params, n))
        closed = np.sort(band_energies(ring.params))
        w, _ = ring.eigensystem
        worst_e = np.maximum(worst_e, float(np.abs(closed - w).max()))
        u = ring.amplitudes
        worst_u = np.maximum(worst_u, float(np.abs(u.conj().T @ u - np.eye(2 * n)).max()))
    proj = bf.eigenspace_projector_residual(dense(*_canonical(params, DENSE_N)))
    return {
        "spectrum_closed_vs_dense_ev": worst_e * ring.unit,   # in eV
        "eigenvector_unitarity": worst_u,
        "eigenspace_projectors": float(proj),
    }


def dipole_checks(params: RingParams, dense: Dense = bf.DenseRing) -> dict:
    worst_tbl = {"electric": 0.0, "magnetic": 0.0}
    worst_dyad = {"electric": 0.0, "magnetic": 0.0}
    closed = {}   # the closed-form tables at DENSE_N
    for n in TABLE_NS:
        ring = dense(*_canonical(params, n))
        for kind, ana_fn, op in (("electric", dp.electric_table, "electric"),
                                 ("magnetic", dp.magnetic_table, "commutator")):
            ana, num = ana_fn(ring.params), ring.projection(op)
            if n == DENSE_N:
                closed[kind] = ana
            worst_tbl[kind] = np.maximum(worst_tbl[kind],
                                         float(np.abs(ana - num).max()) / float(np.abs(num).max()))
            worst_dyad[kind] = np.maximum(worst_dyad[kind],
                                          _dyad_deviation(ring, ring.projection(op, "eigen"), ana))
    ring = dense(*_canonical(params, DENSE_N))
    num = {"electric": ring.projection("electric"), "magnetic": ring.projection("commutator")}
    out = {"selection_rule_sparsity": _sparsity_deviation(ring.params, *num.values()),
           "commutator_vs_bond_current": float(np.abs(num["magnetic"] - ring.projection(
               "bond_current")).max() / np.abs(num["magnetic"]).max())}
    for kind in num:
        out[f"{kind}_table_vs_numeric"] = worst_tbl[kind]
        out[f"{kind}_dyads_vs_dense_eigenvectors"] = worst_dyad[kind]
        out[f"{kind}_block_calibration"] = bf.calibrate_conventions(closed[kind], num[kind])
    return out


def _dyad_deviation(ring: bf.DenseRing, num: np.ndarray, tbl: np.ndarray) -> float:
    """Ground-state transition dyads, numeric vs analytic, level-projected.

    ``num`` is the operator in the dense eigenbasis of ``ring`` and ``tbl`` its
    closed-form table, relative to the squared largest element of ``num``.  At
    a canonical ring (``_canonical``) the squares stay in the normal range.
    Each level's dyads add up in the order of the per-level loop they
    replace: its rows by ground state, then member, and its closed-form
    columns (none: a zero dyad).
    """
    (ground, _), *excited = ring.matched_levels
    scale = float(np.abs(num).max()) ** 2
    if not excited:
        return 0.0
    grps, cols = zip(*excited)
    dy_num = _level_dyads(num[np.ix_(ground, np.concatenate(grps))].reshape(-1, 3),
                          np.tile(_level_ids(grps), len(ground)), len(grps))
    dy_ana = _level_dyads(tbl[0, np.concatenate(cols)],   # label 0 is the ground state
                          _level_ids(cols), len(grps))
    # a positive divisor keeps the order, so the largest quotient is the quotient of the largest
    return np.abs(dy_num - dy_ana).max() / scale


def _level_ids(index_sets) -> np.ndarray:
    """For the concatenated ``index_sets``, the number of the set that each index is in."""
    return np.repeat(np.arange(len(index_sets)), [len(s) for s in index_sets])


def _level_dyads(vectors: np.ndarray, level: np.ndarray, n_levels: int) -> np.ndarray:
    """(n_levels, 3, 3) sums of the dyads v v^dagger of the rows of ``vectors`` per level.

    ``np.add.at`` adds the rows in order onto zeros, as a per-level
    ``sum(axis=0)`` adds them (only a -0.0 sum turns +0.0).  ``np.add.reduceat``
    would not: it adds a segment's first row to the pairwise sum of the rest,
    which differs from three rows on.
    """
    out = np.zeros((n_levels, 3, 3), dtype=complex)
    np.add.at(out, level, vectors[:, :, None] * vectors.conj()[:, None, :])
    return out


def _sparsity_deviation(params: RingParams, d_num: np.ndarray, m_num: np.ndarray) -> float | str:
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
    if m_scale == 0.0:   # xi / V below about 1e-267
        return UNDERFLOW
    # np.hypot rounds like scalar abs(complex), array np.abs may not: keep each form's bits
    off_e = np.hypot(d_num.real, d_num.imag)[~allowed[0]] / d_scale
    off_far = np.abs(m_num[far]) / m_scale
    off_m = np.hypot(m_num.real, m_num.imag)[
        (inter & ~far)[..., None] & ~allowed[1]] / m_scale
    return float(np.max([off.max(initial=0.0) for off in (off_e, off_far, off_m)]))


def topology_checks(params: RingParams, dense: Dense = bf.DenseRing) -> dict:
    ring_report = bf.perfect_ring_regression(
        dense(*_canonical(params, DENSE_N, Topology.SINGLE_RING)))
    annulene = bf.shared_transition_scan(
        dense(*_canonical(params, DENSE_N, Topology.DOUBLE_RING_PERIODIC)))
    ring = dense(*_canonical(params, DENSE_N))
    mobius = bf.shared_transition_scan(ring)
    delta0 = angular_frequency_to_ev(rs.MediumConfig(ring.params).resonance.delta0)
    shared_at_resonance = any(
        t.electric > bf.SHARED_THRESHOLD and t.magnetic > bf.SHARED_THRESHOLD
        and abs(t.frequency_ev - delta0) < ring.level_tol
        for t in mobius.transitions
    )
    return {   # n_shared is None where the scan's magnetic unit e xi R W / hbar underflows to 0
        "perfect_ring_commutator": ring_report.commutator_norm,
        "perfect_ring_offdiag_magnetic": ring_report.max_offdiag_magnetic,
        "perfect_ring_has_electric_transitions": ring_report.max_offdiag_electric,
        "annulene_shared_transitions": UNDERFLOW if annulene.n_shared is None else annulene.n_shared,
        "mobius_shared_transition": UNDERFLOW if mobius.n_shared is None else int(shared_at_resonance),
    }


def response_checks(params: RingParams) -> dict:
    cfg = rs.MediumConfig(params)
    res = cfg.resonance
    delta0, bw, zeros, window = res.delta0, res.bandwidth, res.mu1_zeros, res.window
    if window is None:
        bandwidth_dev = simultaneous = OVERDAMPED
    else:
        f = lambda om: rs.response_tensors(cfg, om).mu1
        mid = window[1]
        lo = _brentq(f, delta0 + 0.2 * zeros[0], mid, xtol=1e-3)
        hi = _brentq(f, mid, delta0 + 2.0 * zeros[1], xtol=1e-3)
        bandwidth_dev = NO_ROOT if lo is None or hi is None else abs((hi - lo) - bw) / bw
        t_mid = rs.response_tensors(cfg, mid)
        simultaneous = int(t_mid.eps1 < 0.0 and t_mid.mu1 < 0.0)
    om = delta0 + 50.0 * res.gamma
    # the resonant term overflows at half widths near 1e90 with gamma_inv_ns near 1e210
    with np.errstate(over="ignore", invalid="ignore"):
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
        top = delta0 + 1e8 * res.gamma
        if res.eta(top).real > level:   # the root lies near delta0 + P / level; eta' there is ~level/2
            top = delta0 + 2.0 * res.prefactor / level
        return _brentq(lambda om: res.eta(om).real - level, delta0 + res.gamma, top, xtol=1e-3)

    def eps1(om):
        return rs.response_tensors(cfg, om).eps1

    om_corr = eta_crossing(0.3)
    om_unc = eta_crossing(0.2)
    if window is not None:
        overlap = int(t_mid.eps1 < 0.0 and corrected_principal(mid) < 0.0)
    elif om_corr is None or om_unc is None:
        overlap = NO_ROOT
    else:
        overlap = int((eps1(om_corr) < 0.0) and (corrected_principal(om_unc) < 0.0
                                                 or corrected_principal(om_corr) <= 0.0))
    return {
        "bandwidth_closed_vs_roots": bandwidth_dev,
        "simultaneous_negative_window": simultaneous,
        **{f"critical_lifetime_{conv}": rs.MediumConfig(replace(
            params, volume_convention=VolumeConvention(conv))).resonance.critical_lifetime
           for conv in ("cylinder_4w", "cylinder_2w")},
        "full_sum_vs_single_resonance_eps": full_sum_dev,
        "local_field_zero_crossing":
            NO_ROOT if om_corr is None else abs(corrected_principal(om_corr)),
        "uncorrected_zero_crossing": NO_ROOT if om_unc is None else abs(eps1(om_unc)),
        "corrected_window_overlaps_uncorrected": overlap,
    }


def refraction_checks(params: RingParams) -> dict:
    cfg = rs.MediumConfig(params)
    res = cfg.resonance
    delta0, bw, zeros, window = res.delta0, res.bandwidth, res.mu1_zeros, res.window
    omega = res.sweep(10, 512)
    if isinstance(omega, str):
        lh_e = lh_h = bounded = contiguous = omega
    else:
        theta = np.linspace(0.0, math.radians(89.0), 128)
        pd_e = rf.phase_diagram(cfg, rf.Polarization.E, theta, omega)
        lh_e = pd_e.count(rf.Classification.LH)
        lh_h = rf.phase_diagram(cfg, rf.Polarization.H, theta, omega).count(rf.Classification.LH)
        lh_rows = np.where((pd_e.codes == int(rf.Classification.LH)).any(axis=0))[0]
        if lh_rows.size:
            lo_err = abs(omega[lh_rows[0]] - window[0])
            hi_err = abs(omega[lh_rows[-1]] - window[2])
            bounded = float(np.maximum(lo_err, hi_err)), float(omega[1] - omega[0])
            contiguous = int(np.array_equal(lh_rows, np.arange(lh_rows[0], lh_rows[-1] + 1)))
        else:
            bounded = contiguous = NO_LH_BAND
    # the circle radius^2 = 1 - eta' assumes mu_r ~ 1 at 0.5 delta0; a large
    # half width grows the magnetic response out of that domain (8.9e-3 at
    # 1e3 nm, where mu_xx = 1.008, and 0.887 at 1e5 nm)
    t_low = rs.response_tensors(cfg, 0.5 * delta0)
    sr = rf.wave_vector_surface(t_low, rf.Polarization.E, 200)
    h = t_low.eta.real
    circle = np.abs(np.float_power(sr.n_ty, 2) + np.float_power(sr.n_tz, 2) - (1.0 - h))
    circle = np.max(circle) if circle.size else NO_SURFACE
    if window is None:
        hyperbola = normal = OVERDAMPED
    else:
        t_mid = rs.response_tensors(cfg, window[1])
        sr2 = rf.wave_vector_surface(t_mid, rf.Polarization.E, 200)
        hyperbola = rf.rotated_conic_residual(t_mid, rf.Polarization.E, sr2.n_ty, sr2.n_tz)
        hyperbola = np.max(hyperbola) if hyperbola.size else NO_SURFACE
        normal = np.concatenate([
            rf.surface_normal_check(t, rf.Polarization.E, surf.n_ty, surf.n_tz)
            for t, surf in ((t_low, sr), (t_mid, sr2))])
        normal = (NO_TANGENT if np.isnan(normal).any()
                  else np.max(normal) if normal.size else NO_SURFACE)
    grid = res.sweep(2, 2000)
    if isinstance(grid, str):
        shift = overdamped = grid
    else:
        win = rf.lossy_lh_window(cfg, grid)
        shift = NO_LOSSY_LH if win is None else float(np.maximum(
            abs((win[0] - delta0) - zeros[0]), abs((win[1] - delta0) - zeros[1])) / bw)
        tau_c = res.critical_lifetime
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
    dense = functools.cache(bf.DenseRing)   # this report's contexts, one per ring, dropped with it
    try:
        groups = [group(params, dense) for group in (spectrum_checks, dipole_checks, topology_checks)]
    except _Unscalable:   # no canonical ring: every dense row reads the reason
        groups = [dict.fromkeys([check.name for check in DENSE_CHECKS], HOPPING_RATIO)]
    groups += [response_checks(params), refraction_checks(params)]
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
