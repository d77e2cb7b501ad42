"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
from scipy.optimize import brentq

from mobius_optics import bruteforce as bf
from mobius_optics import cli
from mobius_optics import refraction as rf
from mobius_optics import response as rs
from mobius_optics import validation as val
from mobius_optics.constants import EV, HBAR
from mobius_optics.ring import (
    Band,
    EigenLabel,
    RingParams,
    Topology,
    VolumeConvention,
    all_labels,
    band_energy,
)

P12 = RingParams(12)
CFG = rs.MediumConfig(P12)
CFG_2W = rs.MediumConfig(RingParams(12, volume_convention=VolumeConvention.CYLINDER_2W))
DELTA0 = rs.resonance_frequency(CFG)


def _report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:02d}: {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_spectrum_and_degeneracy():
    start = time.monotonic()
    closed = np.sort([band_energy(P12, lab) for lab in all_labels(12)])
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(P12))
    dev = float(np.abs(closed - w).max())
    degenerate = band_energy(P12, EigenLabel(0, Band.UP)) == band_energy(
        P12, EigenLabel(1, Band.UP))
    elapsed = time.monotonic() - start
    _report(1, f"24 bands within {dev:.1e} eV of dense diagonalization, "
               f"lowest excited pair exactly degenerate, {elapsed:.2f}s",
            dev <= 1e-10 and degenerate and elapsed < 1.0)


def test_criterion_02_dipole_reference_equivalence():
    start = time.monotonic()
    values = {c["name"]: c["value"] for c in val.dipole_checks(P12)}
    worst = max(values[f"{kind}_{check}"] for kind in ("electric", "magnetic")
                for check in ("table_vs_numeric", "dyads_vs_dense_eigenvectors"))
    elapsed = time.monotonic() - start
    _report(2, f"analytic vs numeric dipole tables and level-projected dyads: "
               f"max relative deviation {worst:.1e} for N in 4..24, {elapsed:.2f}s",
            val.TABLE_NS == (4, 6, 12, 24) and worst <= 1e-8 and elapsed < 10.0)


def test_criterion_03_selection_rule_sparsity():
    dev = {c["name"]: c["value"] for c in val.dipole_checks(P12)}["selection_rule_sparsity"]
    _report(3, f"numeric elements outside the allowed blocks: {dev:.1e} "
               "of the natural scales e*W and e*xi*R*W/hbar", dev < 1e-12)


def test_criterion_04_topology_baselines():
    single = bf.perfect_ring_regression(
        RingParams(12, topology=Topology.SINGLE_RING))
    annulene = bf.annulene_cross_check(
        RingParams(12, topology=Topology.DOUBLE_RING_PERIODIC))
    mobius = bf.shared_transition_scan(P12)
    delta0_ev = DELTA0 * HBAR / EV
    mobius_shared = any(
        t.electric > 1e-9 and t.magnetic > 1e-9
        and abs(t.frequency_ev - delta0_ev) < 1e-9
        for t in mobius.transitions)
    ok = (single.commutator_norm < 1e-12
          and single.max_offdiag_magnetic < 1e-12
          and annulene.n_shared == 0
          and mobius_shared)
    _report(4, "perfect ring: [m,H] = 0 and no magnetic transitions; "
               "periodic double ring: no shared frequency; "
               "Mobius: lowest inter-band line couples both ways", ok)


def test_criterion_05_negative_windows_and_bandwidth():
    zeros = rs.mu1_zero_detunings(CFG)
    mid = DELTA0 + 0.5 * (zeros[0] + zeros[1])
    window_above = zeros[0] > 0 and rs.eps1(CFG, mid) < 0 and rs.mu1(CFG, mid) < 0
    resonance_ev = DELTA0 * HBAR / EV
    lo = brentq(lambda om: rs.mu1(CFG, om),
                DELTA0 + 0.2 * zeros[0], DELTA0 + 2 * zeros[0], xtol=1e-3)
    hi = brentq(lambda om: rs.mu1(CFG, om), mid, DELTA0 + 2 * zeros[1], xtol=1e-3)
    closed = rs.bandwidth(CFG)
    root_match = abs((hi - lo) - closed) / closed
    bw_2w = rs.bandwidth(CFG_2W)
    ok = (window_above
          and abs(resonance_ev - 7.4453) < 5e-4
          and root_match < 1e-2
          and abs(bw_2w - 7.71e9) / 7.71e9 < 1e-2
          and abs(bw_2w - 7.706160151520129e9) / bw_2w < 1e-9)
    _report(5, f"simultaneous eps1, mu1 < 0 window just above {resonance_ev:.4f} eV; "
               f"mu1 roots vs closed-form width: {root_match:.1e}; "
               f"bandwidth {bw_2w:.4g} rad/s (compact volume)", ok)


def test_criterion_06_critical_lifetime():
    tau_cyl = rs.critical_lifetime(CFG)
    tau_2w = rs.critical_lifetime(CFG_2W)
    report = val.response_checks(P12)
    noted = [c for c in report if c["name"].startswith("critical_lifetime_")]
    ok = (abs(tau_cyl - 0.51e-9) / 0.51e-9 < 0.05
          and abs(tau_2w - 0.26e-9) / 0.26e-9 < 0.01
          and len(noted) == 2
          and all("factor 2" in c["note"] for c in noted))
    _report(6, f"critical lifetime {tau_cyl * 1e9:.4f} ns (cylinder volume, "
               f"within 5% of 0.51 ns) vs {tau_2w * 1e9:.4f} ns (compact volume); "
               "both reported with the factor-2 note", ok)


def test_criterion_07_phase_diagram_topology():
    start = time.monotonic()
    bw = rs.bandwidth(CFG)
    zeros = rs.mu1_zero_detunings(CFG)
    theta = np.linspace(0.0, math.radians(89.0), 256)
    omega = np.linspace(DELTA0 - 10 * bw, DELTA0 + 10 * bw, 512)
    pd_e = rf.phase_diagram(CFG, rf.Polarization.E, theta, omega)
    pd_h = rf.phase_diagram(CFG, rf.Polarization.H, theta, omega)
    lh_cols = np.where((pd_e.codes == int(rf.Classification.LH)).any(axis=0))[0]
    step = omega[1] - omega[0]
    contiguous = lh_cols.size > 0 and np.array_equal(
        lh_cols, np.arange(lh_cols[0], lh_cols[-1] + 1))
    endpoints_ok = (
        lh_cols.size > 0
        and abs(omega[lh_cols[0]] - (DELTA0 + zeros[0])) <= step
        and abs(omega[lh_cols[-1]] - (DELTA0 + zeros[1])) <= step)
    elapsed = time.monotonic() - start
    ok = (contiguous and endpoints_ok
          and pd_h.count(rf.Classification.LH) == 0 and elapsed < 30.0)
    _report(7, f"256x512 grid: E-polarized LH band of {lh_cols.size} columns "
               f"bounded by the mu1 zeros within one step; H-polarized LH cells "
               f"{pd_h.count(rf.Classification.LH)}; {elapsed:.2f}s", ok)


def test_criterion_08_wave_vector_surface_conics():
    zeros = rs.mu1_zero_detunings(CFG)
    t_low = rs.response_tensors(CFG, 0.5 * DELTA0)
    low = rf.wave_vector_surface(t_low, rf.Polarization.E, 200)
    h = t_low.eta.real
    circ = np.abs(low.n_ty**2 + low.n_tz**2 - (1 - h)).max()
    mid_om = DELTA0 + 0.5 * (zeros[0] + zeros[1])
    t_mid = rs.response_tensors(CFG, mid_om)
    mid = rf.wave_vector_surface(t_mid, rf.Polarization.E, 200)
    hyp = rf.rotated_conic_residual(t_mid, rf.Polarization.E, mid.n_ty, mid.n_tz).max()
    causal = all(
        (rf._poynting(tensors, rf.Polarization.E, res.n_ty, res.n_tz)[1] > 0).all()
        for tensors, res in ((t_low, low), (t_mid, mid)))
    ok = (low.conic is rf.ConicClass.CIRCLE and circ < 1e-3
          and mid.conic is rf.ConicClass.HYPERBOLA and hyp < 1e-6
          and causal)
    _report(8, f"circle residual {circ:.1e} far below resonance, rotated "
               f"hyperbola residual {hyp:.1e} in the negative-mu window, "
               "causal branch flows into the medium on every sample", ok)


def test_criterion_09_poynting_normal_to_surface():
    zeros = rs.mu1_zero_detunings(CFG)
    worst, counted = 0.0, []
    for om in (0.5 * DELTA0, DELTA0 + 0.5 * (zeros[0] + zeros[1])):
        t = rs.response_tensors(CFG, om)
        res = rf.wave_vector_surface(t, rf.Polarization.E, 120)
        counted.append(len(res.n_ty))
        worst = np.maximum(worst, rf.surface_normal_check(t, rf.Polarization.E,
                                                          res.n_ty, res.n_tz).max())
    ok = all(c >= 100 for c in counted) and worst < 1e-6
    _report(9, f"|S_hat . tangent| <= {worst:.1e} over {counted} surface points "
               "(central differences, step 1e-6)", ok)


def test_criterion_10_local_field_robustness():
    gamma = CFG.ring.decay_rate
    om_corr = brentq(lambda om: rs.eta(CFG, om).real - 0.3,
                     DELTA0 + gamma, DELTA0 + 1e8 * gamma, xtol=1e-3)
    corr_eigs = np.linalg.eigvalsh(rs.local_field_epsilon(CFG, om_corr)[1:, 1:])
    om_unc = brentq(lambda om: rs.eta(CFG, om).real - 0.2,
                    DELTA0 + gamma, DELTA0 + 1e8 * gamma, xtol=1e-3)
    zeros = rs.mu1_zero_detunings(CFG)
    mid = DELTA0 + 0.5 * (zeros[0] + zeros[1])
    overlap = (rs.eps1(CFG, mid) < 0
               and np.linalg.eigvalsh(rs.local_field_epsilon(CFG, mid)[1:, 1:]).min() < 0)
    ok = (min(abs(corr_eigs)) < 1e-9
          and abs(rs.eps1(CFG, om_unc)) < 1e-9
          and rs.eps1(CFG, om_corr) < 0
          and overlap)
    _report(10, "corrected principal permittivity crosses zero at eta' = 3/10 "
                "(uncorrected at 1/5) and both negative windows overlap", ok)


def test_criterion_11_lossy_normal_incidence():
    bw = rs.bandwidth(CFG)
    zeros = rs.mu1_zero_detunings(CFG)
    grid = np.linspace(DELTA0 - 2 * bw, DELTA0 + 2 * bw, 2000)
    window = rf.lossy_lh_window(CFG, grid)
    lo_shift = abs((window[0] - DELTA0) - zeros[0]) / bw
    hi_shift = abs((window[1] - DELTA0) - zeros[1]) / bw
    tau_c = rs.critical_lifetime(CFG)
    short = rs.MediumConfig(RingParams(12, decay_rate=1.0 / (0.5 * tau_c)))
    emptied = rf.lossy_lh_window(short, grid) is None
    ok = window is not None and lo_shift < 0.1 and hi_shift < 0.1 and emptied
    _report(11, f"lossy LH window endpoints shift by {lo_shift:.3f} and "
                f"{hi_shift:.4f} bandwidths; lifetime below tau_c empties it", ok)


def test_criterion_12_determinism_and_cli(tmp_path, capsys):
    config = {"theta_count": 16, "omega_count": 64}
    blobs = []
    for run in (1, 2):
        path = tmp_path / f"pd{run}.csv"
        cfg = cli.parse_config(json.dumps(
            {**config, "output_path": str(path)}).encode())
        assert cli.run_command("phase-diagram", cfg) == 0
        blobs.append(path.read_bytes())
    cfg = cli.parse_config(json.dumps(
        {"output_path": str(tmp_path / "validate.csv")}).encode())
    code = cli.run_command("validate", cfg)
    capsys.readouterr()
    ok = blobs[0] == blobs[1] and code == 0
    _report(12, "byte-identical classification tables across runs and "
                f"`validate` exit code {code}", ok)
