import math

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import dipole as dp
from mobius_optics.ring import RingParams, Topology, all_labels


def test_mobius_seam_wiring():
    p = RingParams(3)
    h = bf.build_hamiltonian(p).matrix
    xi = p.xi_intra
    # a_2 couples to a_1 within ring A and crosses the seam into b_0
    assert h[2, 1] == pytest.approx(-xi)
    assert h[2, 3] == pytest.approx(-xi)   # b_0 sits at index N + 0 = 3
    assert h[2, 0] == 0.0                  # no direct a_2 - a_0 bond
    # b_2 crosses into a_0
    assert h[5, 0] == pytest.approx(-xi)
    assert np.abs(h - h.T).max() == 0.0


def test_periodic_double_ring_wraps_within_each_ring():
    p = RingParams(3, topology=Topology.DOUBLE_RING_PERIODIC)
    h = bf.build_hamiltonian(p).matrix
    xi = p.xi_intra
    assert h[2, 0] == pytest.approx(-xi)
    assert h[5, 3] == pytest.approx(-xi)
    assert h[2, 3] == 0.0


def test_single_ring_spectrum_is_textbook():
    p = RingParams(8, eps_onsite=0.25, topology=Topology.SINGLE_RING)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    delta = 2 * math.pi / 8
    expected = np.sort([p.eps_onsite - 2 * p.xi_intra * math.cos(l * delta)
                        for l in range(8)])
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_periodic_double_ring_spectrum():
    p = RingParams(6, topology=Topology.DOUBLE_RING_PERIODIC)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    delta = 2 * math.pi / 6
    expected = np.sort(
        [s * p.v_inter - 2 * p.xi_intra * math.cos(l * delta)
         for l in range(6) for s in (-1, 1)])
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_eigensystem_contract():
    identity = bf.DenseOperator(4, np.eye(4))
    w, v = bf.numeric_eigensystem(identity)
    np.testing.assert_allclose(w, np.ones(4))
    p = RingParams(12)
    h = bf.build_hamiltonian(p)
    w, v = bf.numeric_eigensystem(h)
    assert w[0] == pytest.approx(-10.8, abs=1e-10)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v.conj().T @ v - np.eye(24)).max() < 1e-12
    residual = np.abs(h.matrix @ v - v * w).max()
    assert residual < 1e-10 * np.abs(h.matrix).max()


def test_eigensystem_rejects_non_hermitian():
    bad = bf.DenseOperator(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        bf.numeric_eigensystem(bad)


def test_diagonal_electric_elements_are_real():
    p = RingParams(12)
    table = bf.numeric_electric_elements(p)
    diag = np.einsum("aac->ac", table)
    assert np.abs(diag.imag).max() < 1e-12 * np.abs(table).max()


def test_magnetic_definitions_coincide():
    for n in (4, 12):
        p = RingParams(n)
        comm = bf.magnetic_dipole_matrix(p, "commutator")
        bond = bf.magnetic_dipole_matrix(p, "bond_current")
        assert np.abs(comm - bond).max() / np.abs(comm).max() < 1e-10
    with pytest.raises(ValueError):
        bf.magnetic_dipole_matrix(RingParams(4), "peierls")


def test_perfect_ring_does_not_couple_magnetically():
    for n, xi in ((6, 3.6), (10, 1.2)):
        p = RingParams(n, xi_intra=xi, topology=Topology.SINGLE_RING)
        report = bf.perfect_ring_regression(p)
        assert report.commutator_norm < 1e-12
        assert report.max_offdiag_magnetic < 1e-12
        assert report.max_offdiag_electric > 1e-3
    with pytest.raises(ValueError):
        bf.perfect_ring_regression(RingParams(6))


def test_perfect_ring_magnetic_moment_is_axial():
    p = RingParams(8, topology=Topology.SINGLE_RING)
    m = bf.magnetic_dipole_matrix(p, "bond_current")
    scale = np.abs(m).max()
    assert np.abs(m[0]).max() < 1e-15 * scale
    assert np.abs(m[1]).max() < 1e-15 * scale
    assert np.abs(m[2]).max() == scale


def test_annulene_has_no_shared_transition():
    p = RingParams(12, topology=Topology.DOUBLE_RING_PERIODIC)
    report = bf.annulene_cross_check(p)
    assert report.n_shared == 0
    # both couplings individually exist, just never at the same frequency
    assert any(t.electric > 1e-3 for t in report.transitions)
    assert any(t.magnetic > 1e-3 for t in report.transitions)
    with pytest.raises(ValueError):
        bf.annulene_cross_check(RingParams(12))


def test_mobius_shares_the_lowest_interband_transition():
    p = RingParams(12)
    report = bf.shared_transition_scan(p)
    assert report.n_shared >= 1
    delta0_ev = 2 * p.v_inter + 2 * p.xi_intra * (1 - math.cos(p.delta / 2))
    shared = [t for t in report.transitions
              if t.electric > 1e-9 and t.magnetic > 1e-9]
    assert any(abs(t.frequency_ev - delta0_ev) < 1e-9 for t in shared)


def test_calibration_identity_and_against_numeric():
    p = RingParams(12)
    ana = dp.electric_table(p)
    scale = float(np.abs(ana).max())
    cal = bf.calibrate_conventions(ana, ana, 12, scale)
    assert cal.residual == 0.0
    assert all(abs(phase - 1.0) < 1e-12 for phase in cal.phases.values())
    num = bf.numeric_electric_elements(p)
    cal2 = bf.calibrate_conventions(ana, num, 12, scale)
    assert cal2.residual < 1e-9
    mag_a = dp.magnetic_table(p)
    mag_n = bf.numeric_magnetic_elements(p)
    cal3 = bf.calibrate_conventions(mag_a, mag_n, 12, float(np.abs(mag_n).max()))
    assert cal3.residual < 1e-9
    assert all(abs(phase - 1.0) < 1e-6 for phase in cal3.phases.values())


def _calibration_blocks_by_pairs(analytic, numeric, n):
    """The per-label-pair loop that builds the calibration blocks from masks."""
    labels = all_labels(n)
    blocks = {}
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            dl = (lb.momentum_index - la.momentum_index) % n
            if dl > n // 2:
                dl -= n
            if abs(dl) > 2:
                continue
            vals = blocks.setdefault((dl, la.band.value, lb.band.value), [])
            for c in range(3):
                vals.append((analytic[a, b, c], numeric[a, b, c]))
    return blocks


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 12))
def test_calibration_blocks_match_the_loop_over_label_pairs(n):
    rng = np.random.default_rng(n)
    shape = (2 * n, 2 * n, 3)
    ana = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    num = phase * ana + 1e-9 * rng.standard_normal(shape)
    cal = bf.calibrate_conventions(ana, num, n, 1.0)
    blocks = _calibration_blocks_by_pairs(ana, num, n)
    assert cal.phases.keys() == blocks.keys()
    worst = 0.0
    for key, pairs in blocks.items():
        arr_a, arr_n = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        overlap = np.vdot(arr_a, arr_n)
        assert cal.phases[key] == overlap / abs(overlap)
        res = np.abs(cal.phases[key] * arr_a - arr_n).max()
        assert cal.block_residuals[key] == res
        worst = max(worst, res)
    assert cal.residual == worst


def test_calibration_flags_transcription_errors():
    p = RingParams(12)
    ana = dp.electric_table(p).copy()
    num = bf.numeric_electric_elements(p)
    ana[0, 12] *= 2.0  # corrupt one allowed block entry by a non-phase factor
    with pytest.raises(ValueError, match="calibration failure"):
        bf.calibrate_conventions(ana, num, 12, float(np.abs(num).max()))


def test_onsite_splitting_supported_numerically():
    p = RingParams(6, eps_onsite=0.8)
    h = bf.build_hamiltonian(p).matrix
    assert h[0, 0] == pytest.approx(0.8)
    assert h[6, 6] == pytest.approx(-0.8)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    p0 = RingParams(6)
    w0, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p0))
    assert np.abs(w - w0).max() > 1e-3  # the splitting genuinely moves levels
