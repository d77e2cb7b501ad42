import math

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import dipole as dp
from mobius_optics import response as rs
from mobius_optics.constants import EV, HBAR
from mobius_optics.ring import (
    BANDS,
    Band,
    RingParams,
    Topology,
    amplitude_matrix,
    band_energies,
    label_axes,
    positions_array,
)

P12 = RingParams(12)
UP0, UP1 = 12, 13   # label indices of (0, up) and (1, up) at N = 12; (0, down) is 0


def test_ground_band_energy_is_minus_v_minus_2xi():
    assert band_energies(P12)[0] == pytest.approx(-10.8, abs=1e-12)


def test_lowest_up_state_energy_matches_dense_diagonalization():
    # closed form: V - 2 xi cos(delta/2) for l = 0
    e_closed = band_energies(P12)[UP0]
    assert e_closed == pytest.approx(-3.354665949281292, abs=1e-12)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(P12))
    assert np.abs(w - e_closed).min() < 1e-10


def test_two_lowest_up_states_degenerate_exactly():
    energies = band_energies(P12)
    assert energies[UP0] == energies[UP1]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 24, 33, 64])
def test_spectrum_matches_dense_eigensolver(n):
    p = RingParams(n)
    closed = np.sort(band_energies(p))
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    assert np.abs(closed - w).max() < 1e-10


def test_ground_state_amplitudes_uniform():
    assert band_energies(P12)[0] == pytest.approx(-10.8)
    assert np.abs(amplitude_matrix(P12)[:, 0] - 1.0 / math.sqrt(24)).max() < 1e-15


def test_ground_state_small_ring_against_dense_diagonalization():
    p = RingParams(4)
    ground, energy = amplitude_matrix(p)[:, 0], band_energies(p)[0]
    assert np.abs(np.abs(ground) - 1.0 / math.sqrt(8)).max() < 1e-15
    w, v = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    assert energy == pytest.approx(w[0], abs=1e-12)
    assert energy == pytest.approx(-p.v_inter - 2 * p.xi_intra, abs=1e-12)
    overlap = np.abs(np.vdot(v[:, 0], ground))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_eigenstates_are_normalised_and_unitary():
    u = amplitude_matrix(P12)
    assert np.abs(np.sum(np.abs(u) ** 2, axis=0) - 1.0).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(24)).max() < 1e-12


def test_eigenstates_diagonalise_the_hamiltonian():
    h = bf.build_hamiltonian(P12)
    u = amplitude_matrix(P12)
    assert np.abs(u.conj().T @ h @ u - np.diag(band_energies(P12))).max() < 1e-12


def test_mobius_boundary_twist_continuation():
    # extending the closed-form amplitude pattern by one full sub-ring maps
    # ring A onto ring B: the a_0 amplitude equals the continued b_N one
    n = P12.n_per_ring
    for band, l, a0 in zip(*label_axes(n), amplitude_matrix(P12)[0]):
        if BANDS[band] is Band.UP:
            kappa = (l - 0.5) * P12.delta
            b_n_continued = -np.exp(-1j * kappa * n) / math.sqrt(2 * n)
        else:
            b_n_continued = np.exp(-1j * l * P12.delta * n) / math.sqrt(2 * n)
        assert abs(a0 - b_n_continued) < 1e-12


def test_transition_frequency_of_lowest_interband_line():
    omega = rs.resonance_frequency(rs.MediumConfig(P12))
    assert omega * HBAR / EV == pytest.approx(7.445334050718708, rel=1e-12)
    energies = band_energies(P12)   # label order: (l, down) for l = 0..11, then (l, up)
    gaps = (energies - energies[0]) * EV / HBAR
    assert gaps[12] == pytest.approx(omega) and gaps[13] == pytest.approx(omega)
    assert (gaps[1:] > 0.0).all()


def test_site_positions_seam_and_opposite_point():
    pos = positions_array(P12)
    r, w = P12.radius, P12.half_width
    np.testing.assert_allclose(pos[0], [r, 0.0, w], atol=1e-25)
    np.testing.assert_allclose(pos[12], [r, 0.0, -w], atol=1e-25)
    # j = 6 on ring A sits at phi = pi with the half-twist fully in-plane
    np.testing.assert_allclose(pos[6], [-(r + w), 0.0, 0.0], atol=1e-22)


def test_site_positions_geometry_invariants():
    pos = positions_array(P12)
    n = P12.n_per_ring
    phi = np.arange(n) * P12.delta
    for j in range(n):
        for offset, sign in ((0, 1.0), (n, -1.0)):
            p = pos[j + offset]
            ring_pt = P12.radius * np.array([math.cos(phi[j]), math.sin(phi[j]), 0.0])
            assert np.linalg.norm(p - ring_pt) <= P12.half_width * (1 + 1e-12)
            assert p[2] == pytest.approx(sign * P12.half_width * math.cos(phi[j] / 2),
                                         abs=1e-25)


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(2)
    with pytest.raises(ValueError):
        RingParams(12, half_width=0.0)
    with pytest.raises(ValueError):
        RingParams(12, v_inter=-1.0)
    with pytest.raises(ValueError):
        RingParams(12, xi_intra=0.0)
    with pytest.raises(ValueError):
        RingParams(12, decay_rate=-1.0)
    with pytest.raises(ValueError):
        RingParams(12, radius=-1e-10)


def test_default_radius_follows_touching_atoms():
    assert P12.radius == pytest.approx(12 * 0.077e-9 / math.pi, rel=1e-15)
    custom = RingParams(12, radius=0.29e-9)
    assert custom.radius == 0.29e-9


def test_closed_forms_reject_other_topologies():
    for topology in (Topology.SINGLE_RING, Topology.DOUBLE_RING_PERIODIC):
        ring = RingParams(12, topology=topology)
        # the dipole tables share the bands' guard
        for closed_form in (band_energies, dp.electric_table, dp.magnetic_table):
            with pytest.raises(ValueError, match="Mobius topology"):
                closed_form(ring)
