import math

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import dipole as dp
from mobius_optics.constants import EV, HBAR
from mobius_optics.ring import (
    Band,
    EigenLabel,
    RingParams,
    Topology,
    all_labels,
    amplitude_matrix,
    band_energy,
    eigenstate,
    ground_state,
    positions_array,
    site_positions,
    transition_frequency,
)

P12 = RingParams(12)
UP, DOWN = Band.UP, Band.DOWN


def test_ground_band_energy_is_minus_v_minus_2xi():
    assert band_energy(P12, EigenLabel(0, DOWN)) == pytest.approx(-10.8, abs=1e-12)


def test_lowest_up_state_energy_matches_dense_diagonalization():
    # closed form: V - 2 xi cos(delta/2) for l = 0
    e_closed = band_energy(P12, EigenLabel(0, UP))
    assert e_closed == pytest.approx(-3.354665949281292, abs=1e-12)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(P12))
    assert np.abs(w - e_closed).min() < 1e-10


def test_two_lowest_up_states_degenerate_exactly():
    assert band_energy(P12, EigenLabel(0, UP)) == band_energy(P12, EigenLabel(1, UP))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 24, 33, 64])
def test_spectrum_matches_dense_eigensolver(n):
    p = RingParams(n)
    closed = np.sort([band_energy(p, lab) for lab in all_labels(n)])
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    assert np.abs(closed - w).max() < 1e-10


def test_ground_state_amplitudes_uniform():
    g = ground_state(P12)
    assert g.label == EigenLabel(0, DOWN)
    assert g.energy == pytest.approx(-10.8)
    assert np.abs(g.amplitudes - 1.0 / math.sqrt(24)).max() < 1e-15


def test_ground_state_small_ring_against_dense_diagonalization():
    p = RingParams(4)
    g = ground_state(p)
    assert np.abs(np.abs(g.amplitudes) - 1.0 / math.sqrt(8)).max() < 1e-15
    w, v = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    assert g.energy == pytest.approx(w[0], abs=1e-12)
    assert g.energy == pytest.approx(-p.v_inter - 2 * p.xi_intra, abs=1e-12)
    overlap = np.abs(np.vdot(v[:, 0], g.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_eigenstates_are_normalised_and_unitary():
    u = amplitude_matrix(P12)
    assert np.abs(np.sum(np.abs(u) ** 2, axis=0) - 1.0).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(24)).max() < 1e-12


def test_eigenstates_diagonalise_the_hamiltonian():
    h = bf.build_hamiltonian(P12).matrix
    u = amplitude_matrix(P12)
    energies = np.array([band_energy(P12, lab) for lab in all_labels(12)])
    assert np.abs(u.conj().T @ h @ u - np.diag(energies)).max() < 1e-12


def test_mobius_boundary_twist_continuation():
    # extending the closed-form amplitude pattern by one full sub-ring maps
    # ring A onto ring B: the a_0 amplitude equals the continued b_N one
    n = P12.n_per_ring
    for lab in all_labels(n):
        state = eigenstate(P12, lab)
        a0 = state.amplitudes[0]
        if lab.band is UP:
            kappa = (lab.momentum_index - 0.5) * P12.delta
            b_n_continued = -np.exp(-1j * kappa * n) / math.sqrt(2 * n)
        else:
            b_n_continued = np.exp(-1j * lab.momentum_index * P12.delta * n) / math.sqrt(2 * n)
        assert abs(a0 - b_n_continued) < 1e-12


def test_transition_frequency_of_lowest_interband_line():
    omega = transition_frequency(P12, EigenLabel(0, UP))
    assert omega * HBAR / EV == pytest.approx(7.445334050718708, rel=1e-12)
    assert transition_frequency(P12, EigenLabel(1, UP)) == pytest.approx(omega)


def test_transition_frequencies_nonnegative_and_ground_rejected():
    for lab in all_labels(12):
        if lab == EigenLabel(0, DOWN):
            with pytest.raises(ValueError):
                transition_frequency(P12, lab)
        else:
            assert transition_frequency(P12, lab) > 0.0


def test_site_positions_seam_and_opposite_point():
    pos = site_positions(P12)
    r, w = P12.radius, P12.half_width
    np.testing.assert_allclose(pos[0].position, [r, 0.0, w], atol=1e-25)
    np.testing.assert_allclose(pos[12].position, [r, 0.0, -w], atol=1e-25)
    # j = 6 on ring A sits at phi = pi with the half-twist fully in-plane
    np.testing.assert_allclose(pos[6].position, [-(r + w), 0.0, 0.0], atol=1e-22)


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


def test_closed_forms_reject_other_topologies_and_onsite_splitting():
    ring = RingParams(12, topology=Topology.SINGLE_RING)
    with pytest.raises(ValueError):
        band_energy(ring, EigenLabel(0, DOWN))
    split = RingParams(12, eps_onsite=0.5)
    with pytest.raises(ValueError):
        band_energy(split, EigenLabel(0, DOWN))
    # the dipole tables share the bands' guard
    for params in (ring, split):
        for table in (dp.electric_table, dp.magnetic_table):
            with pytest.raises(ValueError):
                table(params)
