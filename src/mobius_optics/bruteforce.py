"""Brute-force numerical ground truth for the closed-form model.

Dense Huckel Hamiltonians for all three topologies, a dense Hermitian
eigensolver, numeric dipole operators built directly from the site-diagonal
position operator, and the regression checks that pin down why only the
twisted ring responds magnetically:

* a perfect single ring has [m, H] = 0, so no magnetic transitions at all;
* a periodic double ring has magnetic and electric transitions at disjoint
  frequencies;
* the Mobius ring has at least one transition carrying both.

Matrices are small (<= 128 x 128), so everything is dense numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import E_CHARGE, EV, HBAR
from .ring import (
    BANDS,
    RingParams,
    Topology,
    amplitude_matrix,
    band_energies,
    label_axes,
    positions_array,
)

HERMITICITY_TOL = 1e-12
LEVEL_TOL_EV = 1e-9   # energies closer than this are one level


@dataclass(frozen=True)
class DenseOperator:
    """A dense operator in the atomic-orbital site basis.

    Basis ordering is (a_0..a_{N-1}, b_0..b_{N-1}); for the single ring it
    is just (a_0..a_{N-1}).
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    basis: str = "site"


def _bond_list(params: RingParams):
    """Ordered (i, j, hopping integral beta_ij) with H_ij = -beta_ij, i < j."""
    n = params.n_per_ring
    xi, v = params.xi_intra, params.v_inter
    bonds = []
    if params.topology is Topology.SINGLE_RING:
        for j in range(n):
            bonds.append((j, (j + 1) % n, xi))
        return bonds
    a = lambda j: j
    b = lambda j: n + j
    for j in range(n - 1):
        bonds.append((a(j), a(j + 1), xi))
        bonds.append((b(j), b(j + 1), xi))
    if params.topology is Topology.MOBIUS:
        # ring exchange at the seam: a_N == b_0, b_N == a_0
        bonds.append((a(n - 1), b(0), xi))
        bonds.append((b(n - 1), a(0), xi))
    else:
        bonds.append((a(n - 1), a(0), xi))
        bonds.append((b(n - 1), b(0), xi))
    for j in range(n):
        bonds.append((a(j), b(j), v))
    return bonds


def build_hamiltonian(params: RingParams) -> DenseOperator:
    """Dense Huckel Hamiltonian in eV for any of the three topologies."""
    n = params.n_per_ring
    dim = n if params.topology is Topology.SINGLE_RING else 2 * n
    h = np.zeros((dim, dim))
    for i, j, beta in _bond_list(params):
        h[i, j] -= beta
        h[j, i] -= beta
    if params.topology is Topology.SINGLE_RING:
        h[np.diag_indices(dim)] += params.eps_onsite
    else:
        h[np.diag_indices_from(h)] = np.concatenate(
            [np.full(n, params.eps_onsite), np.full(n, -params.eps_onsite)]
        )
    return DenseOperator(dim, h)


def numeric_eigensystem(op: DenseOperator):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian op.

    Each eigenvector's phase is fixed so that its first component of
    significant magnitude is real and positive, making the output
    deterministic up to degenerate-subspace mixing.
    """
    h = np.asarray(op.matrix)
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("numeric_eigensystem requires a Hermitian operator")
    w, v = np.linalg.eigh(h)
    for col in range(v.shape[1]):
        vec = v[:, col]
        idx = np.argmax(np.abs(vec) > 1e-8 * np.abs(vec).max())
        piv = vec[idx]
        if np.abs(piv) > 0:
            v[:, col] = vec * (np.conj(piv) / np.abs(piv))
    return w, v


def position_operators(params: RingParams) -> np.ndarray:
    """(3, dim, dim) diagonal Cartesian position operators in meters."""
    pos = positions_array(params)
    dim = pos.shape[0]
    out = np.zeros((3, dim, dim))
    for c in range(3):
        out[c] = np.diag(pos[:, c])
    return out


def electric_dipole_matrix(params: RingParams) -> np.ndarray:
    """(3, dim, dim) electric dipole operator d = -e r in the site basis (C m)."""
    return -E_CHARGE * position_operators(params)


def magnetic_dipole_matrix(params: RingParams, definition: str = "commutator") -> np.ndarray:
    """(3, dim, dim) magnetic dipole operator in the site basis (A m^2).

    definition="commutator": m = -i e r x [H, r] / (2 hbar), built from
    dense matrix products with the site-diagonal position operator.

    definition="bond_current": m = sum over bonds of J_ij S_ij with bond
    current operator J_ij = (i e beta_ij / hbar) a_i^dag a_j + h.c. and
    effective area S_ij = (R_i x R_j) / 2.

    The two constructions coincide for a tight-binding Hamiltonian with
    on-site position operators; both are kept as independent codings.
    """
    pos = positions_array(params)
    h_joule = build_hamiltonian(params).matrix * EV
    dim = pos.shape[0]
    m = np.zeros((3, dim, dim), dtype=complex)
    if definition == "commutator":
        r_ops = position_operators(params)
        for i, (j, k) in enumerate([(1, 2), (2, 0), (0, 1)]):
            comm_k = h_joule @ r_ops[k] - r_ops[k] @ h_joule
            comm_j = h_joule @ r_ops[j] - r_ops[j] @ h_joule
            m[i] = (-1j * E_CHARGE / (2.0 * HBAR)) * (
                r_ops[j] @ comm_k - r_ops[k] @ comm_j
            )
    elif definition == "bond_current":
        for i, j, beta in _bond_list(params):
            area = 0.5 * np.cross(pos[i], pos[j])
            amp = 1j * E_CHARGE * (beta * EV) / HBAR
            for c in range(3):
                m[c, i, j] += amp * area[c]
                m[c, j, i] += np.conj(amp * area[c])
    else:
        raise ValueError(f"unknown magnetic dipole definition: {definition!r}")
    return m


def _sandwich(table: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project a (3, dim, dim) site-basis operator onto a set of states.

    Returns (nstates, nstates, 3) with entry [a, b, c] = <v_a| O_c |v_b>.
    """
    out = np.empty((vectors.shape[1], vectors.shape[1], 3), dtype=complex)
    for c in range(3):
        out[:, :, c] = vectors.conj().T @ table[c] @ vectors
    return out


def numeric_electric_elements(params: RingParams) -> np.ndarray:
    """Full (2N, 2N, 3) table of electric dipole matrix elements.

    The numerically built operator is evaluated in the closed-form momentum
    eigenbasis, which resolves individual (l, band) labels; it spans the same
    eigenspaces as the dense eigenvectors (checked by
    eigenspace_projector_residual).
    """
    return _sandwich(electric_dipole_matrix(params), amplitude_matrix(params))


def numeric_magnetic_elements(params: RingParams, definition: str = "commutator") -> np.ndarray:
    """Full (2N, 2N, 3) table of magnetic dipole matrix elements, momentum basis."""
    return _sandwich(magnetic_dipole_matrix(params, definition), amplitude_matrix(params))


def group_levels(energies: np.ndarray) -> list[np.ndarray]:
    """Indices of degenerate levels, grouped by energy within LEVEL_TOL_EV."""
    order = np.argsort(energies)
    groups, current = [], [order[0]]
    for idx in order[1:]:
        if energies[idx] - energies[current[-1]] <= LEVEL_TOL_EV:
            current.append(idx)
        else:
            groups.append(np.array(current))
            current = [idx]
    groups.append(np.array(current))
    return groups


def match_levels(w: np.ndarray, closed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``group_levels(w)``, each with the closed-form columns within LEVEL_TOL_EV of its mean."""
    return [(grp, np.flatnonzero(np.abs(closed - w[grp].mean()) <= LEVEL_TOL_EV))
            for grp in group_levels(w)]


def eigenspace_projector_residual(params: RingParams) -> float:
    """Max-abs difference between numeric and closed-form level projectors."""
    h = build_hamiltonian(params)
    w, v = numeric_eigensystem(h)
    u = amplitude_matrix(params)
    worst = 0.0
    for grp, cols in match_levels(w, band_energies(params)):
        p_num = v[:, grp] @ v[:, grp].conj().T
        p_ana = u[:, cols] @ u[:, cols].conj().T
        worst = np.maximum(worst, np.abs(p_num - p_ana).max())
    return worst


@dataclass
class PerfectRingReport:
    commutator_norm: float        # max |[m_z, H]| in units of e xi R^2 / hbar
    max_offdiag_magnetic: float   # relative to the same natural scale
    max_offdiag_electric: float   # relative to e R


def perfect_ring_regression(params: RingParams) -> PerfectRingReport:
    """Check that a perfect planar ring does not couple to the magnetic field."""
    if params.topology is not Topology.SINGLE_RING:
        raise ValueError("perfect_ring_regression expects the single-ring topology")
    h = build_hamiltonian(params)
    m = magnetic_dipole_matrix(params, "bond_current")
    scale = E_CHARGE * (params.xi_intra * EV) * params.radius**2 / HBAR
    h_joule = h.matrix * EV
    comm = m[2] @ h_joule - h_joule @ m[2]
    comm_norm = np.abs(comm).max() / (scale * params.xi_intra * EV)
    w, v = numeric_eigensystem(h)
    m_eig = _sandwich(m, v)
    d_eig = _sandwich(electric_dipole_matrix(params), v)
    # off-diagonal blocks between distinct energy levels only (gauge-free)
    mag_off, ele_off = 0.0, 0.0
    groups = group_levels(w)
    for ga in groups:
        for gb in groups:
            if ga is gb:
                continue
            blk_m = m_eig[np.ix_(ga, gb)]
            blk_d = d_eig[np.ix_(ga, gb)]
            mag_off = np.maximum(mag_off, np.abs(blk_m).max())
            ele_off = np.maximum(ele_off, np.abs(blk_d).max())
    return PerfectRingReport(
        commutator_norm=comm_norm,
        max_offdiag_magnetic=mag_off / scale,
        max_offdiag_electric=ele_off / (E_CHARGE * params.radius),
    )


@dataclass
class TransitionStrength:
    frequency_ev: float
    electric: float   # gauge-invariant block norm relative to e W
    magnetic: float   # relative to e xi R W / hbar


@dataclass
class SharedTransitionReport:
    transitions: list[TransitionStrength]
    n_shared: int     # transitions with both strengths above threshold
    threshold: float = 1e-9


def shared_transition_scan(params: RingParams, threshold: float = 1e-9) -> SharedTransitionReport:
    """Strength of electric and magnetic coupling out of the ground state.

    For every excited energy level, the coupling strength is the norm of the
    gauge-invariant block <ground| O |level> summed over the degenerate
    subspace, normalised by the operator's natural scale.  A transition is
    "shared" when both the electric and the magnetic strength exceed the
    threshold; a common periodic double ring has none, the Mobius ring does.
    """
    h = build_hamiltonian(params)
    w, v = numeric_eigensystem(h)
    d_eig = _sandwich(electric_dipole_matrix(params), v)
    m_eig = _sandwich(magnetic_dipole_matrix(params, "bond_current"), v)
    d_scale = E_CHARGE * params.half_width
    m_scale = (
        E_CHARGE * (params.xi_intra * EV) * params.radius * params.half_width / HBAR
    )
    groups = group_levels(w)
    ground = groups[0]
    out = []
    n_shared = 0
    for grp in groups[1:]:
        freq = w[grp].mean() - w[ground].mean()
        d_blk = np.linalg.norm(d_eig[np.ix_(ground, grp)]) / d_scale
        m_blk = np.linalg.norm(m_eig[np.ix_(ground, grp)]) / m_scale
        both = d_blk > threshold and m_blk > threshold
        n_shared += int(both)
        out.append(TransitionStrength(freq, d_blk, m_blk))
    return SharedTransitionReport(out, n_shared, threshold)


def annulene_cross_check(params: RingParams, threshold: float = 1e-9) -> SharedTransitionReport:
    """Shared-transition scan for the periodic double ring (expected: none)."""
    if params.topology is not Topology.DOUBLE_RING_PERIODIC:
        raise ValueError("annulene_cross_check expects the periodic double ring")
    return shared_transition_scan(params, threshold)


@dataclass
class CalibrationResult:
    phases: dict           # (dl, band_from, band_to) -> unit-modulus complex
    residual: float        # max relative deviation after phase alignment
    block_residuals: dict


def calibrate_conventions(
    analytic: np.ndarray, numeric: np.ndarray, n: int, atol_scale: float
) -> CalibrationResult:
    """Align analytic momentum-space tables with the numeric construction.

    Both tables are (2N, 2N, 3) over the labels, in the order of ``label_axes``.
    One unit-modulus phase is fitted per (dl, band pair) block by least
    squares; the residual is the max deviation after alignment, relative to
    atol_scale.  A residual above 1e-6 signals a transcription error in the
    closed-form tables.
    """
    band, ell = label_axes(n)
    dl = (ell[None, :] - ell[:, None]) % n   # [a, b] = l_b - l_a
    dl = np.where(dl > n // 2, dl - n, dl)
    phases, block_res = {}, {}
    worst = 0.0
    for d in np.unique(dl[np.abs(dl) <= 2]):
        for ba, bb in np.ndindex(2, 2):
            key = (int(d), BANDS[ba].value, BANDS[bb].value)
            mask = (dl == d) & (band[:, None] == ba) & (band[None, :] == bb)
            # each block's elements ordered by a, then b, then component
            arr_a, arr_n = analytic[mask].ravel(), numeric[mask].ravel()
            if np.abs(arr_a).max() < atol_scale * 1e-14:
                phase = 1.0 + 0.0j
            else:
                overlap = np.vdot(arr_a, arr_n)
                phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0 + 0.0j
            res = np.abs(phase * arr_a - arr_n).max() / atol_scale
            phases[key] = phase
            block_res[key] = res
            worst = np.maximum(worst, res)   # keeps a NaN block, which max() may drop
    if worst > 1e-6:
        bad = max(block_res, key=block_res.get)
        raise ValueError(
            f"calibration failure: block {bad} deviates by {block_res[bad]:.3e} "
            "relative units (transcription error in the closed-form table?)"
        )
    return CalibrationResult(phases, worst, block_res)
