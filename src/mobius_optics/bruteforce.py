"""Brute-force numerical ground truth for the closed-form model.

Dense Huckel Hamiltonians of identical atoms for all three topologies, a
dense Hermitian eigensolver, numeric dipole operators built directly from the
site-diagonal position operator, and the regression checks that pin down why
only the twisted ring responds magnetically:

* a perfect single ring has [m, H] = 0, so no magnetic transitions at all;
* a periodic double ring has magnetic and electric transitions at disjoint
  frequencies;
* the Mobius ring has at least one transition carrying both.

``calibrate_conventions`` gives the block-phase residual of a closed-form
table against its numeric projection; the caller judges it.

A ``DenseRing`` holds one ring's dense objects (the Hamiltonian, its
eigensystem and level grouping, the closed-form amplitudes and each level's
matched closed-form columns), each built on first use and then shared
read-only; its energies are in units of ``unit`` eV, and its levels group
within LEVEL_TOL_EV.  It is the one input of every ring check here and the
one place an operator is built and projected: ``operator(name)`` gives the
site-basis electric operator or one of the two magnetic codings, and
``projection(name, basis)`` its table over the closed-form amplitudes or over
the dense eigenvectors.  A context lives as long as its caller keeps it
(``validation`` keeps one per ring for one report); the module caches nothing.

Matrices are small (<= 128 x 128), so everything is dense numpy.  The oracle
imports nothing from the closed forms it checks (``dipole``, ``response``,
``refraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import E_CHARGE, EV, HBAR
from .ring import (
    RingParams,
    Topology,
    amplitude_matrix,
    band_energies,
    label_axes,
    positions_array,
)

HERMITICITY_TOL = 1e-12
LEVEL_TOL_EV = 1e-9   # energies closer than this are one level
SHARED_THRESHOLD = 1e-9   # a transition is shared when both strengths exceed this


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


OPERATORS = ("electric", "commutator", "bond_current")   # the names of DenseRing.operator
BASES = ("momentum", "eigen")   # closed-form amplitudes, dense eigenvectors


class DenseRing:
    """One ring's dense objects, each built on first use and then shared read-only.

    ``hamiltonian``, ``eigensystem``, ``levels``, each ``operator(name)``,
    each ``projection(name, basis)`` and, for a Mobius ring, ``amplitudes``
    and ``matched_levels`` are computed at most once per context, so every
    check handed the context reads the same arrays.
    """

    def __init__(self, params: RingParams, unit: float = 1.0):
        self.params = params
        self.unit, self.level_tol = unit, LEVEL_TOL_EV / unit   # eV per unit; the tolerance in it
        self._operators = {}
        self._projections = {}

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        return _read_only(build_hamiltonian(self.params))

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = numeric_eigensystem(self.hamiltonian)
        return _read_only(w), _read_only(v)

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """``group_levels`` of the dense spectrum: each level's state indices, by energy."""
        return tuple(_read_only(grp) for grp in group_levels(self.eigensystem[0], self.level_tol))

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return _read_only(amplitude_matrix(self.params))

    @cached_property
    def matched_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``match_levels``: each of ``levels`` with its closed-form columns."""
        return tuple((grp, _read_only(cols)) for grp, cols in match_levels(
            self.eigensystem[0], self.levels, band_energies(self.params), self.level_tol))

    def operator(self, name: str) -> np.ndarray:
        """(3, dim, dim) site-basis operator, one of ``OPERATORS``.

        ``"electric"`` is d = -e r (C m); ``"commutator"`` and
        ``"bond_current"`` are the two codings of the magnetic moment (A m^2)
        in ``_magnetic_dipole_matrix``.
        """
        if name not in self._operators:
            if name not in OPERATORS:
                raise ValueError(f"unknown operator: {name!r}")
            self._operators[name] = _read_only(
                _electric_dipole_matrix(self.params) if name == "electric"
                else _magnetic_dipole_matrix(self, name))
        return self._operators[name]

    def projection(self, name: str, basis: str = "momentum") -> np.ndarray:
        """(nstates, nstates, 3) table [a, b, c] = <v_a| O_c |v_b> of ``operator(name)``.

        basis="momentum": the v are the closed-form amplitudes (a Mobius
        ring), which resolve the individual (l, band) labels in the order of
        ``label_axes``; they span the same eigenspaces as the dense
        eigenvectors (checked by ``eigenspace_projector_residual``).
        basis="eigen": the v are the dense eigenvectors, by ascending energy.
        """
        key = name, basis
        if key not in self._projections:
            if basis not in BASES:
                raise ValueError(f"unknown basis: {basis!r}")
            vectors = self.amplitudes if basis == "momentum" else self.eigensystem[1]
            self._projections[key] = _read_only(_sandwich(self.operator(name), vectors))
        return self._projections[key]


def _bonds(params: RingParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site indices (i, j) and hopping integral beta of each bond: H_ij = H_ji = -beta.

    No site pair appears twice, so a scatter ``+=`` over the bonds adds each entry once.
    """
    n, xi = params.n_per_ring, params.xi_intra
    k = np.arange(n)
    if params.topology is Topology.SINGLE_RING:
        return k, (k + 1) % n, np.full(n, xi)
    if params.topology is Topology.MOBIUS:
        # ring exchange at the seam (a_N == b_0, b_N == a_0) closes one loop of 2N sites
        s = np.arange(2 * n)
        i, j = s, (s + 1) % (2 * n)
    else:
        i, j = np.concatenate([k, n + k]), np.concatenate([(k + 1) % n, n + (k + 1) % n])
    # then the rungs a_j - b_j
    return (np.concatenate([i, k]), np.concatenate([j, n + k]),
            np.concatenate([np.full(2 * n, xi), np.full(n, params.v_inter)]))


def build_hamiltonian(params: RingParams) -> np.ndarray:
    """(dim, dim) dense Huckel Hamiltonian in eV for any of the three topologies.

    The site basis is (a_0..a_{N-1}, b_0..b_{N-1}); for the single ring it
    is just (a_0..a_{N-1}).
    """
    n = params.n_per_ring
    dim = n if params.topology is Topology.SINGLE_RING else 2 * n
    h = np.zeros((dim, dim))
    i, j, beta = _bonds(params)
    h[i, j] -= beta
    h[j, i] -= beta
    return h


def numeric_eigensystem(h: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Each eigenvector's phase is fixed so that its first component of
    significant magnitude is real and positive, making the output
    deterministic up to degenerate-subspace mixing.
    """
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("numeric_eigensystem requires a Hermitian operator")
    w, v = np.linalg.eigh(h)
    mag = np.abs(v)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    piv = v[first, np.arange(v.shape[1])]   # nonzero: each column is a unit vector
    v *= np.conj(piv) / np.abs(piv)
    return w, v


def position_operators(params: RingParams) -> np.ndarray:
    """(3, dim, dim) diagonal Cartesian position operators in meters."""
    pos = positions_array(params)
    dim = pos.shape[0]
    out = np.zeros((3, dim, dim))
    for c in range(3):
        out[c] = np.diag(pos[:, c])
    return out


def _electric_dipole_matrix(params: RingParams) -> np.ndarray:
    """(3, dim, dim) electric dipole operator d = -e r in the site basis (C m)."""
    return -E_CHARGE * position_operators(params)


def _magnetic_dipole_matrix(ring: DenseRing, definition: str) -> np.ndarray:
    """(3, dim, dim) magnetic dipole operator in the site basis (A m^2).

    definition="commutator": m = -i e r x [H, r] / (2 hbar), built from
    dense matrix products with the site-diagonal position operator.

    definition="bond_current": m = sum over bonds of J_ij S_ij with bond
    current operator J_ij = (i e beta_ij / hbar) a_i^dag a_j + h.c. and
    effective area S_ij = (R_i x R_j) / 2.

    The two constructions coincide for a tight-binding Hamiltonian with
    on-site position operators; both are kept as independent codings.
    """
    params = ring.params
    if definition == "commutator":
        h_joule = ring.hamiltonian * EV
        r_ops = position_operators(params)
        m = np.zeros((3, h_joule.shape[0], h_joule.shape[0]), dtype=complex)
        for i, (j, k) in enumerate([(1, 2), (2, 0), (0, 1)]):
            comm_k = h_joule @ r_ops[k] - r_ops[k] @ h_joule
            comm_j = h_joule @ r_ops[j] - r_ops[j] @ h_joule
            m[i] = (-1j * E_CHARGE / (2.0 * HBAR)) * (
                r_ops[j] @ comm_k - r_ops[k] @ comm_j
            )
    else:   # "bond_current"
        pos = positions_array(params)
        i, j, beta = _bonds(params)
        amp = 1j * (E_CHARGE * (beta * EV) / HBAR)
        moment = amp * (0.5 * np.cross(pos[i], pos[j])).T
        m = np.zeros((3, pos.shape[0], pos.shape[0]), dtype=complex)
        # += onto zeros, as a sum would: a -0.0 real part becomes +0.0
        m[:, i, j] += moment
        m[:, j, i] += np.conj(moment)
    return m


def _sandwich(table: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project a (3, dim, dim) site-basis operator onto a set of states.

    Returns (nstates, nstates, 3) with entry [a, b, c] = <v_a| O_c |v_b>.
    """
    out = np.empty((vectors.shape[1], vectors.shape[1], 3), dtype=complex)
    for c in range(3):
        out[:, :, c] = vectors.conj().T @ table[c] @ vectors
    return out


def group_levels(energies: np.ndarray, tol: float) -> list[np.ndarray]:
    """State indices of each degenerate level, by ascending energy.

    Neighbours within ``tol`` share a level; a NaN gap starts a new one.
    """
    order = np.argsort(energies)
    return np.split(order, np.flatnonzero(~(np.diff(energies[order]) <= tol)) + 1)


def match_levels(w: np.ndarray, levels: tuple[np.ndarray, ...], closed: np.ndarray,
                 tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each of ``levels``, the ``group_levels(w, tol)``, with its closed-form columns.

    A column belongs to a level when its energy is within ``tol`` of the level's mean.
    """
    sizes = np.array([len(grp) for grp in levels])
    # each level's sum adds its energies in the order that w[grp].mean() adds them
    means = np.add.reduceat(w[np.concatenate(levels)], np.cumsum(sizes) - sizes) / sizes
    level, cols = np.nonzero(np.abs(closed[None, :] - means[:, None]) <= tol)
    ends = np.cumsum(np.bincount(level, minlength=len(levels)))
    return list(zip(levels, np.split(cols, ends[:-1])))


def eigenspace_projector_residual(ring: DenseRing) -> float:
    """Max-abs difference between numeric and closed-form level projectors."""
    v = ring.eigensystem[1]
    u = ring.amplitudes
    worst = 0.0
    for grp, cols in ring.matched_levels:
        p_num = v[:, grp] @ v[:, grp].conj().T
        p_ana = u[:, cols] @ u[:, cols].conj().T
        worst = np.maximum(worst, np.abs(p_num - p_ana).max())
    return worst


@dataclass
class PerfectRingReport:
    commutator_norm: float        # max |[m_z, H]| in units of (e xi R^2 / hbar) xi
    max_offdiag_magnetic: float   # relative to e xi R^2 / hbar
    max_offdiag_electric: float   # relative to e R


def perfect_ring_regression(ring: DenseRing) -> PerfectRingReport:
    """Check that a perfect planar ring does not couple to the magnetic field."""
    params = ring.params
    if params.topology is not Topology.SINGLE_RING:
        raise ValueError("perfect_ring_regression expects the single-ring topology")
    m = ring.operator("bond_current")
    scale = E_CHARGE * (params.xi_intra * EV) * params.radius**2 / HBAR
    h_joule = ring.hamiltonian * EV
    comm = m[2] @ h_joule - h_joule @ m[2]
    comm_scale = scale * params.xi_intra * EV
    w = ring.eigensystem[0]
    m_eig = ring.projection("bond_current", "eigen")
    d_eig = ring.projection("electric", "eigen")
    # off-diagonal blocks between distinct energy levels only (gauge-free)
    level = np.empty(len(w), dtype=int)
    level[np.concatenate(ring.levels)] = np.repeat(np.arange(len(ring.levels)),
                                                   [len(grp) for grp in ring.levels])
    between = level[:, None] != level[None, :]
    mag_off = np.abs(m_eig[between]).max(initial=0.0)
    ele_off = np.abs(d_eig[between]).max(initial=0.0)
    return PerfectRingReport(
        commutator_norm=np.abs(comm).max() / comm_scale,
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
    n_shared: int | None   # both strengths above SHARED_THRESHOLD; None: e xi R W / hbar is 0


def shared_transition_scan(ring: DenseRing) -> SharedTransitionReport:
    """Strength of electric and magnetic coupling out of the ground state.

    For every excited energy level, the coupling strength is the norm of the
    gauge-invariant block <ground| O |level> summed over the degenerate
    subspace, normalised by the operator's natural scale.  A transition is
    "shared" when both the electric and the magnetic strength exceed
    SHARED_THRESHOLD; a common periodic double ring has none, the Mobius ring does.
    """
    params = ring.params
    d_scale = E_CHARGE * params.half_width
    m_scale = E_CHARGE * (params.xi_intra * EV) * params.radius * params.half_width / HBAR
    if m_scale == 0.0:   # every magnetic strength would read inf or nan: no transitions
        return SharedTransitionReport([], None)
    w = ring.eigensystem[0]
    d_eig = ring.projection("electric", "eigen")
    m_eig = ring.projection("bond_current", "eigen")
    ground, *excited = ring.levels
    out = []
    for grp in excited:
        freq = w[grp].mean() - w[ground].mean()
        d_blk = np.linalg.norm(d_eig[np.ix_(ground, grp)]) / d_scale
        m_blk = np.linalg.norm(m_eig[np.ix_(ground, grp)]) / m_scale
        out.append(TransitionStrength(freq, d_blk, m_blk))
    shared = [t for t in out if t.electric > SHARED_THRESHOLD and t.magnetic > SHARED_THRESHOLD]
    return SharedTransitionReport(out, len(shared))


def calibrate_conventions(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Residual of aligning an analytic momentum-space table with the numeric one.

    Both tables are (2N, 2N, 3) over the labels, in the order of ``label_axes``.
    One unit-modulus phase is fitted per (dl, band pair) block by least
    squares; the residual is the max deviation after alignment, relative to
    the largest analytic element, and keeps a NaN block.  A phase, -1
    included, fits by design: only an element-wise comparison sees a block's sign.
    """
    n = analytic.shape[0] // 2
    atol_scale = float(np.abs(analytic).max())
    band, ell = label_axes(n)
    dl = (ell[None, :] - ell[:, None]) % n   # [a, b] = l_b - l_a
    dl = np.where(dl > n // 2, dl - n, dl)
    dls = np.unique(dl[np.abs(dl) <= 2], return_index=True)[0]   # bare, it imports numpy.ma
    n_blocks = 4 * len(dls)
    # block id of each (a, b): its dl, then its band pair; |dl| > 2 sorts past the last block
    block = np.where(np.abs(dl) <= 2,
                     4 * np.searchsorted(dls, dl) + 2 * band[:, None] + band[None, :],
                     n_blocks).ravel()
    order = np.argsort(block, kind="stable")   # a block's entries stay ordered by a, then b
    bounds = np.searchsorted(block[order], np.arange(n_blocks + 1))
    # block i is the slice edges[i]:edges[i + 1], its elements ordered by a, then b, then component
    flat_a, flat_n = (table.reshape(-1, 3)[order[:bounds[-1]]].ravel()
                      for table in (analytic, numeric))
    edges = 3 * bounds
    phase = np.ones(n_blocks, dtype=complex)
    peaks = np.maximum.reduceat(np.abs(flat_a), edges[:-1])
    for i in np.flatnonzero(~(peaks < atol_scale * 1e-14)):
        arr_a, arr_n = flat_a[edges[i]:edges[i + 1]], flat_n[edges[i]:edges[i + 1]]
        overlap = np.vdot(arr_a, arr_n)
        if abs(overlap) > 0:
            phase[i] = overlap / abs(overlap)
    res = np.maximum.reduceat(np.abs(np.repeat(phase, np.diff(edges)) * flat_a - flat_n),
                              edges[:-1]) / atol_scale
    return float(res.max())   # keeps a NaN block, which max() may drop
