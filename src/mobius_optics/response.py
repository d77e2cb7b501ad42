"""Linear-response description of a medium of aligned Mobius rings.

Near the lowest inter-band resonance Delta_0 (the transition from the
ground state (0, down) into the degenerate pair (0, up), (1, up)) the
medium is characterised by a single complex response function

    eta(omega) = e^2 W^2 / (8 hbar eps0 v0) * 1 / (omega - Delta_0 + i gamma)

and the relative permittivity / permeability tensors (molecular frame,
interface normal along z):

    eps_r = [[1 - eta', 0, 0], [0, 1 - eta', -2 eta'], [0, -2 eta', 1 - 4 eta']]
    mu_r  = [[1 - a^2 eta', 0, 0], [0, 1 - a^2 eta', -2 a b eta'],
             [0, -2 a b eta', 1 - 4 b^2 eta']]

with the dimensionless magnetic coupling strengths

    a = (R / hbar c) [V + xi (cos delta - cos delta/2)]
    b = 2 (R xi / hbar c) sin^2(delta/2) cos(delta/2).

In lossless mode eta' = Re(eta) is used; in lossy mode the full complex
eta replaces it entrywise.  The yz blocks have exact eigenvalue pairs
{1, 1 - 5 eta'} and {1, 1 - (a^2 + 4 b^2) eta'}; the second members are the
principal values eps1 and mu1 whose zero crossings bound the negative
windows.  ``MediumConfig.resonance`` holds Delta_0, gamma, the volume, the
eta prefactor and (a, b), derived once per config; the mu1 < 0 window in rad/s
(``window``), its width, the sweeps over Delta_0 +- k bandwidths (``sweep``)
and the critical lifetime are read from it.  ``response_tensors`` is
the one place the tensor entries are written: it takes a scalar omega or an
array of them and returns both tensors with eps1, mu1 and the
near-resonance flag.  Both tensors follow from the Green-Kubo dipole sums
restricted to the resonant pair; the full sums over all 2N - 1 excited
states are kept in ``epsilon_from_full_sum`` / ``mu_from_full_sum`` as a
validation route.  They read only the ground row of the dipole tables: the
entries of ``dipole.block_entries`` at bra momentum 0 whose bra is the
ground state (O(N) work, no 2N x 2N table).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, EV, E_CHARGE, HBAR, MU_0
from .dipole import DipoleKind, block_entries
from .ring import BANDS, Band, RingParams, VolumeConvention, band_energies, label_energies

# lossless-mode near-resonance mask half width, in units of gamma
NEAR_RESONANCE_FACTOR = 1e-3

# reasons ``Resonance.sweep`` gives no grid
OVERDAMPED = "overdamped: no mu1 window"
NONPOSITIVE_SWEEP = "frequency sweep would reach omega <= 0"
REPEATED_SWEEP = "frequency sweep repeats values: the band is below float resolution"


class ResonanceSingularityError(ZeroDivisionError):
    """eta evaluated exactly on resonance with zero damping."""


class LocalFieldPoleError(ZeroDivisionError):
    """Local-field corrected permittivity evaluated at one of its poles."""


@dataclass(frozen=True)
class MediumConfig:
    """A Mobius-ring medium: one molecule per volume cell, fixed orientation."""

    ring: RingParams
    lossy: bool = False

    @functools.cached_property
    def resonance(self) -> Resonance:
        """The medium's resonance, derived on first read and kept."""
        return Resonance.of(self.ring)


@dataclass(frozen=True)
class Resonance:
    """The single resonance that sets every window of one ring's medium.

    The line Delta_0, the damping gamma and the eta prefactor P fix
    eta(omega) = P / (omega - Delta_0 + i gamma); with the couplings a, b they
    fix the mu1 < 0 window.  The fields are evaluated once, by ``of``; the
    window's width, its edges and the critical lifetime are read from them.
    """

    delta0: float       # rad/s, the (0, down) -> (0, up) line
    gamma: float        # rad/s, the decay rate
    half_width: float   # m, W
    volume: float       # m^3 per molecule, v0
    prefactor: float    # rad/s, P = e^2 W^2 / (8 hbar eps0 v0)
    alpha: float
    beta: float

    @classmethod
    def of(cls, ring: RingParams) -> Resonance:
        """The resonance of a ring.

        Delta_0 = (2V + 2 xi (1 - cos delta/2)) / hbar is evaluated from the
        two labels it reads, (0, down) and (0, up), and has the bits of its
        entry in ``_excited_frequencies``.  v0 is 2 pi (R + W)^2 W for
        CYLINDER_2W and exactly twice that for CYLINDER_4W.
        """
        bands = np.array([BANDS.index(Band.DOWN), BANDS.index(Band.UP)])   # both at l = 0
        ground, lowest_up = label_energies(ring, bands, np.zeros(2, dtype=int))
        w = ring.half_width
        volume = 2.0 * math.pi * (ring.radius + w) ** 2 * w
        if ring.volume_convention is VolumeConvention.CYLINDER_4W:
            volume = 2.0 * volume
        # a volume below about 4e-280 m^3 underflows the divisor to 0, and P reads inf
        divisor = 8.0 * HBAR * EPSILON_0 * volume
        d = ring.delta
        v_j = ring.v_inter * EV
        xi_j = ring.xi_intra * EV
        hbar_c = HBAR * C_LIGHT
        return cls(
            delta0=float((lowest_up - ground) * EV / HBAR),
            gamma=ring.decay_rate,
            half_width=w,
            volume=volume,
            prefactor=E_CHARGE**2 * w**2 / divisor if divisor else math.inf,
            alpha=ring.radius / hbar_c * (v_j + xi_j * (math.cos(d) - math.cos(d / 2.0))),
            beta=2.0 * ring.radius * xi_j / hbar_c * math.sin(d / 2.0) ** 2 * math.cos(d / 2.0),
        )

    def eta(self, omega):
        """Complex response eta(omega); accepts scalars or arrays (rad/s)."""
        detuning = np.asarray(omega, dtype=float) - self.delta0
        if self.gamma == 0.0 and np.any(detuning == 0.0):
            raise ResonanceSingularityError(
                "eta diverges exactly on resonance when the decay rate is zero"
            )
        value = self.prefactor / (detuning + 1j * self.gamma)
        return complex(value) if value.ndim == 0 else value

    @property
    def bandwidth(self) -> float:
        """Width of the mu1 < 0 window in rad/s; 0 when overdamped.

        mu1(omega) = 0 has two roots above resonance whenever the oscillator
        strength beats the damping; their separation is

            B = sqrt( [e^2 (a^2 + 4 b^2) W^2 / (8 eps0 v0 hbar)]^2 - 4 gamma^2 ).
        """
        radicand = ((self.alpha**2 + 4.0 * self.beta**2) * self.prefactor)**2 - 4.0 * self.gamma**2
        return math.sqrt(radicand) if radicand > 0.0 else 0.0

    @property
    def mu1_zeros(self) -> tuple[float, float] | None:
        """Detunings (from resonance) of the two mu1 zeros, or None if overdamped."""
        root = self.bandwidth
        if root == 0.0:
            return None
        pref = (self.alpha**2 + 4.0 * self.beta**2) * self.prefactor
        return (0.5 * (pref - root), 0.5 * (pref + root))

    @property
    def window(self) -> tuple[float, float, float] | None:
        """(low, middle, high) of the mu1 < 0 window in rad/s, or None if overdamped."""
        zeros = self.mu1_zeros
        return None if zeros is None else (
            self.delta0 + zeros[0], self.delta0 + 0.5 * (zeros[0] + zeros[1]), self.delta0 + zeros[1])

    def sweep(self, half_span: float, count: int) -> np.ndarray | str:
        """count frequencies over Delta_0 +- half_span bandwidths (rad/s), or the
        reason there is no such grid: OVERDAMPED, NONPOSITIVE_SWEEP or REPEATED_SWEEP."""
        bw = self.bandwidth
        if bw == 0.0:
            return OVERDAMPED
        if self.delta0 - half_span * bw <= 0.0:
            return NONPOSITIVE_SWEEP
        grid = np.linspace(self.delta0 - half_span * bw, self.delta0 + half_span * bw, count)
        return REPEATED_SWEEP if (np.diff(grid) <= 0.0).any() else grid

    @property
    def critical_lifetime(self) -> float:
        """Minimum excited-state lifetime (s) for the mu1 < 0 window to open."""
        return (
            16.0 * EPSILON_0 * self.volume * HBAR
            / (E_CHARGE**2 * (self.alpha**2 + 4.0 * self.beta**2) * self.half_width**2)
        )


@dataclass(frozen=True)
class ResponseTensors:
    """Response at one omega, or at each of an array of n omegas.

    For an array the tensors have shape (n, 3, 3) and eta, eps1, mu1 and
    near_resonance shape (n,).
    """

    omega: float | np.ndarray
    eta: complex | np.ndarray
    eps_r: np.ndarray   # (3, 3) or (n, 3, 3), real lossless / complex lossy
    mu_r: np.ndarray
    eps1: complex | np.ndarray   # 1 - 5 eta'
    mu1: complex | np.ndarray    # 1 - (alpha^2 + 4 beta^2) eta', Resonance's alpha and beta
    near_resonance: bool | np.ndarray = False


def _excited_frequencies(ring: RingParams) -> np.ndarray:
    """(E - E_ground) / hbar in rad/s of the 2N - 1 labels after the ground state."""
    energies = band_energies(ring)
    return (energies[1:] - energies[0]) * EV / HBAR


def resonance_frequency(config: MediumConfig) -> float:
    """Delta_0 in rad/s, the (0, up) line."""
    return config.resonance.delta0


def bandwidth(config: MediumConfig) -> float:
    """Width of the mu1 < 0 window in rad/s; 0 when overdamped."""
    return config.resonance.bandwidth


def response_tensors(config: MediumConfig, omega) -> ResponseTensors:
    """eta, eps_r, mu_r, eps1, mu1 and the near-resonance flag at omega.

    omega is a scalar or an array of n frequencies (rad/s); an array gives
    (n, 3, 3) tensors and (n,) values.  Lossless mode uses eta' = Re(eta) in
    every entry, lossy mode the complex eta.
    """
    scalar = np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    res = config.resonance
    h = res.eta(omega)
    h_eff = h if config.lossy else h.real
    a, b = res.alpha, res.beta
    eps = np.zeros((omega.size, 3, 3), dtype=h_eff.dtype)
    eps[:, 0, 0] = eps[:, 1, 1] = 1.0 - h_eff
    eps[:, 2, 2] = 1.0 - 4.0 * h_eff
    eps[:, 1, 2] = eps[:, 2, 1] = -2.0 * h_eff
    mu = np.zeros_like(eps)
    mu[:, 0, 0] = mu[:, 1, 1] = 1.0 - a**2 * h_eff
    mu[:, 2, 2] = 1.0 - 4.0 * b**2 * h_eff
    mu[:, 1, 2] = mu[:, 2, 1] = -2.0 * a * b * h_eff
    eps1 = 1.0 - 5.0 * h_eff
    mu1 = 1.0 - (a**2 + 4.0 * b**2) * h_eff
    near = np.abs(omega - res.delta0) < NEAR_RESONANCE_FACTOR * res.gamma
    if scalar:
        return ResponseTensors(float(omega[0]), complex(h[0]), eps[0], mu[0],
                               eps1[0].item(), mu1[0].item(), bool(near[0]))
    return ResponseTensors(omega, h, eps, mu, eps1, mu1, near)


# ---------------------------------------------------------------------------
# Full Green-Kubo sums over every excited state (validation route)
# ---------------------------------------------------------------------------

def _ground_dyads(config: MediumConfig, kind: DipoleKind):
    """Per-excited-label dyads v v^dag with v = <ground| O |excited>, in label order."""
    ring = config.ring
    src, dst, vectors = block_entries(ring, kind, [0])
    ground = dst == 0   # label 0 is the ground state (0, down)
    row = np.zeros((2 * ring.n_per_ring, 3), dtype=complex)
    row[src[ground]] = vectors[ground]
    vecs = row[1:]
    return _excited_frequencies(ring), vecs[:, :, None] * vecs.conj()[:, None, :]


def _kubo_sum(config: MediumConfig, omega: float, kind: DipoleKind):
    """-1 / (hbar v0) (electric) or -mu0 / (hbar v0) (magnetic) times the 3x3
    sum over every excited state of dyad / (omega - Delta + i gamma)."""
    freqs, dyads = _ground_dyads(config, kind)
    lorentz = 1.0 / (omega - freqs + 1j * config.ring.decay_rate)
    total = np.tensordot(lorentz, dyads, axes=(0, 0))
    scale = 1.0 if kind is DipoleKind.ELECTRIC else MU_0
    return -(scale / (HBAR * config.resonance.volume)) * (total if config.lossy else total.real)


def epsilon_from_full_sum(config: MediumConfig, omega: float) -> np.ndarray:
    """3x3 permittivity I + P / eps0: column c is the polarization P driven by unit E_c."""
    return np.eye(3) + _kubo_sum(config, omega, DipoleKind.ELECTRIC) / EPSILON_0


def mu_from_full_sum(config: MediumConfig, omega: float) -> np.ndarray:
    """3x3 permeability I + M: column c is the magnetization M driven by unit H_c."""
    return np.eye(3) + _kubo_sum(config, omega, DipoleKind.MAGNETIC)


# ---------------------------------------------------------------------------
# Local field (mean-field) correction
# ---------------------------------------------------------------------------

def local_field_epsilon(config: MediumConfig, omega) -> np.ndarray:
    """Permittivity corrected for the field of the surrounding molecules.

    Entrywise closed form near the resonance:

        diag x:   (3 - 2 eta') / (3 + eta')
        yz block: [[(3 + 2 eta'), -6 eta'], [-6 eta', (3 - 7 eta')]] / (3 + 5 eta')

    with eigenvalues (3 - 2 eta')/(3 + eta'), (3 - 10 eta')/(3 + 5 eta'), 1.
    The corrected principal value crosses zero at eta' = 3/10 instead of the
    uncorrected 1/5.
    """
    h = config.resonance.eta(omega)
    h = h if config.lossy else np.real(h)
    pole_x = 3.0 + h
    pole_yz = 3.0 + 5.0 * h
    if min(abs(pole_x), abs(pole_yz)) < 1e-12:
        raise LocalFieldPoleError("corrected permittivity evaluated at a pole")
    dtype = complex if config.lossy else float
    out = np.zeros((3, 3), dtype=dtype)
    out[0, 0] = (3.0 - 2.0 * h) / pole_x
    out[1, 1] = (3.0 + 2.0 * h) / pole_yz
    out[2, 2] = (3.0 - 7.0 * h) / pole_yz
    out[1, 2] = out[2, 1] = -6.0 * h / pole_yz
    return out

