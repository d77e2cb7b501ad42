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
windows.  ``response_tensors`` is the one place these entries are written:
it takes a scalar omega or an array of them and evaluates Delta_0, eta and
(a, b) once per call, and returns both tensors with eps1, mu1 and the
near-resonance flag; ``eps1`` and ``mu1`` read its fields.  Both tensors
follow from the Green-Kubo dipole sums restricted to the resonant pair; the
full sums over all 2N - 1 excited states are kept in
``epsilon_from_full_sum`` / ``mu_from_full_sum`` as a validation route.
They read only the ground row of the dipole tables (O(N) work, no 2N x 2N
table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, EV, E_CHARGE, HBAR, MU_0
from .dipole import _LABEL_ROW, DipoleKind, _rows
from .ring import BANDS, Band, RingParams, VolumeConvention, band_energies, label_axes

# lossless-mode near-resonance mask half width, in units of gamma
NEAR_RESONANCE_FACTOR = 1e-3


class ResonanceSingularityError(ZeroDivisionError):
    """eta evaluated exactly on resonance with zero damping."""


class LocalFieldPoleError(ZeroDivisionError):
    """Local-field corrected permittivity evaluated at one of its poles."""


@dataclass(frozen=True)
class MediumConfig:
    """A Mobius-ring medium: one molecule per volume cell, fixed orientation."""

    ring: RingParams
    lossy: bool = False

    @property
    def volume_convention(self) -> VolumeConvention:
        return self.ring.volume_convention


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
    alpha: float
    beta: float
    eps1: complex | np.ndarray   # 1 - 5 eta'
    mu1: complex | np.ndarray    # 1 - (alpha^2 + 4 beta^2) eta'
    near_resonance: bool | np.ndarray = False


def molecular_volume(config: MediumConfig) -> float:
    """Volume per molecule in m^3 under the configured convention.

    CYLINDER_2W gives 2 pi (R + W)^2 W; CYLINDER_4W exactly twice that.
    """
    ring = config.ring
    base = 2.0 * math.pi * (ring.radius + ring.half_width) ** 2 * ring.half_width
    if ring.volume_convention is VolumeConvention.CYLINDER_4W:
        return 2.0 * base
    return base


def _excited_frequencies(ring: RingParams) -> np.ndarray:
    """(E - E_ground) / hbar in rad/s of the 2N - 1 labels after the ground state."""
    energies = band_energies(ring)
    return (energies[1:] - energies[0]) * EV / HBAR


def resonance_frequency(config: MediumConfig) -> float:
    """Delta_0 = (2V + 2 xi (1 - cos delta/2)) / hbar in rad/s, the (0, up) line."""
    band, ell = label_axes(config.ring.n_per_ring)
    lowest_up = (band[1:] == BANDS.index(Band.UP)) & (ell[1:] == 0)
    return float(_excited_frequencies(config.ring)[lowest_up][0])


def eta_prefactor(config: MediumConfig) -> float:
    """e^2 W^2 / (8 hbar eps0 v0) in rad/s."""
    w = config.ring.half_width
    return E_CHARGE**2 * w**2 / (8.0 * HBAR * EPSILON_0 * molecular_volume(config))


def eta(config: MediumConfig, omega):
    """Complex response eta(omega); accepts scalars or arrays (rad/s)."""
    omega = np.asarray(omega, dtype=float)
    value = _eta_at(config, omega - resonance_frequency(config))
    return complex(value) if value.ndim == 0 else value


def _eta_at(config: MediumConfig, detuning):
    """eta at the detuning omega - Delta_0 (rad/s)."""
    gamma = config.ring.decay_rate
    if gamma == 0.0 and np.any(detuning == 0.0):
        raise ResonanceSingularityError(
            "eta diverges exactly on resonance when the decay rate is zero"
        )
    return eta_prefactor(config) / (detuning + 1j * gamma)


def alpha_beta(config: MediumConfig) -> tuple[float, float]:
    ring = config.ring
    d = ring.delta
    v_j = ring.v_inter * EV
    xi_j = ring.xi_intra * EV
    hbar_c = HBAR * C_LIGHT
    alpha = ring.radius / hbar_c * (v_j + xi_j * (math.cos(d) - math.cos(d / 2.0)))
    beta = 2.0 * ring.radius * xi_j / hbar_c * math.sin(d / 2.0) ** 2 * math.cos(d / 2.0)
    return alpha, beta


def response_tensors(config: MediumConfig, omega) -> ResponseTensors:
    """eta, eps_r, mu_r, eps1, mu1 and the near-resonance flag at omega.

    omega is a scalar or an array of n frequencies (rad/s); an array gives
    (n, 3, 3) tensors and (n,) values.  Lossless mode uses eta' = Re(eta) in
    every entry, lossy mode the complex eta.
    """
    scalar = np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    detuning = omega - resonance_frequency(config)
    h = _eta_at(config, detuning)
    h_eff = h if config.lossy else h.real
    a, b = alpha_beta(config)
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
    near = np.abs(detuning) < NEAR_RESONANCE_FACTOR * config.ring.decay_rate
    if scalar:
        return ResponseTensors(float(omega[0]), complex(h[0]), eps[0], mu[0], a, b,
                               eps1[0].item(), mu1[0].item(), bool(near[0]))
    return ResponseTensors(omega, h, eps, mu, a, b, eps1, mu1, near)


def eps1(config: MediumConfig, omega):
    """Principal permittivity 1 - 5 eta' (complex eta when lossy)."""
    return response_tensors(config, omega).eps1


def mu1(config: MediumConfig, omega):
    """Principal permeability 1 - (alpha^2 + 4 beta^2) eta'."""
    return response_tensors(config, omega).mu1


# ---------------------------------------------------------------------------
# Full Green-Kubo sums over every excited state (validation route)
# ---------------------------------------------------------------------------

def _ground_dyads(config: MediumConfig, kind: DipoleKind):
    """Per-excited-label dyads v v^dag with v = <ground| O |excited>, in label order."""
    ring = config.ring
    band, ell = label_axes(ring.n_per_ring)   # label 0 is the ground state
    row = _LABEL_ROW[band]
    vecs = _rows(ring, kind, ell[:1])[0][ell[1:], row[0], row[1:]]
    return _excited_frequencies(ring), vecs[:, :, None] * vecs.conj()[:, None, :]


def _kubo_sum(config: MediumConfig, omega: float, kind: DipoleKind):
    """-1 / (hbar v0) (electric) or -mu0 / (hbar v0) (magnetic) times the 3x3
    sum over every excited state of dyad / (omega - Delta + i gamma)."""
    freqs, dyads = _ground_dyads(config, kind)
    lorentz = 1.0 / (omega - freqs + 1j * config.ring.decay_rate)
    total = np.tensordot(lorentz, dyads, axes=(0, 0))
    scale = 1.0 if kind is DipoleKind.ELECTRIC else MU_0
    return -(scale / (HBAR * molecular_volume(config))) * (total if config.lossy else total.real)


def epsilon_from_full_sum(config: MediumConfig, omega: float) -> np.ndarray:
    """3x3 permittivity I + P / eps0: column c is the polarization P driven by unit E_c."""
    return np.eye(3) + _kubo_sum(config, omega, DipoleKind.ELECTRIC) / EPSILON_0


def mu_from_full_sum(config: MediumConfig, omega: float) -> np.ndarray:
    """3x3 permeability I + M: column c is the magnetization M driven by unit H_c."""
    return np.eye(3) + _kubo_sum(config, omega, DipoleKind.MAGNETIC)


# ---------------------------------------------------------------------------
# Negative-permeability window
# ---------------------------------------------------------------------------

def bandwidth(config: MediumConfig) -> float:
    """Width of the mu1 < 0 window in rad/s; 0 when overdamped.

    mu1(omega) = 0 has two roots above resonance whenever the oscillator
    strength beats the damping; their separation is

        B = sqrt( [e^2 (a^2 + 4 b^2) W^2 / (8 eps0 v0 hbar)]^2 - 4 gamma^2 ).
    """
    a, b = alpha_beta(config)
    pref = (a**2 + 4.0 * b**2) * eta_prefactor(config)
    radicand = pref**2 - 4.0 * config.ring.decay_rate**2
    return math.sqrt(radicand) if radicand > 0.0 else 0.0


def mu1_zero_detunings(config: MediumConfig) -> tuple[float, float] | None:
    """Detunings (from resonance) of the two mu1 zeros, or None if overdamped."""
    a, b = alpha_beta(config)
    pref = (a**2 + 4.0 * b**2) * eta_prefactor(config)
    radicand = pref**2 - 4.0 * config.ring.decay_rate**2
    if radicand <= 0.0:
        return None
    root = math.sqrt(radicand)
    return (0.5 * (pref - root), 0.5 * (pref + root))


def critical_lifetime(config: MediumConfig) -> float:
    """Minimum excited-state lifetime (s) for the mu1 < 0 window to open."""
    a, b = alpha_beta(config)
    w = config.ring.half_width
    return (
        16.0 * EPSILON_0 * molecular_volume(config) * HBAR
        / (E_CHARGE**2 * (a**2 + 4.0 * b**2) * w**2)
    )


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
    h = eta(config, omega)
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

