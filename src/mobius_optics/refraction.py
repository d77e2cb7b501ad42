"""Plane-wave refraction at the z = 0 interface between air and the medium.

A monochromatic wave arrives from vacuum in the y-z plane at angle theta
from the interface normal.  Two polarizations are treated: E along x
("E-polarized") and H along x ("H-polarized").  Write t for the tensor in
the double curl (mu for E, eps for H: the H case is the exact dual), x for
the transverse entry (eps_xx for E, mu_xx for H), d = t_yy t_zz - t_yz^2
(for the Mobius E case the principal value mu1) and k_i = omega/c.
Matching k_ty = k_i sin(theta) leaves a quadratic for k_tz,

    t_zz k_tz^2 + 2 t_yz k_ty k_tz + t_yy k_ty^2 - d k_i^2 x = 0,

whose discriminant collapses to disc = 4 k_i^2 d (lim - sin^2 theta) with
lim = t_zz x, one number per frequency.  The two real roots carry opposite
Poynting z components S_tz = +/- sqrt(disc) / 2d, so causality (S_tz > 0,
energy into the medium) selects exactly one branch: the "+" root when
d > 0 and the "-" root when d < 0.  On it the quadratic gives
k . S = (t_yy k_ty^2 + 2 t_yz k_ty k_tz + t_zz k_tz^2) / d = k_i^2 x.
Each (theta, omega) cell is therefore classified by comparing sin^2 theta
with the lim of its frequency:

    LH  sin^2 theta < lim with d > 0, or > lim with d < 0, and x < 0
        (k . S < 0: negative refraction)
    RH  the same with x >= 0 (ordinary refraction)
    TR  otherwise (total reflection), and wherever |d| < DEGENERACY_TOL (a
        degenerate quadratic), t_zz == 0 or an entry is not finite

So three numbers per frequency set its whole column: lim, the sign of d
and the code of a propagating cell.
One kernel applies these rules: it ranks the sin^2 theta values once and
finds, per frequency, the threshold rank that lim splits them at
(``searchsorted``), so a cell is one comparison of small integers, its rank
against that threshold.  ``phase_diagram`` runs it over a grid,
``classify`` on one cell (solving the quadratic only to report the roots
and the chosen one's Poynting direction) and ``lossy_lh_window``, the lossy
normal-incidence path, on the lossless limit of each frequency.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT
from .response import (
    MediumConfig,
    ResponseTensors,
    bandwidth,
    mu1_zero_detunings,
    resonance_frequency,
    response_tensors,
)

DEGENERACY_TOL = 1e-12   # |det yz block| below this is a degenerate quadratic


class Polarization(enum.Enum):
    E = "E"
    H = "H"


class Classification(enum.IntEnum):
    LH = -1
    TR = 0
    RH = 1
    MASKED = 2   # near-resonance bin, excluded from diagrams


class ConicClass(enum.Enum):
    CIRCLE = "circle"        # closed (elliptic) wave-vector surface
    HYPERBOLA = "hyperbola"
    DEGENERATE = "degenerate"  # no real surface points, or a line pair (rhs = 0)


class DegenerateFresnelError(ArithmeticError):
    """The yz response block is singular; the dispersion quadratic degenerates."""


@dataclass(frozen=True)
class IncidentWave:
    polarization: Polarization
    theta: float   # radians, in [0, pi/2)
    omega: float   # rad/s

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi / 2.0:
            raise ValueError("theta must lie in [0, pi/2)")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")

    @property
    def k_i(self) -> float:
        return self.omega / C_LIGHT

    @property
    def k_iy(self) -> float:
        return self.k_i * math.sin(self.theta)


@dataclass(frozen=True)
class RefractionResult:
    wave: IncidentWave
    roots: np.ndarray            # (2,) complex k_tz, rad/m
    chosen: int | None           # index into roots, None if totally reflected
    k_ty: float
    poynting_dir: tuple[float, float] | None  # (S_ty, S_tz) up to positive prefactor
    classification: Classification


def _blocks(tensors: ResponseTensors, pol: Polarization):
    """(curl tensor, transverse xx entry) for the polarization.

    E-polarized fields see mu in the double curl and eps_xx on the source
    side; H-polarized is the dual.
    Works on one tensor pair or on a batch: the entries are read as
    ``[..., i, j]``.
    """
    if pol is Polarization.E:
        t, other_xx = tensors.mu_r, tensors.eps_r[..., 0, 0]
    else:
        t, other_xx = tensors.eps_r, tensors.mu_r[..., 0, 0]
    tyy, tyz, tzz = t[..., 1, 1], t[..., 1, 2], t[..., 2, 2]
    det = tyy * tzz - tyz * tyz
    return tyy, tyz, tzz, det, other_xx


def _boundary(tensors: ResponseTensors, pol: Polarization):
    """Per-frequency (lim, above, code) that set every cell of a frequency.

    A cell propagates when sin^2 theta < lim, or when sin^2 theta > lim
    where ``above`` (d < 0); ``code`` is the int8 Classification of a
    propagating cell, 0 (TR) where |d| < DEGENERACY_TOL, t_zz == 0 or
    d * lim is not finite.  Each has the tensors' frequency shape.
    """
    _, _, tzz, det, other_xx = _blocks(tensors, pol)
    with np.errstate(invalid="ignore", over="ignore"):
        lim = tzz * other_xx
        valid = (np.abs(det) >= DEGENERACY_TOL) & (tzz != 0.0) & np.isfinite(det * lim)
    code = np.where(other_xx < 0.0, np.int8(Classification.LH),
                    np.int8(Classification.RH)) * valid
    return lim, det < 0.0, code


def _propagation(tensors: ResponseTensors, pol: Polarization, sin2_theta, masked=False):
    """int8 Classification codes (LH, RH or TR); see the module docstring.

    ``sin2_theta`` is a scalar or an (n, 1) column against the tensors'
    frequency axis, and the codes have the broadcast shape.  Frequencies
    where ``masked`` is true read MASKED.  The n values of sin^2 theta are
    ranked once; per frequency ``searchsorted`` gives a threshold index t
    with the propagating rows at rank < t where d > 0 and at rank >= t
    where d < 0 (t = n on a masked column).  The grid is then three int8
    passes: rank < t, times -code on the d < 0 columns and code on the
    others, plus code on the d < 0 columns.
    """
    lim, above, code = _boundary(tensors, pol)
    sin2 = np.asarray(sin2_theta, dtype=float)
    shape = np.broadcast_shapes(sin2.shape, lim.shape)
    sin2, lim = sin2.ravel(), lim.ravel()
    masked = np.broadcast_to(masked, lim.shape)
    above = above.ravel() & ~masked
    code = np.where(masked, np.int8(Classification.MASKED), code.ravel())
    n = sin2.size
    order = np.argsort(sin2, kind="stable")
    rank = np.empty(n, np.min_scalar_type(n))
    rank[order] = np.arange(n)
    ranked = sin2[order]
    t = np.where(above, ranked.searchsorted(lim, "right"), ranked.searchsorted(lim, "left"))
    t = np.where(masked, n, t).astype(rank.dtype)
    codes = np.empty((n, lim.size), np.int8)
    np.less(rank[:, None], t, out=codes.view(bool))
    codes *= np.where(above, -code, code)
    codes += np.where(above, code, np.int8(0))
    return codes.reshape(shape)


def fresnel_roots(tensors: ResponseTensors, wave: IncidentWave) -> np.ndarray:
    """Both k_tz roots (complex ndarray, shape (2,)), '+' discriminant first."""
    tyy, tyz, tzz, det, other_xx = _blocks(tensors, wave.polarization)
    if abs(det) < DEGENERACY_TOL:
        raise DegenerateFresnelError(
            "the yz response block is singular (principal value 0); the "
            "boundary between the propagating regimes is classified TR"
        )
    b = 2.0 * tyz * wave.k_iy
    c = tyy * wave.k_iy**2 - det * wave.k_i**2 * other_xx
    root = np.sqrt(complex(b * b - 4.0 * tzz * c))
    return np.array([(-b + root) / (2.0 * tzz), (-b - root) / (2.0 * tzz)])


def _poynting(tensors, pol, k_iy, k_tz):
    """(S_ty, S_tz) up to the positive prefactor amplitude^2 t^2 / (2 omega mu0|eps0).

    Valid for real or complex scalars and arrays; for complex arguments the
    returned components are the real parts of the complex Poynting flow.
    """
    tyy, tyz, tzz, det, _ = _blocks(tensors, pol)
    s_ty = np.real((tyz * k_tz + tyy * k_iy) / det)
    s_tz = np.real((tyz * k_iy + tzz * k_tz) / det)
    return s_ty, s_tz


def classify(tensors: ResponseTensors, wave: IncidentWave) -> RefractionResult:
    """Classify one incident (polarization, theta, omega) cell (lossless tensors).

    A root propagates when the two roots are real and distinct.  The causal
    branch must carry energy into the medium (S_tz > 0); if no propagating
    root does, the wave is totally reflected.
    """
    try:
        roots = fresnel_roots(tensors, wave)
    except DegenerateFresnelError:   # classified TR below
        roots = np.array([np.nan + 0j, np.nan + 0j])
    pol = wave.polarization
    cls = Classification(int(_propagation(tensors, pol, np.sin(wave.theta) ** 2)))
    if cls is Classification.TR:
        return RefractionResult(wave, roots, None, wave.k_iy, None, cls)
    # the causal branch is the "+" root when det > 0 and the "-" root otherwise
    chosen = 0 if _blocks(tensors, pol)[3] > 0.0 else 1
    s_ty, s_tz = _poynting(tensors, pol, wave.k_iy, roots[chosen].real)
    return RefractionResult(wave, roots, chosen, wave.k_iy, (float(s_ty), float(s_tz)), cls)


# ---------------------------------------------------------------------------
# Phase diagram over a (theta, omega) grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDiagram:
    polarization: Polarization
    theta: np.ndarray        # (n_theta,) radians
    omega: np.ndarray        # (n_omega,) rad/s
    codes: np.ndarray        # (n_theta, n_omega) int8 Classification values

    def count(self, cls: Classification) -> int:
        return int(np.count_nonzero(self.codes == int(cls)))


def phase_diagram(config: MediumConfig, pol: Polarization,
                  theta_grid, omega_grid) -> PhaseDiagram:
    """Classify every (theta, omega) cell of a monotone grid (lossless response).

    Near-resonance frequency bins are marked MASKED.  Every omega must be
    positive: at omega = 0 the quadratic degenerates for every theta.

    Emits a warning when the omega spacing is too coarse to resolve the
    mu1 < 0 window (target: bandwidth / 50), if that window overlaps the
    grid at all.
    """
    theta = np.asarray(theta_grid, dtype=float)
    omega = np.asarray(omega_grid, dtype=float)
    if not np.all(omega > 0.0):
        raise ValueError("omega must be positive")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if np.any(np.diff(theta) <= 0) or (omega.size > 1 and np.any(np.diff(omega) <= 0)):
        raise ValueError("theta and omega grids must be strictly increasing")
    bw = bandwidth(config)
    zeros = mu1_zero_detunings(config)
    if bw > 0.0 and omega.size > 1 and zeros is not None:
        delta0 = resonance_frequency(config)
        spacing = np.diff(omega).max()
        lo, hi = delta0 + zeros[0], delta0 + zeros[1]
        if spacing > bw / 2.0 and omega[0] < hi and omega[-1] > lo:
            warnings.warn(
                f"omega grid spacing {spacing:.3e} rad/s cannot resolve the "
                f"negative-permeability window (width {bw:.3e}); a spacing "
                f"of bandwidth/50 = {bw / 50.0:.3e} is recommended",
                stacklevel=2,
            )
    tensors = response_tensors(replace(config, lossy=False), omega)
    codes = _propagation(tensors, pol, np.sin(theta)[:, None] ** 2, tensors.near_resonance)
    return PhaseDiagram(pol, theta, omega, codes)


# ---------------------------------------------------------------------------
# Wave-vector surfaces
# ---------------------------------------------------------------------------

def mixing_angle(tensors: ResponseTensors, pol: Polarization = Polarization.E) -> float:
    """Rotation angle (radians) that diagonalizes the yz quadratic form.

    tan(2 phi) = 2 t_yz / (t_yy - t_zz); for the E-polarized Mobius tensors
    this is -4 a b / (4 b^2 - a^2).  Rotating (n_ty, n_tz) by phi removes
    the cross term, putting the conic in canonical form.
    """
    tyy, tyz, tzz, _, _ = _blocks(tensors, pol)
    return 0.5 * math.atan2(2.0 * tyz, tyy - tzz)


def _principal_frame(tensors, pol):
    """Rotation phi plus principal coefficients (lam_ty, lam_tz, rhs).

    In the rotated frame the surface is lam_ty nt~^2 + lam_tz nz~^2 = rhs
    with nt~ = n_ty cos(phi) + n_tz sin(phi), nz~ = -n_ty sin(phi) + n_tz cos(phi).
    """
    tyy, tyz, tzz, det, other_xx = _blocks(tensors, pol)
    phi = mixing_angle(tensors, pol)
    c, s = math.cos(phi), math.sin(phi)
    lam_ty = tyy * c**2 + 2.0 * tyz * s * c + tzz * s**2
    lam_tz = tyy * s**2 - 2.0 * tyz * s * c + tzz * c**2
    return phi, lam_ty, lam_tz, det * other_xx


def conic_classification(tensors: ResponseTensors,
                         pol: Polarization = Polarization.E) -> ConicClass:
    _, lam1, lam2, rhs = _principal_frame(tensors, pol)
    if lam1 * lam2 < 0.0 and rhs != 0.0:   # rhs = 0 gives a line pair
        return ConicClass.HYPERBOLA
    if lam1 * lam2 > 0.0 and rhs / lam1 > 0.0:
        return ConicClass.CIRCLE
    return ConicClass.DEGENERATE


def _sq(x):
    """x**2 by libm pow, as Python's float ** rounds it.

    numpy's array ** 2 is x * x and differs in the last bit for about 0.1%
    of inputs; with pow, arrays of samples round exactly as scalar calls do.
    """
    return np.float_power(x, 2)


def rotated_conic_residual(tensors: ResponseTensors, pol: Polarization,
                           n_ty, n_tz) -> np.ndarray:
    """|lam_ty nt~^2 + lam_tz nz~^2 - rhs| / |rhs| in the principal frame, per sample.

    For the hyperbolic regime this is exactly the residual of the canonical
    two-branch form nz~^2 / ((1 - eta') mu1) - nt~^2 / (eta' - 1) = 1.
    """
    phi, lam_ty, lam_tz, rhs = _principal_frame(tensors, pol)
    c, s = math.cos(phi), math.sin(phi)
    with np.errstate(all="ignore"):
        nt = n_ty * c + n_tz * s
        nz = -n_ty * s + n_tz * c
        return np.abs((lam_ty * _sq(nt) + lam_tz * _sq(nz)) / rhs - 1.0)


def _causal_n_tz(tensors, pol, n_ty):
    """Causal-branch n_tz at reduced transverse components n_ty; NaN where none exists."""
    tyy, tyz, tzz, det, other_xx = _blocks(tensors, pol)
    with np.errstate(all="ignore"):
        # disc/4 of the reduced quadratic tzz n^2 + 2 tyz n_ty n + tyy n_ty^2 = det other_xx
        disc4 = tyz**2 * _sq(n_ty) - tzz * (tyy * _sq(n_ty) - det * other_xx)
        root = np.sqrt(np.where(disc4 > 0.0, disc4, np.nan))
        return (-tyz * n_ty + math.copysign(1.0, det) * root) / tzz


def _unit(rows):
    """Rows of an (n, 2) array divided by their lengths.

    The stacked matmul is the BLAS dot of ``np.linalg.norm`` on one row.
    """
    return rows / np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]


@dataclass(frozen=True)
class SurfaceResult:
    conic: ConicClass
    n_ty: np.ndarray     # (n,) reduced transverse components of the samples
    n_tz: np.ndarray     # (n,) their causal-branch normal components
    normal: np.ndarray   # (n, 2) unit normals of the surface at the samples


def wave_vector_surface(tensors: ResponseTensors,
                        pol: Polarization = Polarization.E,
                        n_samples: int = 200) -> SurfaceResult:
    """Sample the causal branch of the wave-vector surface at fixed omega.

    Samples are reduced wave vectors n = k c / omega satisfying the Fresnel
    determinant condition, with the branch chosen so the Poynting flow is
    into the medium (S_tz > 0).  Apex neighbourhoods (vertical tangents)
    are avoided so finite-difference tangents stay well conditioned.
    Returns empty columns when the surface has no real points.
    """
    tyy, tyz, tzz, det, other_xx = _blocks(tensors, pol)
    conic = conic_classification(tensors, pol)
    if conic is ConicClass.DEGENERATE:
        return SurfaceResult(conic, np.empty(0), np.empty(0), np.empty((0, 2)))
    lim = tzz * other_xx  # disc > 0 iff det * (lim - n_ty^2) > 0
    if conic is ConicClass.CIRCLE:
        n_max = math.sqrt(lim)
        grid = np.linspace(-0.95 * n_max, 0.95 * n_max, n_samples)
    elif lim > 0.0:
        apex = math.sqrt(lim)
        half = n_samples // 2
        right = np.linspace(1.05 * apex, 3.0 * apex, half)
        grid = np.concatenate([-right[::-1], right])
    else:
        # hyperbola straddling the n_ty axis: every n_ty is admissible
        scale = math.sqrt(abs(det * other_xx / tzz))
        grid = np.linspace(-2.0 * scale, 2.0 * scale, n_samples)
    n_tz = _causal_n_tz(tensors, pol, grid)
    on_branch = ~np.isnan(n_tz)
    n_ty, n_tz = grid[on_branch], n_tz[on_branch]
    with np.errstate(all="ignore"):
        grad = np.stack([tyy * n_ty + tyz * n_tz, tyz * n_ty + tzz * n_tz],
                        axis=-1) * (-2.0 / det)
        return SurfaceResult(conic, n_ty, n_tz, _unit(grad))


FD_STEP = 1e-6   # n_ty step of the central-difference surface tangent


def surface_normal_check(tensors: ResponseTensors, pol: Polarization,
                         n_ty, n_tz) -> np.ndarray:
    """|S_hat . tangent_hat| at surface samples (exactly 0 for symmetric tensors).

    The tangent is a central difference along the causal branch with step
    FD_STEP in n_ty; the Poynting direction comes from the same response
    entries.  NaN where the stencil leaves the causal branch or the flow is
    not finite.
    """
    with np.errstate(all="ignore"):
        left = _causal_n_tz(tensors, pol, n_ty - FD_STEP)
        right = _causal_n_tz(tensors, pol, n_ty + FD_STEP)
        tangent = _unit(np.stack([np.full_like(left, 2.0 * FD_STEP), right - left], axis=-1))
        flow = _unit(np.stack(_poynting(tensors, pol, n_ty, n_tz), axis=-1))
        return np.abs(flow[:, None, :] @ tangent[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# Lossy normal incidence
# ---------------------------------------------------------------------------

def _lossy_normal(config: MediumConfig, omega: np.ndarray):
    """Classification codes of E-polarized normal incidence at each omega.

    The quadratic becomes k_tz^2 = (omega/c)^2 det eps_xx / mu_zz with
    complex tensors; the root with Im(k_tz) > 0 decays into the medium.
    Phase velocity runs along Re(k_tz), so a propagating cell is
    left-handed when Re(k_tz) S_tz < 0 with S_tz > 0 into the medium.

    With absorption nothing is exactly totally reflected, so the
    propagating/TR boundary is not intrinsically defined; here a cell
    counts as propagating exactly when its lossless limit (same gamma in
    eta', absorption dropped) admits a propagating causal root.  Under
    this convention the left-handed window coincides with the lossless
    one wherever the complex-root test keeps reporting a backward phase,
    which it does for the default molecule.
    """
    lossless = response_tensors(replace(config, lossy=False), omega)
    codes = _propagation(lossless, Polarization.E, 0.0)
    # root is k_tz / k_i: every test below reads a sign, which the factor
    # k_i = omega / c > 0 leaves alone, and (omega / c)^2 overflows near 1e154 rad/s.
    # A root that overflows is TR, as _propagation treats a non-finite det * lim
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, tzz, det, eps_xx = _blocks(response_tensors(replace(config, lossy=True), omega),
                                         Polarization.E)
        root = np.sqrt(det * eps_xx / tzz)
        root = np.where((root.imag < 0.0) | ((root.imag == 0.0) & (root.real < 0.0)),
                        -root, root)
        # decaying branch; verify it actually carries energy into the medium
        s_tz = np.real(tzz * root / det)
        root = np.where((root.imag == 0.0) & (s_tz <= 0.0), -root, root)
        s_tz = np.real(tzz * root / det)
    tr = (codes == int(Classification.TR)) | (s_tz <= 0.0) | ~np.isfinite(root)
    return np.where(tr, int(Classification.TR),
                    np.where(root.real * s_tz < 0.0, int(Classification.LH),
                             int(Classification.RH)))


def lossy_lh_window(config: MediumConfig, omega_grid) -> tuple[float, float] | None:
    """(omega_low, omega_high) bounds of LH cells at theta = 0, or None."""
    omega = np.asarray(omega_grid, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega must be positive")
    lh = omega[_lossy_normal(config, omega) == int(Classification.LH)]
    if not lh.size:
        return None
    return lh.min(), lh.max()
