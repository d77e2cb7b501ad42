"""Plane-wave refraction at the z = 0 interface between air and the medium.

A monochromatic wave arrives from vacuum in the y-z plane at angle theta
from the interface normal.  Two polarizations are treated: E along x
("E-polarized") and H along x ("H-polarized").  Write t for the tensor in
the double curl (mu for E, eps for H: the H case is the exact dual), x for
the transverse entry (eps_xx for E, mu_xx for H), d = t_yy t_zz - t_yz^2
(for the Mobius E case the principal value mu1) and k_i = omega/c.
The tangential wave number k_iy = k_i sin(theta) carries over into the
medium, which leaves a quadratic for k_tz,

    t_zz k_tz^2 + 2 t_yz k_iy k_tz + t_yy k_iy^2 - d k_i^2 x = 0,

whose discriminant collapses to disc = 4 k_i^2 d (lim - sin^2 theta) with
lim = t_zz x, one number per frequency.  The two real roots carry opposite
Poynting z components S_tz = +/- sqrt(disc) / 2d, so causality (S_tz > 0,
energy into the medium) selects exactly one branch: the "+" root when
d > 0 and the "-" root when d < 0.  On it the quadratic gives
k . S = (t_yy k_iy^2 + 2 t_yz k_iy k_tz + t_zz k_tz^2) / d = k_i^2 x.
Each (theta, omega) cell is therefore classified by comparing sin^2 theta
with the lim of its frequency:

    LH  sin^2 theta < lim with d > 0, or > lim with d < 0, and x < 0
        (k . S < 0: negative refraction)
    RH  the same with x >= 0 (ordinary refraction)
    TR  otherwise (total reflection), and wherever |d| < DEGENERACY_TOL (a
        degenerate quadratic), t_zz == 0 or an entry is not finite

So one float per frequency sets its whole column: the cut that sin^2 theta
is compared with, lim where d > 0 and the next float above lim where d < 0
(sin^2 theta > lim is exactly not sin^2 theta < that float), plus the codes
a cell reads below the cut and beyond it.
One kernel applies these rules: a cell is one comparison of floats, its
sin^2 theta against the cut of its frequency.  Rows that no cut separates
are equal, and cuts split the rows only where lim lies inside [0, 1], a
narrow band of frequencies, so each distinct row is built once and the grid
gathered from them, unless more than half the rows are distinct (then every
row is built, which keeps the scratch under half the grid).  ``phase_diagram``
runs the kernel over a grid, ``classify`` on one cell and
``lossy_lh_window``, the lossy normal-incidence path, on the lossless limit
of each frequency, whose propagating cells it splits into LH and RH by the
lossy negative-phase-velocity condition.  On a propagating cell
``classify`` also reports the causal k_tz, from the solver of the
wave-vector surfaces (``_causal_n_tz``), and its Poynting direction
(``_poynting``).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT
from .response import MediumConfig, ResponseTensors, response_tensors

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


@dataclass(frozen=True)
class IncidentWave:
    polarization: Polarization
    theta: float   # radians, in [0, pi/2)
    omega: float   # rad/s

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi / 2.0:
            raise ValueError("theta must lie in [0, pi/2)")
        _frequencies(self.omega)

    @property
    def k_i(self) -> float:
        return self.omega / C_LIGHT

    @property
    def k_iy(self) -> float:
        return self.k_i * math.sin(self.theta)


@dataclass(frozen=True)
class RefractionResult:
    wave: IncidentWave
    k_tz: float | None           # causal-branch k_tz, rad/m; None if totally reflected
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
    # a d that overflows or is not a number is classified TR by _boundary
    with np.errstate(over="ignore", invalid="ignore"):
        det = tyy * tzz - tyz * tyz
    return tyy, tyz, tzz, det, other_xx


def _boundary(tensors: ResponseTensors, pol: Polarization, masked):
    """Per-frequency float cut and the int8 codes a cell reads on each side.

    A cell reads ``below`` where sin^2 theta < cut and ``beyond`` elsewhere.
    A propagating cell is LH where x < 0 and RH otherwise, and TR where
    |d| < DEGENERACY_TOL, t_zz == 0 or d * lim is not finite.  Where d > 0
    the cut is lim and the cells below it propagate; where d < 0 it is the
    next float above lim and the cells beyond it propagate.  A masked column
    has cut +inf and reads MASKED below it.  Each has the tensors' frequency
    shape.
    """
    _, _, tzz, det, other_xx = _blocks(tensors, pol)
    with np.errstate(invalid="ignore", over="ignore"):
        lim = tzz * other_xx
        valid = (np.abs(det) >= DEGENERACY_TOL) & (tzz != 0.0) & np.isfinite(det * lim)
    code = np.where(other_xx < 0.0, np.int8(Classification.LH),
                    np.int8(Classification.RH)) * valid
    masked = np.broadcast_to(masked, lim.shape)
    code = np.where(masked, np.int8(Classification.MASKED), code)
    beyond = (det < 0.0) & ~masked
    cut = np.where(masked, np.inf, np.where(beyond, np.nextafter(lim, np.inf), lim))
    return cut, np.where(beyond, np.int8(0), code), np.where(beyond, code, np.int8(0))


def _propagation(tensors: ResponseTensors, pol: Polarization, sin2_theta, masked=False):
    """int8 Classification codes (LH, RH or TR); see the module docstring.

    ``sin2_theta`` is a scalar or an (n, 1) column against the tensors'
    frequency axis, and the codes have the broadcast shape.  Frequencies
    where ``masked`` is true read MASKED.  Each cell applies the cut of its
    frequency from ``_boundary``.  Rows that no cut separates are equal: one
    row is built per distinct level (the count of cuts at or below its
    sin^2 theta) and the grid is one row gather, unless there is one row or
    more than half are distinct, when all are built.  A row is three int8
    passes: sin^2 theta < cut, times below - beyond, plus beyond.
    """
    cut, below, beyond = _boundary(tensors, pol, masked)
    sin2 = np.asarray(sin2_theta, dtype=float)
    shape = np.broadcast_shapes(sin2.shape, cut.shape)
    sin2, cut, below, beyond = sin2.ravel(), cut.ravel(), below.ravel(), beyond.ravel()
    first, row = slice(None), None   # one row or most rows distinct: build them all
    if sin2.size > 1:   # rows no cut separates are equal
        level = np.sort(cut).searchsorted(sin2, "right")
        _, index, inverse = np.unique(level, return_index=True, return_inverse=True)
        if 2 * index.size <= sin2.size:
            first, row = index, inverse
    codes = np.empty((sin2[first].size, cut.size), np.int8)
    np.less(sin2[first, None], cut, out=codes.view(bool))
    codes *= below - beyond
    codes += beyond
    return (codes if row is None else codes.take(row, axis=0)).reshape(shape)


def _poynting(tensors, pol, k_iy, k_tz):
    """(S_ty, S_tz) up to the positive prefactor amplitude^2 t^2 / (2 omega mu0|eps0)."""
    tyy, tyz, tzz, det, _ = _blocks(tensors, pol)
    return (tyz * k_tz + tyy * k_iy) / det, (tyz * k_iy + tzz * k_tz) / det


def classify(tensors: ResponseTensors, wave: IncidentWave) -> RefractionResult:
    """Classify one incident (polarization, theta, omega) cell (lossless tensors).

    The class is the kernel's (see the module docstring).  A propagating
    cell also gets its causal-branch k_tz, the one that carries energy into
    the medium (S_tz > 0), and that branch's Poynting direction.
    """
    pol = wave.polarization
    cls = Classification(int(_propagation(tensors, pol, np.sin(wave.theta) ** 2)))
    if cls is Classification.TR:
        return RefractionResult(wave, None, None, cls)
    k_tz = wave.k_i * float(_causal_n_tz(tensors, pol, math.sin(wave.theta), edge=0.0))
    s_ty, s_tz = _poynting(tensors, pol, wave.k_iy, k_tz)
    return RefractionResult(wave, k_tz, (float(s_ty), float(s_tz)), cls)


# ---------------------------------------------------------------------------
# Phase diagram over a (theta, omega) grid
# ---------------------------------------------------------------------------

def _frequencies(omega_grid) -> np.ndarray:
    """The frequencies as a float array; each must be positive and finite."""
    omega = np.asarray(omega_grid, dtype=float)
    if not np.all((omega > 0.0) & (omega < math.inf)):
        raise ValueError("omega must be positive and finite")
    return omega


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
    positive and finite: at omega = 0 the quadratic degenerates for every
    theta.

    Emits a warning when the omega spacing is too coarse to resolve the
    mu1 < 0 window (target: bandwidth / 50), if that window overlaps the
    grid at all.
    """
    theta = np.asarray(theta_grid, dtype=float)
    omega = _frequencies(omega_grid)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if np.any(np.diff(theta) <= 0) or (omega.size > 1 and np.any(np.diff(omega) <= 0)):
        raise ValueError("theta and omega grids must be strictly increasing")
    lossless = replace(config, lossy=False)
    res = lossless.resonance
    if res.window is not None and omega.size > 1:
        spacing, bw = np.diff(omega).max(), res.bandwidth
        if spacing > bw / 2.0 and omega[0] < res.window[2] and omega[-1] > res.window[0]:
            warnings.warn(
                f"omega grid spacing {spacing:.3e} rad/s cannot resolve the "
                f"negative-permeability window (width {bw:.3e}); a spacing "
                f"of bandwidth/50 = {bw / 50.0:.3e} is recommended",
                stacklevel=2,
            )
    tensors = response_tensors(lossless, omega)
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


def _causal_n_tz(tensors, pol, n_ty, edge=np.nan):
    """Causal-branch n_tz at reduced transverse components n_ty.

    Where the discriminant is not positive there is no causal root and the
    square root reads ``edge``: NaN by default, or 0.0 (the double root) for
    a cell the kernel has found propagating, since within an ulp or so of
    lim rounding alone can give such a cell a discriminant <= 0.
    """
    tyy, tyz, tzz, det, other_xx = _blocks(tensors, pol)
    with np.errstate(all="ignore"):
        # disc/4 of the reduced quadratic tzz n^2 + 2 tyz n_ty n + tyy n_ty^2 = det other_xx
        disc4 = tyz**2 * _sq(n_ty) - tzz * (tyy * _sq(n_ty) - det * other_xx)
        root = np.sqrt(np.where(disc4 > 0.0, disc4, edge))
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


FD_STEP = 6e-6   # relative n_ty step of the central-difference surface tangent, ~eps^(1/3)


def surface_normal_check(tensors: ResponseTensors, pol: Polarization,
                         n_ty, n_tz) -> np.ndarray:
    """|S_hat . tangent_hat| at surface samples (exactly 0 for symmetric tensors).

    The tangent is a central difference along the causal branch with step
    FD_STEP max(1, |n_ty|) in n_ty, relative where the samples are large; the
    Poynting direction comes from the same response entries.  NaN where the
    stencil leaves the causal branch or the flow is not finite.
    """
    with np.errstate(all="ignore"):
        step = FD_STEP * np.maximum(1.0, np.abs(n_ty))
        left = _causal_n_tz(tensors, pol, n_ty - step)
        right = _causal_n_tz(tensors, pol, n_ty + step)
        tangent = _unit(np.stack([2.0 * step, right - left], axis=-1))
        flow = _unit(np.stack(_poynting(tensors, pol, n_ty, n_tz), axis=-1))
        return np.abs(flow[:, None, :] @ tangent[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# Lossy normal incidence
# ---------------------------------------------------------------------------

def _lossy_normal(config: MediumConfig, omega: np.ndarray):
    """Classification codes of E-polarized normal incidence at each omega.

    With absorption nothing is exactly totally reflected, so the
    propagating/TR boundary is not intrinsically defined; here a cell
    counts as propagating exactly when its lossless limit (same gamma in
    eta', absorption dropped) does at theta = 0.  The wave sees the lossy
    eps = eps_xx and mu = d / mu_zz, and a passive medium has negative
    phase velocity exactly when Re(eps)|mu| + Re(mu)|eps| < 0 (Depine and
    Lakhtakia, Microw. Opt. Technol. Lett. 41, 315, 2004).  A propagating
    cell is LH where that sum is negative, RH otherwise, and TR where it is
    not finite, as ``_propagation`` treats a non-finite d * lim.
    """
    lossless = response_tensors(replace(config, lossy=False), omega)
    codes = _propagation(lossless, Polarization.E, 0.0)
    lossy = response_tensors(replace(config, lossy=True), omega)
    _, _, tzz, det, eps = _blocks(lossy, Polarization.E)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = det / tzz
        npv = eps.real * np.abs(mu) + mu.real * np.abs(eps)
    tr = (codes == int(Classification.TR)) | ~np.isfinite(npv)
    return np.where(tr, int(Classification.TR),
                    np.where(npv < 0.0, int(Classification.LH), int(Classification.RH)))


def lossy_lh_window(config: MediumConfig, omega_grid) -> tuple[float, float] | None:
    """(omega_low, omega_high) bounds of LH cells at theta = 0, or None."""
    omega = _frequencies(omega_grid)
    lh = omega[_lossy_normal(config, omega) == int(Classification.LH)]
    if not lh.size:
        return None
    return lh.min(), lh.max()
