"""Single-electron tight-binding model of a twisted (Mobius) molecular ring.

The molecule is a double ring of 2N identical atoms: sub-ring A at sites
(j, +) and sub-ring B at sites (j, -), j = 0..N-1, with intra-ring hopping
xi and inter-ring hopping V.  The Mobius closure identifies the end of one
sub-ring with the start of the other (a_0 = b_N, b_0 = a_N), which twists
the boundary condition and splits the spectrum into two "pseudo spin" bands

    E(k, up)   = V - 2 xi cos(k - delta/2),
    E(k, down) = -V - 2 xi cos(k),           k = l * delta,  delta = 2 pi / N.

The half-step shift of the up band makes the two lowest excited states
degenerate, which is what ultimately allows the same transition to carry
both an electric and a magnetic dipole.

Closed-form eigenstates (site amplitudes over |phi_{j+}>, |phi_{j-}>):

    |k, up>   = sum_j e^{-i (k - delta/2) j} (|phi_{j+}> - |phi_{j-}>) / sqrt(2N)
    |k, down> = sum_j e^{-i k j}             (|phi_{j+}> + |phi_{j-}>) / sqrt(2N)

Label order: every array over the 2N labels (l, band) lists the down band
first, each band by l = 0..N-1, so the ground state (0, down) comes first.
Only this module states it; ``label_axes`` gives its (band, l) index
arrays, and the spectrum and eigenstates are arrays in that order.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Topology(enum.Enum):
    MOBIUS = "mobius"
    DOUBLE_RING_PERIODIC = "double_ring_periodic"
    SINGLE_RING = "single_ring"


class VolumeConvention(enum.Enum):
    """Convention for the volume occupied by one molecule in the medium.

    Both model the cell as a cylinder of radius R + W; they differ only in
    the assumed height, so the volumes differ by exactly a factor 2:

    CYLINDER_2W:  upsilon_0 = 2 pi (R + W)^2 W   (height 2W)
    CYLINDER_4W:  upsilon_0 = 4 pi (R + W)^2 W   (height 4W, the molecule's
                  full width; the default)

    The choice rescales every density-dependent quantity: the response
    prefactor by 1/upsilon_0, the critical lifetime by upsilon_0.
    """

    CYLINDER_2W = "cylinder_2w"
    CYLINDER_4W = "cylinder_4w"


class Band(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class RingParams:
    """All physical constants of one molecular ring.

    Energies in eV, lengths in meters, decay rate in 1/s.  The default
    radius follows R = N W / pi (touching atoms of radius W along the
    ring).  V > 0 and xi > 0 are required so that (l=0, down) is the
    unique ground state.
    """

    n_per_ring: int
    v_inter: float = 3.6
    xi_intra: float = 3.6
    half_width: float = 0.077e-9
    radius: float | None = None
    decay_rate: float = 1.0 / 4.0e-9
    topology: Topology = Topology.MOBIUS
    volume_convention: VolumeConvention = VolumeConvention.CYLINDER_4W

    def __post_init__(self):
        if self.n_per_ring < 3:
            raise ValueError("n_per_ring must be >= 3")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be > 0")
        if self.v_inter <= 0.0 or self.xi_intra <= 0.0:
            raise ValueError(
                "v_inter and xi_intra must be > 0 (ground state is only "
                "identified as (l=0, down) for positive resonance integrals)"
            )
        if self.decay_rate < 0.0:
            raise ValueError("decay_rate must be >= 0")
        if self.radius is None:
            object.__setattr__(
                self, "radius", self.n_per_ring * self.half_width / math.pi
            )
        if self.radius <= 0.0:
            raise ValueError("radius must be > 0")

    @property
    def delta(self) -> float:
        """Angular step between neighbouring sites, 2 pi / N."""
        return 2.0 * math.pi / self.n_per_ring


BANDS = (Band.DOWN, Band.UP)   # band axis of every label array


def label_axes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(band, l) index arrays of the 2N labels in label order; band indexes ``BANDS``."""
    return np.divmod(np.arange(2 * n), n)


def require_mobius(params: RingParams):
    """Raise ValueError unless the closed forms hold: the Mobius topology."""
    if params.topology is not Topology.MOBIUS:
        raise ValueError(
            "closed forms exist only for the Mobius topology; use the "
            "bruteforce module for other boundary conditions"
        )


def band_energies(params: RingParams) -> np.ndarray:
    """(2N,) closed-form band energies in eV, in label order."""
    return label_energies(params, *label_axes(params.n_per_ring))


def label_energies(params: RingParams, band: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Closed-form energies in eV of the labels (ell, BANDS[band]), elementwise.

    Each label's energy has the same bits as its entry in ``band_energies``.
    """
    require_mobius(params)
    up = band == BANDS.index(Band.UP)
    k = ell * params.delta - np.where(up, params.delta / 2.0, 0.0)
    return np.where(up, params.v_inter, -params.v_inter) - 2.0 * params.xi_intra * np.cos(k)


def positions_array(params: RingParams) -> np.ndarray:
    """Nuclear positions as an array, ordered like the site basis.

    Mobius: the twisted embedding

        R(j, +/-) = ((R +/- W sin(phi_j/2)) cos(phi_j),
                     (R +/- W sin(phi_j/2)) sin(phi_j),
                     +/- W cos(phi_j/2)),          phi_j = j delta.

    Double periodic ring: two parallel circles of radius R at z = +/- W.
    Single ring: one planar circle of radius R (N sites).
    """
    n = params.n_per_ring
    r, w = params.radius, params.half_width
    phi = np.arange(n) * params.delta
    if params.topology is Topology.SINGLE_RING:
        return np.column_stack(
            [r * np.cos(phi), r * np.sin(phi), np.zeros(n)]
        )
    if params.topology is Topology.MOBIUS:
        rho_a = r + w * np.sin(phi / 2.0)
        rho_b = r - w * np.sin(phi / 2.0)
        z = w * np.cos(phi / 2.0)
        ring_a = np.column_stack([rho_a * np.cos(phi), rho_a * np.sin(phi), z])
        ring_b = np.column_stack([rho_b * np.cos(phi), rho_b * np.sin(phi), -z])
    else:  # DOUBLE_RING_PERIODIC: untwisted stack
        circ = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        ring_a = np.column_stack([circ, np.full(n, w)])
        ring_b = np.column_stack([circ, np.full(n, -w)])
    return np.vstack([ring_a, ring_b])


def amplitude_matrix(params: RingParams) -> np.ndarray:
    """2N x 2N unitary matrix whose columns are the closed-form eigenstates, in label order.

    Rows run over the sites (a_0..a_{N-1}, b_0..b_{N-1}).
    """
    require_mobius(params)
    n = params.n_per_ring
    band, ell = label_axes(n)
    up = band == BANDS.index(Band.UP)
    kappa = (ell - np.where(up, 0.5, 0.0)) * params.delta
    phase = np.exp((-1j * kappa) * np.arange(n)[:, None]) * (1.0 / math.sqrt(2 * n))
    return np.concatenate([phase, np.where(up, -phase, phase)])
