"""Closed-form electric and magnetic transition dipoles of the Mobius ring.

Matrix elements between band eigenstates come in momentum-transfer blocks
dl = l_ket - l_bra in {0, +/-1, +/-2}; every other momentum transfer is
forbidden by the ring geometry.  Each block is a 2x2 matrix over the band
pair (up, down) of 3-vectors, evaluated at the bra momentum k = l_bra *
delta.  One row builder, ``_rows``, evaluates them for an array of bra
momenta and scatters them to the ket columns (l_bra + dl) mod N; it feeds
the tables, the single elements and the ground row of the Kubo sums.  For
small rings the blocks alias in that scatter (dl = +2 and -2 coincide for
N = 4, +/-2 with -/+1 for N = 3) and the aliased contributions add.

Conventions frozen against the brute-force construction in ``bruteforce``
(site-diagonal position operator, m = -i e r x [H, r] / 2 hbar, equal to the
bond-current form):

* electric blocks are used exactly as derived, overall charge -e included;
* the magnetic blocks carry an overall prefactor +e/hbar; relative to a
  normalisation of -(e/2 hbar) per block this is a global factor of -2,
  pinned by the numeric tables (machine precision for N in 3..24).  The
  factor is squared in the response dyads, where the single-resonance
  permeability tensor requires it to reproduce the full magnetization sum;
* the z component of the dl=+1 (up -> down) magnetic entry is identically
  zero; the numeric tables confirm this, as does Hermiticity against the
  dl=-1 (down -> up) entry.

Element direction: ``element(from, to).vector[c] = <to| O_c |from>``, so
Hermiticity reads element(to, from) = conj(element(from, to)).

The selection rules are one table, ``_RULES``, over (kind, dl, from band,
to band); ``selection_table(n)`` folds it to dl mod N as component masks,
read by the two predicates, the ``elements`` command and validate.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, EV, HBAR
from .ring import BANDS, Band, EigenLabel, RingParams, Topology, label_axes

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])

# Pauli matrices over the band pair, row/col ordered (up, down)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SP = np.array([[0, 1], [0, 0]], dtype=complex)   # raising: up row, down col
_SM = np.array([[0, 0], [1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

_BAND_ROW = {Band.UP: 0, Band.DOWN: 1}
_LABEL_ROW = np.array([_BAND_ROW[b] for b in BANDS])   # block row of each band of label_axes

PolarizationSet = frozenset  # subset of {"x", "y", "z"}; empty means forbidden


class DipoleKind(enum.Enum):
    ELECTRIC = "electric"
    MAGNETIC = "magnetic"


@dataclass(frozen=True)
class TransitionElement:
    from_label: EigenLabel
    to_label: EigenLabel
    kind: DipoleKind
    vector: np.ndarray  # (3,) complex; C m for electric, A m^2 for magnetic


def _require_mobius(params: RingParams):
    if params.topology is not Topology.MOBIUS:
        raise ValueError("closed-form dipole tables exist only for the Mobius topology")


def _electric_block(dl: int, r: float, w: float) -> np.ndarray:
    """(2, 2, 3) block <k,s| d |k + dl*delta, s'>, the same at every k."""
    if dl == 0:
        return -E_CHARGE * w / 4.0 * ((_EY + 2.0 * _EZ) * _SX[..., None] - _EX * _SY[..., None])
    s_pm = _SM if dl > 0 else _SP
    if dl in (1, -1):
        exy = _EX - 1j * _EY if dl == 1 else _EX + 1j * _EY
        return -E_CHARGE / 4.0 * (
            exy * (2.0 * r * _I2 + w * _SY)[..., None] + 2.0 * w * _EZ * s_pm[..., None]
        )
    v = -1j * _EX - _EY if dl == 2 else 1j * _EX - _EY
    return -E_CHARGE * w / 4.0 * v * s_pm[..., None]


def _magnetic_block(k: np.ndarray, dl: int, v: float, xi: float, r: float, w: float, delta: float) -> np.ndarray:
    """(m, 2, 2, 3) blocks <k,s| m |k + dl*delta, s'> in A m^2 at m momenta k (v, xi in joules)."""
    c, s = np.cos, np.sin
    d = delta
    k = k[:, None]   # trailing axis: every expression broadcasts against _EX, _EY, _EZ
    out = np.zeros((k.shape[0], 2, 2, 3), dtype=complex)
    pre = E_CHARGE / HBAR
    if dl == 0:
        out[:, 0, 0] = -pre * xi / 8.0 * (
            2.0 * w**2 * (c(k - d) - c(k)) * _EY
            + (
                w**2 * (c(k) - c(k - 2 * d) - c(k - d) + c(k + d))
                + 4.0 * r**2 * (c(k + d / 2) - c(k - 1.5 * d))
            ) * _EZ
        )
        inter = v + xi * (c(k - d) - c(k + d / 2))
        zpart = 2j * xi * c(d / 4) * (c(k - 1.25 * d) - c(k + 0.75 * d))
        out[:, 0, 1] = pre * r * w / 4.0 * (-inter * (_EX - 1j * _EY) - zpart * _EZ)
        out[:, 1, 0] = pre * r * w / 4.0 * (-inter * (_EX + 1j * _EY) + zpart * _EZ)
        out[:, 1, 1] = -pre * xi / 2.0 * s(k) * (
            w**2 * s(d / 2) * _EY - (2.0 * r**2 + w**2 * c(d / 2)) * s(d) * _EZ
        )
    elif dl == 1:
        amp = w**2 * xi / 8.0
        out[:, 0, 0] = pre * amp * (c(k - d) - c(k + d)) * (1j * _EX + _EY - _EZ)
        # the z component of this entry vanishes identically (Hermitian partner
        # of the dl=-1 down->up entry); confirmed by the numeric tables
        out[:, 0, 1] = -pre * r * w / 4.0 * (v + xi * (c(k) - c(k + d / 2))) * (_EX - 1j * _EY)
        out[:, 1, 0] = pre * r * w / 4.0 * (
            (v + xi * (c(k + d) - c(k - d / 2))) * (_EX - 1j * _EY)
            - 1j * xi * (c(k - d) - c(k + d) - c(k + 1.5 * d) + c(k - d / 2)) * _EZ
        )
        out[:, 1, 1] = pre * amp * (c(k - d / 2) - c(k + 1.5 * d)) * (1j * _EX + _EY - _EZ)
    elif dl == -1:
        amp = w**2 * xi / 8.0
        out[:, 0, 0] = -pre * amp * (c(k - 2 * d) - c(k)) * (1j * _EX - _EY + _EZ)
        out[:, 0, 1] = pre * r * w / 4.0 * (
            (v + xi * (c(k) - c(k - 1.5 * d))) * (_EX + 1j * _EY)
            + 1j * xi * (c(k - 1.5 * d) + c(k - 2 * d) - c(k) - c(k + d / 2)) * _EZ
        )
        out[:, 1, 0] = -pre * r * w / 4.0 * (v + xi * (c(k - d) - c(k - d / 2))) * (_EX + 1j * _EY)
        out[:, 1, 1] = pre * amp * (c(k - 1.5 * d) - c(k + d / 2)) * (-1j * _EX + _EY - _EZ)
    elif dl == 2:
        amp = 1j * w**2 * xi / 8.0
        out[:, 0, 0] = pre * amp * (c(k) - c(k + d)) * (_EX - 1j * _EY)
        out[:, 1, 0] = pre * r * w / 4.0 * (v + xi * (c(k + d) - c(k + d / 2))) * (_EX - 1j * _EY)
        out[:, 1, 1] = pre * amp * (c(k + d / 2) - c(k + 1.5 * d)) * (_EX - 1j * _EY)
    elif dl == -2:
        amp = 1j * w**2 * xi / 8.0
        out[:, 0, 0] = -pre * amp * (c(k - 2 * d) - c(k - d)) * (_EX + 1j * _EY)
        out[:, 0, 1] = pre * r * w / 4.0 * (v + xi * (c(k - d) - c(k - 1.5 * d))) * (_EX + 1j * _EY)
        out[:, 1, 1] = -pre * amp * (c(k - 1.5 * d) - c(k - d / 2)) * (_EX + 1j * _EY)
    return out


def _rows(params: RingParams, kind: DipoleKind, l_to) -> np.ndarray:
    """(m, N, 2, 2, 3) element rows of the m bra momenta l_to.

    [i, l_from, s_to, s_from] = <l_to[i], s_to| O |l_from, s_from>, bands
    ordered (up, down).  Block dl lands in ket column (l_to + dl) % N, and
    blocks that alias onto the same column (N = 3, 4) add there.
    """
    _require_mobius(params)
    n = params.n_per_ring
    l_to = np.asarray(l_to)
    k = l_to * params.delta
    out = np.zeros((l_to.size, n, 2, 2, 3), dtype=complex)
    bra = np.arange(l_to.size)
    for dl in (0, 1, -1, 2, -2):
        if kind is DipoleKind.ELECTRIC:
            block = _electric_block(dl, params.radius, params.half_width)
        else:
            block = _magnetic_block(
                k, dl, params.v_inter * EV, params.xi_intra * EV,
                params.radius, params.half_width, params.delta,
            )
        out[bra, (l_to + dl) % n] += block
    return out


def _element(params: RingParams, from_label: EigenLabel, to_label: EigenLabel, kind: DipoleKind) -> np.ndarray:
    n = params.n_per_ring
    row = _rows(params, kind, [to_label.momentum_index % n])[0]
    return row[from_label.momentum_index % n, _BAND_ROW[to_label.band], _BAND_ROW[from_label.band]]


def electric_element(params: RingParams, from_label: EigenLabel, to_label: EigenLabel) -> TransitionElement:
    """Electric dipole element <to| -e r |from> in C m (zero vector if forbidden)."""
    return TransitionElement(
        from_label, to_label, DipoleKind.ELECTRIC,
        _element(params, from_label, to_label, DipoleKind.ELECTRIC),
    )


def magnetic_element(params: RingParams, from_label: EigenLabel, to_label: EigenLabel) -> TransitionElement:
    """Magnetic dipole element <to| m |from> in A m^2 (zero vector if forbidden)."""
    return TransitionElement(
        from_label, to_label, DipoleKind.MAGNETIC,
        _element(params, from_label, to_label, DipoleKind.MAGNETIC),
    )


# (kind, dl = l_to - l_from, from band, to band) -> allowed field components;
# every pair not listed is forbidden.  Each dl != 0 entry sits next to its
# Hermitian mirror; dl = +2 couples only down -> up, as the up -> down entry
# of that block vanishes.  The magnetic entries are the electric inter-band
# ones: the intra-band magnetic elements fall out of the single-resonance
# response and are left out.
_E, _M, _D, _U = DipoleKind.ELECTRIC, DipoleKind.MAGNETIC, Band.DOWN, Band.UP
_RULES = {
    (_E, 0, _D, _U): "xyz", (_E, 0, _U, _D): "xyz",     # band flip
    (_E, 1, _D, _D): "xy", (_E, -1, _D, _D): "xy",      # intra-band hops
    (_E, 1, _U, _U): "xy", (_E, -1, _U, _U): "xy",
    (_E, 1, _D, _U): "xyz", (_E, -1, _U, _D): "xyz",
    (_E, 1, _U, _D): "xy", (_E, -1, _D, _U): "xy",
    (_E, 2, _D, _U): "xy", (_E, -2, _U, _D): "xy",
    (_M, 0, _D, _U): "xyz", (_M, 0, _U, _D): "xyz",
    (_M, 1, _D, _U): "xyz", (_M, -1, _U, _D): "xyz",
    (_M, 1, _U, _D): "xy", (_M, -1, _D, _U): "xy",
    (_M, 2, _D, _U): "xy", (_M, -2, _U, _D): "xy",
}
KINDS = tuple(DipoleKind)           # kind axis of selection_table
COMPONENT_BITS = np.array([1, 2, 4])   # mask bit of x, y, z
COMPONENTS = np.array(["", "x", "y", "xy", "z", "xz", "yz", "xyz"])   # string of each mask


@functools.lru_cache(maxsize=64)
def selection_table(n: int) -> np.ndarray:
    """Read-only (kind, from band, to band, dl mod N) masks of the allowed components.

    Axes follow ``KINDS`` and ``BANDS``; entries whose dl alias (N = 3, 4)
    are joined, matching the summed closed-form elements.
    """
    table = np.zeros((len(KINDS), 2, 2, n), dtype=np.uint8)
    for (kind, dl, fb, tb), comps in _RULES.items():
        mask = COMPONENTS.tolist().index(comps)
        table[KINDS.index(kind), BANDS.index(fb), BANDS.index(tb), dl % n] |= mask
    table.flags.writeable = False
    return table


def _selection(kind: DipoleKind, n: int, from_label: EigenLabel, to_label: EigenLabel):
    return PolarizationSet(COMPONENTS[selection_table(n)[
        KINDS.index(kind), BANDS.index(from_label.band), BANDS.index(to_label.band),
        (to_label.momentum_index - from_label.momentum_index) % n]])


def electric_selection(n: int, from_label: EigenLabel, to_label: EigenLabel) -> PolarizationSet:
    """Field polarizations driving the electric transition from -> to (see ``_RULES``)."""
    return _selection(DipoleKind.ELECTRIC, n, from_label, to_label)


def magnetic_selection(n: int, from_label: EigenLabel, to_label: EigenLabel) -> PolarizationSet:
    """Field polarizations driving the inter-band magnetic transition from -> to."""
    return _selection(DipoleKind.MAGNETIC, n, from_label, to_label)


def _table(params: RingParams, kind: DipoleKind) -> np.ndarray:
    band, ell = label_axes(params.n_per_ring)
    row = _LABEL_ROW[band]
    rows = _rows(params, kind, np.arange(params.n_per_ring))
    # [l_to, l_from, s_to, s_from] -> [a, b] = <a| O |b> over the labels
    return rows[ell[:, None], ell, row[:, None], row]


def electric_table(params: RingParams) -> np.ndarray:
    """(2N, 2N, 3) closed-form table, [a, b, c] = <a| d_c |b> over the labels."""
    return _table(params, DipoleKind.ELECTRIC)


def magnetic_table(params: RingParams) -> np.ndarray:
    """(2N, 2N, 3) closed-form table, [a, b, c] = <a| m_c |b> over the labels."""
    return _table(params, DipoleKind.MAGNETIC)
