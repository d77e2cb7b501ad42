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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, EV, HBAR
from .ring import Band, EigenLabel, RingParams, Topology

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


def electric_selection(n: int, from_label: EigenLabel, to_label: EigenLabel) -> PolarizationSet:
    """Field polarizations driving the electric transition from -> to.

    The rule set (per direction, dl = l_to - l_from reduced to (-N/2, N/2]):

        dl = 0,  band flip:        {x, y, z}
        dl = +/-1, any band pair:  {x, y}, plus z for down -> up with dl=+1
                                   and its Hermitian mirror up -> down, dl=-1
        dl = +2, down -> up:       {x, y}   (dl = -2, up -> down mirrored)
        otherwise:                 {}

    For N = 3 and N = 4 the aliased blocks are unioned, matching the summed
    closed-form elements.
    """
    allowed: set[str] = set()
    dl_mod = (to_label.momentum_index - from_label.momentum_index) % n
    fb, tb = from_label.band, to_label.band
    for dl in (0, 1, -1, 2, -2):
        if dl_mod != dl % n:
            continue
        if dl == 0:
            if fb is not tb:
                allowed |= {"x", "y", "z"}
        elif dl in (1, -1):
            allowed |= {"x", "y"}
            if (dl == 1 and fb is Band.DOWN and tb is Band.UP) or (
                dl == -1 and fb is Band.UP and tb is Band.DOWN
            ):
                allowed |= {"z"}
        elif dl == 2 and fb is Band.DOWN and tb is Band.UP:
            allowed |= {"x", "y"}
        elif dl == -2 and fb is Band.UP and tb is Band.DOWN:
            allowed |= {"x", "y"}
    return frozenset(allowed)


def magnetic_selection(n: int, from_label: EigenLabel, to_label: EigenLabel) -> PolarizationSet:
    """Field polarizations driving the magnetic transition from -> to.

    Only the inter-band rules are defined; intra-band elements exist for
    dl in {0, +/-1, +/-2} but fall out of the single-resonance response and
    are excluded from the predicate:

        dl = 0:                  {x, y, z}
        dl = +1, down -> up:     {x, y, z}    (mirror: dl=-1, up -> down)
        dl = +1, up -> down:     {x, y}       (mirror: dl=-1, down -> up)
        dl = +2, down -> up:     {x, y}       (mirror: dl=-2, up -> down)
        dl = +2, up -> down:     {}           (that block entry vanishes)
    """
    if from_label.band is to_label.band:
        return frozenset()
    allowed: set[str] = set()
    dl_mod = (to_label.momentum_index - from_label.momentum_index) % n
    down_up = from_label.band is Band.DOWN
    for dl in (0, 1, -1, 2, -2):
        if dl_mod != dl % n:
            continue
        if dl == 0:
            allowed |= {"x", "y", "z"}
        elif dl == 1:
            allowed |= {"x", "y", "z"} if down_up else {"x", "y"}
        elif dl == -1:
            allowed |= {"x", "y"} if down_up else {"x", "y", "z"}
        elif dl == 2 and down_up:
            allowed |= {"x", "y"}
        elif dl == -2 and not down_up:
            allowed |= {"x", "y"}
    return frozenset(allowed)


def _table(params: RingParams, kind: DipoleKind) -> np.ndarray:
    n = params.n_per_ring
    rows = _rows(params, kind, np.arange(n))
    # [l_to, l_from, s_to, s_from] with bands (up, down) -> all_labels order
    # (down band first): [s_to * N + l_to, s_from * N + l_from]
    return rows[:, :, ::-1, ::-1].transpose(2, 0, 3, 1, 4).reshape(2 * n, 2 * n, 3)


def electric_table(params: RingParams) -> np.ndarray:
    """(2N, 2N, 3) closed-form table, [a, b, c] = <a| d_c |b> over all_labels."""
    return _table(params, DipoleKind.ELECTRIC)


def magnetic_table(params: RingParams) -> np.ndarray:
    """(2N, 2N, 3) closed-form table, [a, b, c] = <a| m_c |b> over all_labels."""
    return _table(params, DipoleKind.MAGNETIC)
