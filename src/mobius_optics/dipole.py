"""Closed-form electric and magnetic transition dipoles of the Mobius ring.

Matrix elements between band eigenstates come in momentum-transfer blocks
dl = l_ket - l_bra in {0, +/-1, +/-2}; every other momentum transfer is
forbidden by the ring geometry.  Each block is a 2x2 matrix over the band
pair (up, down) of 3-vectors, evaluated at the bra momentum k = l_bra *
delta.  The dl = 0, 1, 2 blocks are written out; each dl < 0 block is the
conjugate transpose, over the band pair, of its Hermitian partner, the |dl|
block at bra momentum k + dl*delta.  One function, ``block_entries``,
evaluates them for an array of bra momenta and lists them entry by entry
over the labels, as (from, to, vectors).  It sums them per ket-column
offset dl mod N: for small rings the blocks alias (dl = +2 and -2 coincide
for N = 4, +/-2 with -/+1 for N = 3) and the aliased contributions add
there, in the order 0, +1, -1, +2, -2.  Every other reader takes its
entries from it: the ``elements`` command and the (2N, 2N) tables with
every bra, the ground row of the Kubo sums in ``response`` with the bra
momentum 0 alone, O(N) work.

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
  zero; the numeric tables confirm this.

Table direction: ``table[a, b, c] = <a| O_c |b>`` for the transition from
label b to label a, so Hermiticity reads table[b, a] = conj(table[a, b]).

The selection rules are one table, ``_RULES``, over (kind, dl, from band,
to band) with dl >= 0, counted as l_to - l_from, the opposite sign of the
blocks' l_ket - l_bra; ``selection_table(n)`` adds each rule's Hermitian
mirror and folds them to dl mod N as component masks, read by the
``elements`` command and validate.
"""

from __future__ import annotations

import enum

import numpy as np

from .constants import E_CHARGE, EV, HBAR
from .ring import BANDS, Band, RingParams, require_mobius

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])
_EXY_M, _EXY_P = _EX - 1j * _EY, _EX + 1j * _EY
_M_XYZ = 1j * _EX + _EY - _EZ

# Pauli matrices over the band pair, row/col ordered (up, down)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SM = np.array([[0, 0], [1, 0]], dtype=complex)   # lowering: down row, up col
_I2 = np.eye(2, dtype=complex)

_ROW_BAND = np.array([1, 0])   # BANDS index of block rows (up, down)


class DipoleKind(enum.Enum):
    ELECTRIC = "electric"
    MAGNETIC = "magnetic"


def _electric_block(dl: int, r: float, w: float) -> np.ndarray:
    """(2, 2, 3) block <k,s| d |k + dl*delta, s'> for dl = 0, 1, 2, the same at every k."""
    if dl == 0:
        return -E_CHARGE * w / 4.0 * ((_EY + 2.0 * _EZ) * _SX[..., None] - _EX * _SY[..., None])
    if dl == 1:
        return -E_CHARGE / 4.0 * (
            _EXY_M * (2.0 * r * _I2 + w * _SY)[..., None] + 2.0 * w * _EZ * _SM[..., None]
        )
    return -E_CHARGE * w / 4.0 * (-1j * _EX - _EY) * _SM[..., None]


# the shifts s of every cos(k + s*delta) in a magnetic block
_SHIFTS = (-2.0, -1.5, -1.25, -1.0, -0.5, 0.0, 0.5, 0.75, 1.0, 1.5)


def _magnetic_block(c: dict, sin_k: np.ndarray, dl: int, v: float, xi: float, r: float,
                    w: float, d: float) -> np.ndarray:
    """(m, 2, 2, 3) blocks <k,s| m |k + dl*delta, s'> in A m^2 at m momenta k, dl = 0, 1, 2.

    v and xi are in joules, ``c[s]`` is the (m, 1) column cos(k + s*delta) for each s in
    `_SHIFTS` and `sin_k` the (m, 1) column sin(k); the trailing axes broadcast against _EX.
    """
    out = np.zeros((sin_k.shape[0], 2, 2, 3), dtype=complex)
    pre = E_CHARGE / HBAR
    if dl == 0:
        out[:, 0, 0] = -pre * xi / 8.0 * (
            2.0 * w**2 * (c[-1] - c[0]) * _EY
            + (
                w**2 * (c[0] - c[-2] - c[-1] + c[1])
                + 4.0 * r**2 * (c[0.5] - c[-1.5])
            ) * _EZ
        )
        inter = v + xi * (c[-1] - c[0.5])
        zpart = 2j * xi * np.cos(d / 4) * (c[-1.25] - c[0.75])
        out[:, 0, 1] = pre * r * w / 4.0 * (-inter * _EXY_M - zpart * _EZ)
        out[:, 1, 0] = pre * r * w / 4.0 * (-inter * _EXY_P + zpart * _EZ)
        out[:, 1, 1] = -pre * xi / 2.0 * sin_k * (
            w**2 * np.sin(d / 2) * _EY - (2.0 * r**2 + w**2 * np.cos(d / 2)) * np.sin(d) * _EZ
        )
    elif dl == 1:
        amp = w**2 * xi / 8.0
        out[:, 0, 0] = pre * amp * (c[-1] - c[1]) * _M_XYZ
        # the z component of this entry vanishes identically, as the numeric tables confirm
        out[:, 0, 1] = -pre * r * w / 4.0 * (v + xi * (c[0] - c[0.5])) * _EXY_M
        out[:, 1, 0] = pre * r * w / 4.0 * (
            (v + xi * (c[1] - c[-0.5])) * _EXY_M
            - 1j * xi * (c[-1] - c[1] - c[1.5] + c[-0.5]) * _EZ
        )
        out[:, 1, 1] = pre * amp * (c[-0.5] - c[1.5]) * _M_XYZ
    else:   # dl == 2
        amp = 1j * w**2 * xi / 8.0
        out[:, 0, 0] = pre * amp * (c[0] - c[1]) * _EXY_M
        out[:, 1, 0] = pre * r * w / 4.0 * (v + xi * (c[1] - c[0.5])) * _EXY_M
        out[:, 1, 1] = pre * amp * (c[0.5] - c[1.5]) * _EXY_M
    return out


_DLS = (0, 1, -1, 2, -2)   # the allowed momentum transfers, in summation order


def block_entries(params: RingParams, kind: DipoleKind, l_to) -> tuple[np.ndarray, ...]:
    """(from, to, vectors): every entry of the allowed dl blocks at the bra momenta l_to.

    from and to are (k,) label indices in ``label_axes`` order and vectors the
    (k, 3) <to| O |from>, each label pair once; the bras are the labels of
    momentum l_to in both bands, and every other element of their rows is
    exactly 0.  Blocks whose dl alias onto one ket column (N = 3, 4) are summed
    there in the order of ``_DLS``.  The label pairs depend only on N and
    l_to, not on kind.
    """
    require_mobius(params)
    n = params.n_per_ring
    l_to = np.asarray(l_to)
    k = l_to * params.delta
    offsets = list(dict.fromkeys(dl % n for dl in _DLS))
    if kind is DipoleKind.MAGNETIC:   # each cos(k + s*delta) once, for every block
        cos = np.cos(k[:, None] + np.array(_SHIFTS) * params.delta)
        c, sin_k = dict(zip(_SHIFTS, cos.T[:, :, None])), np.sin(k)[:, None]
    # [l_to, offset, s_to, s_from], bands ordered (up, down)
    blocks = np.zeros((l_to.size, len(offsets), 2, 2, 3), dtype=complex)
    for dl in _DLS:
        lo = min(dl, 0)   # the |dl| block sits at bra momentum k + lo*delta
        if kind is DipoleKind.ELECTRIC:
            block = _electric_block(abs(dl), params.radius, params.half_width)
        else:   # so its c[s] is cos(k + (s + lo)*delta)
            block = _magnetic_block(
                {s - lo: cos_s for s, cos_s in c.items()}, sin_k, abs(dl), params.v_inter * EV,
                params.xi_intra * EV, params.radius, params.half_width, params.delta,
            )
        if dl < 0:   # <k,s| O |k + dl*delta,s'> = conj <k + dl*delta,s'| O |k,s>
            block = block.swapaxes(-3, -2).conj()
        blocks[:, offsets.index(dl % n)] += block
    # label indices of each entry's ket (from) and bra (to)
    src_dst = np.empty((2, *blocks.shape[:-1]), dtype=int)
    src_dst[0] = _ROW_BAND * n + ((l_to[:, None] + offsets) % n)[..., None, None]
    src_dst[1] = _ROW_BAND[:, None] * n + l_to[:, None, None, None]
    src, dst = src_dst.reshape(2, -1)
    return src, dst, blocks.reshape(-1, 3)


# (kind, dl = l_to - l_from, from band, to band) -> allowed field components,
# dl >= 0 only: ``selection_table`` adds each rule's Hermitian mirror (kind,
# -dl, to band, from band).  Every pair in neither is forbidden.  dl = +2
# couples only down -> up, as the up -> down entry of that block vanishes.
# The magnetic entries are the electric inter-band ones: the intra-band
# magnetic elements fall out of the single-resonance response and are left out.
_E, _M, _D, _U = DipoleKind.ELECTRIC, DipoleKind.MAGNETIC, Band.DOWN, Band.UP
_RULES = {
    (_E, 0, _D, _U): "xyz",                             # band flip
    (_E, 1, _D, _D): "xy", (_E, 1, _U, _U): "xy",       # intra-band hops
    (_E, 1, _D, _U): "xyz", (_E, 1, _U, _D): "xy", (_E, 2, _D, _U): "xy",   # inter-band hops
    (_M, 0, _D, _U): "xyz", (_M, 1, _D, _U): "xyz", (_M, 1, _U, _D): "xy", (_M, 2, _D, _U): "xy",
}
KINDS = tuple(DipoleKind)           # kind axis of selection_table
COMPONENT_BITS = np.array([1, 2, 4])   # mask bit of x, y, z
COMPONENTS = np.array(["", "x", "y", "xy", "z", "xz", "yz", "xyz"])   # string of each mask


def selection_table(n: int) -> np.ndarray:
    """(kind, from band, to band, dl mod N) masks of the allowed components.

    Axes follow ``KINDS`` and ``BANDS``; entries whose dl alias (N = 3, 4)
    are joined, matching the summed closed-form elements.
    """
    table = np.zeros((len(KINDS), 2, 2, n), dtype=np.uint8)
    for (kind, dl, fb, tb), comps in _RULES.items():
        mask = COMPONENTS.tolist().index(comps)
        for dl, fb, tb in ((dl, fb, tb), (-dl, tb, fb)):   # the rule and its Hermitian mirror
            table[KINDS.index(kind), BANDS.index(fb), BANDS.index(tb), dl % n] |= mask
    return table


def _table(params: RingParams, kind: DipoleKind) -> np.ndarray:
    n = params.n_per_ring
    src, dst, vectors = block_entries(params, kind, np.arange(n))
    out = np.zeros((2 * n, 2 * n, 3), dtype=complex)
    out[dst, src] = vectors
    return out


def electric_table(params: RingParams) -> np.ndarray:
    """(2N, 2N, 3) closed-form table, [a, b, c] = <a| d_c |b> over the labels."""
    return _table(params, DipoleKind.ELECTRIC)


def magnetic_table(params: RingParams) -> np.ndarray:
    """(2N, 2N, 3) closed-form table, [a, b, c] = <a| m_c |b> over the labels."""
    return _table(params, DipoleKind.MAGNETIC)
