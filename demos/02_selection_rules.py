#!/usr/bin/env python3
"""Transition dipoles out of the ground state and their selection rules.

A planar ring never couples to the magnetic field (its magnetic moment
commutes with the Hamiltonian), and a periodic double ring couples
electrically and magnetically at different frequencies.  The twisted ring
is the interesting case: the band-flip transition at the same momentum is
allowed both electrically and magnetically, the prerequisite for
simultaneously negative permittivity and permeability.
"""

import numpy as np

from mobius_optics import bruteforce as bf
from mobius_optics.constants import E_CHARGE, EV, HBAR
from mobius_optics.dipole import (
    COMPONENTS, KINDS, DipoleKind, electric_table, magnetic_table, selection_table,
)
from mobius_optics.ring import BANDS, Band, RingParams, Topology, band_energies, label_axes

params = RingParams(12)
n = params.n_per_ring
e_scale = E_CHARGE * params.half_width                                   # e W
m_scale = E_CHARGE * params.xi_intra * EV * params.radius * params.half_width / HBAR  # e xi R W / hbar

# Every array runs over the 2N labels of label_axes; label 0 is the ground
# state (0, down), and column 0 of a table, [a, 0] = <a| O |ground>, holds
# the transitions out of it.
band, ell = label_axes(n)
energies = band_energies(params)
d_col = electric_table(params)[:, 0]
m_col = magnetic_table(params)[:, 0]
# allowed components of each transition out of the ground state's band, down
masks = selection_table(n)[:, BANDS.index(Band.DOWN), band, ell % n]
rules_e, rules_m = (COMPONENTS[masks[KINDS.index(kind)]]
                    for kind in (DipoleKind.ELECTRIC, DipoleKind.MAGNETIC))

print("transitions out of the ground state (0, down):")
print(" to      dE (eV)   electric |d|/eW  rule    magnetic |m|/(e xi R W/hbar)  rule")
for a in range(1, 2 * n):
    d, m = d_col[a], m_col[a]
    if np.abs(d).max() < 1e-13 * e_scale and np.abs(m).max() < 1e-13 * m_scale:
        continue
    de = energies[a] - energies[0]
    rule_e, rule_m = rules_e[a] or "-", rules_m[a] or "-"
    print(f"({ell[a]:>2},{BANDS[band[a]].value:<4})  {de:7.4f}   "
          f"{np.linalg.norm(d) / e_scale:>12.4f}   {rule_e:<5} "
          f"{np.linalg.norm(m) / m_scale:>18.4f}        {rule_m}")

print("""
Every line listed carries a magnetic dipole.  The band-flip lines carry both
dipoles: (0,up) and (1,up) are the degenerate resonance pair, and (2,up) and
(11,up) are a second degenerate pair.  (1,down) and (11,down) carry both too;
their magnetic rule "-" means the selection rules leave intra-band magnetic
elements out of the single-resonance response, not that they vanish.  (2,down)
and (10,down) are magnetic-only.  Grouped by energy level, three transitions
carry both dipoles.
""")

# Contrast with the untwisted topologies, checked numerically.
single = bf.perfect_ring_regression(
    bf.DenseRing(RingParams(12, topology=Topology.SINGLE_RING)))
print(f"planar ring:     |[m_z, H]| = {single.commutator_norm:.1e} (natural units), "
      f"largest magnetic transition {single.max_offdiag_magnetic:.1e}")
annulene = bf.shared_transition_scan(
    bf.DenseRing(RingParams(12, topology=Topology.DOUBLE_RING_PERIODIC)))
print(f"periodic double ring: {annulene.n_shared} transitions carry both dipoles")
mobius = bf.shared_transition_scan(bf.DenseRing(params))
print(f"Mobius ring:          {mobius.n_shared} transition(s) carry both dipoles")
