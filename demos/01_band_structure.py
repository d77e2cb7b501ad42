#!/usr/bin/env python3
"""Walk through the band structure of a twisted molecular ring.

The Mobius closure (a_0 = b_N, b_0 = a_N) acts like half a flux quantum
threading one of the two bands: the up band is shifted by half a momentum
step, which makes its two lowest states exactly degenerate.  That
degeneracy is what later lets a single transition carry both an electric
and a magnetic dipole.
"""

import numpy as np

from mobius_optics import bruteforce as bf
from mobius_optics.ring import BANDS, RingParams, amplitude_matrix, band_energies, label_axes

params = RingParams(12)
n = params.n_per_ring
print(f"ring: N = {params.n_per_ring} atoms per sub-ring, "
      f"V = {params.v_inter} eV, xi = {params.xi_intra} eV")
print(f"radius R = {params.radius * 1e9:.4f} nm, half-width W = "
      f"{params.half_width * 1e9:.3f} nm\n")

# the whole spectrum is one array, in the (band, l) label order of label_axes
energies = band_energies(params)
print(" l  band      E (eV)")
for band, l, energy in zip(*label_axes(n), energies):
    print(f"{l:>2}  {BANDS[band].value:<5} {energy:>10.4f}")

# the up band starts at label index n: (0, up), then (1, up)
e0, e1 = energies[n], energies[n + 1]
print(f"\nlowest up-band pair: E(0,up) = {e0:.6f} eV, E(1,up) = {e1:.6f} eV "
      f"-> degenerate: {e0 == e1}")

# The closed forms agree with a dense diagonalization to machine precision.
closed = np.sort(energies)
dense, _ = bf.numeric_eigensystem(bf.build_hamiltonian(params))
print(f"closed form vs dense eigensolver: max |dE| = {np.abs(closed - dense).max():.2e} eV")

# The twist is visible in the eigenstates: continuing the ring-B amplitude
# pattern one full turn lands exactly on the ring-A start amplitude.
# Column n of the amplitude matrix is (0, up); row 0 is the a_0 site.
a0 = amplitude_matrix(params)[0, n]
kappa = -0.5 * params.delta
continued = -np.exp(-1j * kappa * n) / np.sqrt(2 * n)
print(f"boundary twist: a_0 amplitude {a0:.6f} equals the "
      f"continued b_N amplitude {continued:.6f}")
