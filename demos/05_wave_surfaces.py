#!/usr/bin/env python3
"""Wave-vector surfaces of the refracted field in three frequency regimes.

Far below the resonance the surface is a slightly inflated circle; inside
the negative-permeability window it opens into a rotated hyperbola (the
signature of backward refraction); between the window and the far
right-handed regime there are no real propagating solutions at all.  On
symmetric response tensors the energy flow is normal to the surface, which
the finite-difference check confirms on every sample at once.
"""

import numpy as np

from mobius_optics.refraction import (
    Polarization, rotated_conic_residual, surface_normal_check, wave_vector_surface,
)
from mobius_optics.response import (
    MediumConfig, mu1_zero_detunings, resonance_frequency, response_tensors,
)
from mobius_optics.ring import RingParams

cfg = MediumConfig(RingParams(12))
delta0 = resonance_frequency(cfg)
zeros = mu1_zero_detunings(cfg)

cases = [
    ("far below resonance", 0.5 * delta0),
    ("inside the mu1 < 0 window", delta0 + 0.5 * (zeros[0] + zeros[1])),
    ("just past the window", delta0 + 2.5 * zeros[1]),
    ("far above resonance", 1.5 * delta0),
]

for label, om in cases:
    t = response_tensors(cfg, om)
    surf = wave_vector_surface(t, Polarization.E, 120)
    print(f"{label}: omega = {om:.4e} rad/s, eta' = {t.eta.real:+.4e}")
    print(f"  conic: {surf.conic.value}, {len(surf.n_ty)} causal samples")
    if not surf.n_ty.size:
        print("  (no real propagating wave vectors: total reflection)\n")
        continue
    n_mag = np.hypot(surf.n_ty, surf.n_tz)
    print(f"  |n| range: {n_mag.min():.4f} .. {n_mag.max():.4f}")
    if surf.conic.value == "hyperbola":
        worst = rotated_conic_residual(t, Polarization.E, surf.n_ty, surf.n_tz).max()
        print(f"  rotated canonical-form residual: {worst:.2e}")
    ortho = surface_normal_check(t, Polarization.E, surf.n_ty, surf.n_tz).max()
    print(f"  max |S_hat . tangent_hat|: {ortho:.2e}\n")

print("the incident-side surface is always the unit circle; refraction picks")
print("the branch of these surfaces whose energy flow points into the medium.")
