#!/usr/bin/env python3
"""Sweep the permittivity and permeability through the lowest inter-band line.

Near that resonance the medium reduces to one complex response function
eta(omega); the permittivity principal value 1 - 5 eta' and the much weaker
permeability principal value 1 - (alpha^2 + 4 beta^2) eta' both turn
negative just above the line.  The magnetic window is narrow: its width is
the negative-refraction bandwidth.
"""

import numpy as np

from mobius_optics.constants import HBAR, EV
from mobius_optics.response import MediumConfig, response_tensors
from mobius_optics.ring import RingParams

cfg = MediumConfig(RingParams(12))
res = cfg.resonance
delta0 = res.delta0
a, b = res.alpha, res.beta
bw = res.bandwidth
zeros = res.mu1_zeros

print(f"resonance: hbar Delta_0 = {delta0 * HBAR / EV:.4f} eV "
      f"({delta0:.4e} rad/s)")
print(f"magnetic coupling: alpha = {a:.4e}, beta = {b:.4e}")
print(f"negative-permeability window: detuning {zeros[0]:.3e} .. {zeros[1]:.3e} rad/s")
print(f"bandwidth B = {bw:.4e} rad/s\n")

print("   detuning (rad/s)       eta'         eps1          mu1")
for det in np.concatenate([
        -np.logspace(15, 9, 4), [0.0],
        np.logspace(7, np.log10(5 * zeros[1]), 8)]):
    t = response_tensors(cfg, delta0 + det)
    flags = []
    if t.eps1 < 0:
        flags.append("eps1<0")
    if t.mu1 < 0:
        flags.append("mu1<0")
    print(f"{det:>+18.4e}  {t.eta.real:>+12.4e}  {t.eps1:>+12.4e}  "
          f"{t.mu1:>+12.4e}  {' '.join(flags)}")

print("\nboth principal values are negative only inside the mu1 window, a few")
print("billion rad/s wide on top of a 1.1e16 rad/s carrier.")
