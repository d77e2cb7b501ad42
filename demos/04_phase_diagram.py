#!/usr/bin/env python3
"""Classify refraction across the (incidence angle, frequency) plane.

E-polarized light refracts left-handedly (backward phase velocity) in a
band bounded by the zeros of the permeability principal value; H-polarized
light never does.  The script prints a coarse character map per
polarization (., R = right-handed, L = left-handed, T = total reflection)
and the exact cell counts on the default grid.
"""

import math

import numpy as np

from mobius_optics.refraction import Classification, Polarization, phase_diagram
from mobius_optics.response import MediumConfig
from mobius_optics.ring import RingParams

cfg = MediumConfig(RingParams(12))
res = cfg.resonance

theta = np.linspace(0.0, math.radians(89.0), 31)
omega = res.sweep(10, 61)   # Delta_0 +- 10 bandwidths

char = {int(Classification.LH): "L", int(Classification.RH): "R",
        int(Classification.TR): "T", int(Classification.MASKED): "."}

for pol in (Polarization.E, Polarization.H):
    pd = phase_diagram(cfg, pol, theta, omega)
    print(f"{pol.value}-polarized (rows: theta 0..89 deg; "
          "cols: detuning -10B..+10B):")
    for i in range(0, len(theta), 3):
        print("  " + "".join(char[int(c)] for c in pd.codes[i]))
    counts = {name: pd.count(cls) for name, cls in
              (("LH", Classification.LH), ("RH", Classification.RH),
               ("TR", Classification.TR))}
    print(f"  counts: {counts}\n")

zeros = res.mu1_zeros
print("the E-polarized left-handed band spans detunings "
      f"{zeros[0]:.3e} .. {zeros[1]:.3e} rad/s, i.e. exactly the mu1 < 0 window,")
print("at every incidence angle; past its upper edge the wave is totally reflected.")
