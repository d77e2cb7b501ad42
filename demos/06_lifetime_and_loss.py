#!/usr/bin/env python3
"""How damping closes the negative-refraction window.

The window only exists while the oscillator strength beats the decay rate:
its width shrinks from B = sqrt(P^2 - 4 gamma^2) to zero at the critical
lifetime tau_c = 2/P.  Keeping the full complex response at normal
incidence shows the same window (endpoints shift by a few percent of B),
and an excited state shorter-lived than tau_c extinguishes it entirely.
"""

from mobius_optics.refraction import lossy_lh_window
from mobius_optics.response import MediumConfig
from mobius_optics.ring import RingParams, VolumeConvention

base = RingParams(12)
for conv in (VolumeConvention.CYLINDER_4W, VolumeConvention.CYLINDER_2W):
    res = MediumConfig(RingParams(12, volume_convention=conv)).resonance
    print(f"{conv.value:<12}: B = {res.bandwidth:.4e} rad/s, "
          f"tau_c = {res.critical_lifetime * 1e9:.4f} ns")
print()

res = MediumConfig(base).resonance
delta0, zeros, tau_c = res.delta0, res.mu1_zeros, res.critical_lifetime
grid = res.sweep(2, 1500)   # Delta_0 +- 2 bandwidths

print("lifetime sweep (normal incidence, complex response kept):")
print("  tau/tau_c   B_lossless (rad/s)   left-handed window (detunings, rad/s)")
for factor in (8.0, 2.0, 1.2, 0.8, 0.4):
    tau = factor * tau_c
    cfg_t = MediumConfig(RingParams(12, decay_rate=1.0 / tau))
    win = lossy_lh_window(cfg_t, grid)
    bw_t = cfg_t.resonance.bandwidth
    if win is None:
        desc = "closed"
    else:
        desc = f"{win[0] - delta0:+.3e} .. {win[1] - delta0:+.3e}"
    print(f"  {factor:>8.1f}   {bw_t:>16.4e}   {desc}")

print(f"\ndefault lifetime 4 ns (about {4e-9 / tau_c:.1f} tau_c): window "
      f"{zeros[0]:+.3e} .. {zeros[1]:+.3e} rad/s survives the loss;")
print("anything below one tau_c is overdamped and the window is gone.")
