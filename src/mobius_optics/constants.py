"""Physical constants and unit conversions used throughout the package.

All model parameters are stored in "bench" units at the API boundary
(energies in eV, lengths in nm or m, lifetimes in ns) and converted to SI
here, in one place.  2019-SI exact values where available; vacuum
permeability is derived from (epsilon_0, c) so that mu_0 * epsilon_0 * c**2
is exactly 1 in every identity the refraction algebra relies on.
"""

import math

# 2019 SI exact definitions
E_CHARGE = 1.602176634e-19        # elementary charge, C
H_PLANCK = 6.62607015e-34         # Planck constant, J s
C_LIGHT = 299792458.0             # speed of light, m / s

HBAR = H_PLANCK / (2.0 * math.pi)  # J s

# CODATA 2018 measured value
EPSILON_0 = 8.8541878128e-12      # vacuum permittivity, F / m
MU_0 = 1.0 / (EPSILON_0 * C_LIGHT**2)  # vacuum permeability, H / m

EV = E_CHARGE                     # 1 eV in J

NM = 1e-9
NS = 1e-9


def angular_frequency_to_ev(omega):
    return omega * HBAR / EV
