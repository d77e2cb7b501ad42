"""Electromagnetic response and negative refraction of Mobius molecular rings.

A small numpy library that takes a twisted double-ring tight-binding
molecule from its Hamiltonian to a full optical-medium description:

* ``ring``        band structure, eigenstates, geometry
* ``dipole``      closed-form electric and magnetic transition dipoles
* ``response``    eta(omega), permittivity/permeability tensors, bandwidth
* ``refraction``  Fresnel roots, Poynting vectors, left-handed classification
* ``bruteforce``  dense numerical reference used to validate the closed forms
* ``cli``         deterministic table output for every computation
"""

from .ring import (
    Band,
    EigenLabel,
    EigenState,
    RingParams,
    SitePosition,
    Topology,
    VolumeConvention,
)

__all__ = [
    "Band",
    "EigenLabel",
    "EigenState",
    "RingParams",
    "SitePosition",
    "Topology",
    "VolumeConvention",
]

__version__ = "0.1.0"
