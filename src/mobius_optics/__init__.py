"""Electromagnetic response and negative refraction of Mobius molecular rings.

A small numpy library that takes a twisted double-ring tight-binding
molecule from its Hamiltonian to a full optical-medium description:

* ``ring``        band structure, eigenstates, geometry
* ``dipole``      closed-form electric and magnetic transition dipoles
* ``response``    eta(omega), permittivity/permeability tensors, bandwidth
* ``refraction``  Fresnel roots, Poynting vectors, left-handed classification
* ``bruteforce``  dense numerical reference used to validate the closed forms
* ``cli``         deterministic table output for every computation
* ``validation``  cross-checks of the closed forms against ``bruteforce``

Each submodule loads on first attribute access (``mobius_optics.validation``)
or import, so a command that does not validate never loads the dense oracle.
"""

import importlib

from .ring import (
    Band,
    EigenLabel,
    EigenState,
    RingParams,
    Topology,
    VolumeConvention,
)

__all__ = [
    "Band",
    "EigenLabel",
    "EigenState",
    "RingParams",
    "Topology",
    "VolumeConvention",
]

__version__ = "0.1.0"

_SUBMODULES = ("bruteforce", "cli", "constants", "dipole", "refraction", "response",
               "ring", "validation")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
