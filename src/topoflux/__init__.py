"""Pulse-level simulator of quantum information transfer between a
Majorana-based topological qubit and a superconducting flux qubit."""

from .config import Scenario, load_config, resolve
from .device import DeviceParams, DerivedCouplings, ValidityReport
from .dynamics import NoiseParams, PulseSegment, Trajectory, evolve
from .hilbert import HilbertSpec

__all__ = [
    "DeviceParams",
    "DerivedCouplings",
    "HilbertSpec",
    "NoiseParams",
    "PulseSegment",
    "Scenario",
    "Trajectory",
    "ValidityReport",
    "evolve",
    "load_config",
    "resolve",
    "__version__",
]

__version__ = "0.1.0"
