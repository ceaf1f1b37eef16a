"""Closed forms beside the device pipeline: the tests' check on ``topoflux.device``.

``topoflux.device`` derives g and g' from the strong-branch slope of E(phi)
at the operating phase.  This module holds the shortcuts the paper quotes
next to that pipeline, the phase-free ratio g/g' and the slope-free
shorthand for g, and the GHz reading of an angular frequency, so the tests
can hold the pipeline's numbers against them.
"""

from __future__ import annotations

import math

from topoflux.device import TWO_PI, DeviceParams, derive_statics


def angular_to_ghz(omega: float) -> float:
    return omega / TWO_PI


def ratio_formula(p: DeviceParams) -> float:
    """g/g' from the closed form, independent of the operating phase."""
    return (
        math.sqrt(2.0 * p.beta)
        * p.alpha
        / math.sqrt(4.0 * p.alpha**2 - 1.0)
        * (8.0 / p.ej_over_ec) ** 0.25
    )


def coupling_shorthand(p: DeviceParams, phi_c: float) -> float:
    """Approximate g as -Delta0 (zeta/sqrt(2)) cos(phi_c/2).

    Drops the 0.95 slope factor of the strong-branch law, so it runs about
    5% above the pipeline value.
    """
    _, zeta, _ = derive_statics(p)
    return -p.delta0 * zeta / math.sqrt(2.0) * math.cos(phi_c / 2.0)
