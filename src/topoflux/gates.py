"""Two-qubit gates compiled from pulse areas, plus local-equivalence checks.

Gates are 4x4 unitaries on the ordered computational basis
{|down,0>, |down,1>, |up,0>, |up,1>} (topological spin major, flux quantum
minor), which coincides with the composite space at the default two-level
flux truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOPOLOGICAL = "topological"
FLUX = "flux"

UNITARITY_TOL = 1e-10
# ``LocalInvariants.close_to`` holds when G1 and G2 each differ by less than this
INVARIANT_TOL = 1e-10

# indices of the single-excitation pair exchanged by the coupling pulse
_I_DN1, _I_UP0 = 1, 2

# "magic" (Bell) basis columns; local invariants are computed in this frame
MAGIC = (
    np.array(
        [
            [1, 0, 0, 1j],
            [0, 1j, 1, 0],
            [0, 1j, -1, 0],
            [1, 0, 0, -1j],
        ],
        dtype=complex,
    )
    / np.sqrt(2.0)
)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class LocalInvariants:
    """Makhlin pair (G1, G2); equal pairs mean equal up to single-qubit rotations."""

    g1: complex
    g2: float

    def close_to(self, other: "LocalInvariants") -> bool:
        return abs(self.g1 - other.g1) < INVARIANT_TOL and abs(self.g2 - other.g2) < INVARIANT_TOL


def ideal_pulse_unitary(area: float) -> np.ndarray:
    """Closed-form unitary of a resonant coupling pulse with integral ``area``.

    The pulse conserves total excitation number: |down,0> and |up,1> idle,
    while the {|down,1>, |up,0>} pair rotates by
    cos(area/2) I + i sin(area/2) sigma_x.  An area of -pi maps
    |up,0> -> -i |down,1> (full state transfer); -pi/2 produces the maximally
    entangled (|up,0> - i |down,1>)/sqrt(2).
    """
    c = np.cos(area / 2.0)
    s = np.sin(area / 2.0)
    u = np.eye(4, dtype=complex)
    u[_I_DN1, _I_DN1] = c
    u[_I_UP0, _I_UP0] = c
    u[_I_DN1, _I_UP0] = 1j * s
    u[_I_UP0, _I_DN1] = 1j * s
    return u


def rz(target: str, angle_deg: float) -> np.ndarray:
    """z-rotation diag(e^{-i theta/2}, e^{+i theta/2}) on one qubit, identity on the other."""
    theta = np.deg2rad(angle_deg)
    lo = np.exp(-1j * theta / 2.0)
    hi = np.exp(+1j * theta / 2.0)
    if target == TOPOLOGICAL:
        return np.diag([lo, lo, hi, hi])
    if target == FLUX:
        return np.diag([lo, hi, lo, hi])
    raise ValueError(f"target must be {TOPOLOGICAL!r} or {FLUX!r}, got {target!r}")


def swap_root_pulse() -> np.ndarray:
    """The -3pi/2 coupling pulse; on the exchanged pair it equals (-I - i sigma_x)/sqrt(2)."""
    return ideal_pulse_unitary(-1.5 * np.pi)


def canonical_sqrt_swap() -> np.ndarray:
    """Textbook sqrt(SWAP) for comparison with the pulse-generated root."""
    u = np.eye(4, dtype=complex)
    u[_I_DN1, _I_DN1] = (1 + 1j) / 2
    u[_I_UP0, _I_UP0] = (1 + 1j) / 2
    u[_I_DN1, _I_UP0] = (1 - 1j) / 2
    u[_I_UP0, _I_DN1] = (1 - 1j) / 2
    return u


def synthesize_cp(
    root: np.ndarray | None = None, order: str = "right_to_left"
) -> np.ndarray:
    """Controlled-phase candidate R_zt(90) R_zf(-90) root R_zt(180) root.

    ``root`` defaults to the -3pi/2 pulse unitary.  With the conventional
    right-to-left reading the rightmost factor acts first; "left_to_right"
    applies the factors in the written order instead.  Whether the result is
    actually controlled-phase-equivalent is a question for
    ``makhlin_invariants``, not an assumption.
    """
    v = swap_root_pulse() if root is None else np.asarray(root, dtype=complex)
    factors = [rz(TOPOLOGICAL, 90), rz(FLUX, -90), v, rz(TOPOLOGICAL, 180), v]
    if order == "left_to_right":
        factors = factors[::-1]
    elif order != "right_to_left":
        raise ValueError(f"unknown operator order {order!r}")
    out = np.eye(4, dtype=complex)
    for f in factors:
        out = out @ f
    return out


def makhlin_invariants(gates) -> list[LocalInvariants]:
    """Local invariants of a sequence of 4x4 unitaries, computed as one stack:
    G1 = tr^2(m)/(16 det U), G2 = (tr^2(m) - tr(m^2))/(4 det U) with m = U_B^T U_B
    in the magic basis."""
    u = np.asarray(gates)
    # an empty stack would fail in numpy's max, with no word on its input
    if u.ndim != 3 or u.shape[1:] != (4, 4) or not len(u):
        raise ValueError(f"gates must be a (k, 4, 4) stack with k >= 1, got shape {u.shape}")
    err = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(4)))
    if err >= UNITARITY_TOL:
        raise ValueError(f"gate is not unitary (|U^dag U - I| = {err:.3e})")
    ub = MAGIC.conj().T @ u @ MAGIC
    m = ub.swapaxes(-1, -2) @ ub
    det = np.linalg.det(ub)
    # np.power, not `** 2`: an array `** 2` becomes np.square, whose SIMD loop rounds
    # the last bit of some squares differently, and G1 and G2 would lose their bytes
    tr2 = np.power(np.trace(m, axis1=-2, axis2=-1), 2.0)
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - np.trace(m @ m, axis1=-2, axis2=-1)) / (4.0 * det)
    return [LocalInvariants(g1=complex(a), g2=float(b.real)) for a, b in zip(g1, g2)]


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-insensitive overlap |tr(U^dag V)|^2 / 16."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(np.abs(np.trace(u.conj().T @ v)) ** 2 / d**2)


def _invariant_entry(inv: LocalInvariants, cz: LocalInvariants) -> dict:
    return {
        "G1_re": inv.g1.real,
        "G1_im": inv.g1.imag,
        "G2": inv.g2,
        "cz_equivalent": inv.close_to(cz),
    }


def verification_report() -> dict:
    """Gate-synthesis audit: invariants of both synthesis routes and references.

    The pulse-generated root of SWAP is iSWAP-like on the exchanged pair, so
    the composed sequence need not land in the controlled-phase class; the
    report records what it actually is for both operator orders and for the
    canonical root, rather than asserting an expected outcome.
    """
    pulse_root = swap_root_pulse()
    canon_root = canonical_sqrt_swap()
    references = {
        "identity": np.eye(4, dtype=complex),
        "cz": CZ,
        "swap": SWAP,
        "iswap": ISWAP,
        "pulse_root": pulse_root,
        "canonical_sqrt_swap": canon_root,
    }
    synthesis = {
        f"{root_name}__{order}": synthesize_cp(root=root, order=order)
        for root_name, root in (("pulse_root", pulse_root), ("canonical_sqrt_swap", canon_root))
        for order in ("right_to_left", "left_to_right")
    }
    cz, *invs = makhlin_invariants([CZ, *references.values(), *synthesis.values()])
    entries = [_invariant_entry(inv, cz) for inv in invs]
    report = {
        "basis_order": ["down0", "down1", "up0", "up1"],
        "references": dict(zip(references, entries)),
        "synthesis": dict(zip(synthesis, entries[len(references) :])),
    }
    for name, u in synthesis.items():
        report["synthesis"][name]["fidelity_vs_cz"] = gate_fidelity(CZ, u)
    report["verdict"] = {
        "pulse_root_right_to_left_is_cp": report["synthesis"]["pulse_root__right_to_left"][
            "cz_equivalent"
        ],
        "canonical_root_right_to_left_is_cp": report["synthesis"][
            "canonical_sqrt_swap__right_to_left"
        ]["cz_equivalent"],
    }
    return report
