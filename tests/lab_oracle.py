"""The lab-frame Hamiltonian and its static evolution: the tests' check on the rotating frame.

``topoflux.dynamics`` propagates the interaction-picture master equation in
the frame exp(i E t N).  This module writes the same pair in the lab frame,
with the flux oscillator at omega_f, the topological splitting E and both
couplings through the transverse operator s+ + s-, counter-rotating terms
included, and evolves it under one fixed Liouvillian.  It shares the
operator builders of ``topoflux.hilbert``, the dissipators and ``expm`` with
the code it checks; the Hamiltonian, the frame, the walk over the samples and
the trajectory columns are its own.  Its purity, for one, is tr(rho rho) of
each sampled matrix (``purity``), where ``evolve``'s recorder takes the squared
norm of the state's real coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from topoflux.dynamics import (
    NO_NOISE,
    NoiseParams,
    Trajectory,
    _commutator,
    _free_generator,
    _Workspace,
    expm,
)
from topoflux.errors import IntegrationError
from topoflux.hilbert import (
    DOWN,
    UP,
    HilbertSpec,
    annihilation_op,
    embed,
    flux_qubit_z,
    min_eigenvalue,
    sigma_minus,
    sigma_plus,
)


def purity(rho: np.ndarray):
    """tr(rho^2) of a density matrix, or of each one in a stack, from the matrix product."""
    return np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))


def build_lab_hamiltonian(omega_f, energy, g, g_prime, spec: HilbertSpec | None = None) -> np.ndarray:
    """Static frame Hamiltonian used to cross-validate the rotating-wave step.

    The topological splitting is diagonal in the simulation basis, |up> sitting
    at +energy/2, and both couplings act through the transverse operator
    s+ + s-; taking the interaction picture of this matrix and dropping the
    doubly-rotating exchange terms reproduces the working Hamiltonian exactly.
    """
    spec = spec or HilbertSpec()
    a = embed(annihilation_op(spec.n_fock), "flux", spec)
    a_dag = a.conj().T
    x_t = embed(sigma_plus() + sigma_minus(), "topological", spec)
    z_t = embed(np.diag([1.0, -1.0]).astype(complex), "topological", spec)  # (down, up)
    z_f = embed(flux_qubit_z(spec.n_fock), "flux", spec)
    return (
        omega_f * (a_dag @ a)
        - 0.5 * energy * z_t
        - 0.5 * g * ((a + a_dag) @ x_t)
        - 0.5 * g_prime * (z_f @ x_t)
    )


def evolve_static(
    rho0: np.ndarray,
    hamiltonian: np.ndarray,
    duration: float,
    noise: NoiseParams = NO_NOISE,
    spec: HilbertSpec | None = None,
    sample_period: float | None = None,
) -> Trajectory:
    """Evolve under a fixed Hamiltonian (lab-frame cross-checks).

    The relaxation and dephasing operators commute with the free rotation, so
    the same dissipators are valid in this frame.  One exponential of the
    static Liouvillian over a sample period carries the state from sample to
    sample, and one over the rest to the end.  Samples follow the same rules as
    ``evolve``: the times k * sample_period before the end (default period
    duration/200, or the duration when that underflows to 0) and the end.  A
    non-positive sample period raises ValueError, and a non-finite state or
    generator IntegrationError.
    """
    spec = spec or HilbertSpec()
    if sample_period is None:
        sample_period = duration / 200.0 or duration
    if not sample_period > 0:
        raise ValueError(f"sample_period must be positive, got {sample_period}")
    n = max(1, math.ceil(duration / sample_period - 1e-9))
    ws = _Workspace(spec, tuple(range(spec.dim)))
    gen = _commutator(hamiltonian) + _free_generator(ws, 0.0, noise)
    states = [np.array(rho0, dtype=complex).reshape(-1)]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is refused below
        step = expm(sample_period * gen)
        for _ in range(n - 1):
            states.append(step @ states[-1])
        states.append(expm((duration - (n - 1) * sample_period) * gen) @ states[-1])
    rho = np.reshape(states, (n + 1, spec.dim, spec.dim))
    times = np.append(np.arange(n) * sample_period, duration)
    finite = np.isfinite(rho).all(axis=(1, 2))
    if not finite.all():
        raise IntegrationError(f"state diverged by t={times[np.argmin(finite)]:.4g} ns")
    i, j = spec.index(DOWN, 1), spec.index(UP, 0)
    return Trajectory(
        times,
        rho[:, i, i],
        rho[:, j, j],
        rho[:, i, j],
        rho[:, j, i],
        np.real(np.trace(rho, axis1=1, axis2=2)),
        purity(rho),
        min_eigenvalue(rho),
        final_state=rho[-1],
    )
