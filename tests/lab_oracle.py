"""The lab-frame Hamiltonian and its static evolution: the tests' check on the rotating frame.

``topoflux.dynamics`` propagates the interaction-picture master equation in
the frame exp(i E t N).  This module writes the same pair in the lab frame,
with the flux oscillator at omega_f, the topological splitting E and both
couplings through the transverse operator s+ + s-, counter-rotating terms
included, and evolves it under one fixed Liouvillian.  It shares the
operator builders of ``topoflux.hilbert`` and the sampling and propagation
core of ``topoflux.dynamics`` (``_Recorder``, ``_propagate``) with the code
it checks; the Hamiltonian and the frame are its own.
"""

from __future__ import annotations

import numpy as np

from topoflux.dynamics import (
    NO_NOISE,
    NoiseParams,
    PulseSegment,
    Trajectory,
    _commutator,
    _free_generator,
    _propagate,
    _Recorder,
    _Workspace,
)
from topoflux.hilbert import (
    HilbertSpec,
    annihilation_op,
    embed,
    flux_qubit_z,
    sigma_minus,
    sigma_plus,
)


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
    sample, and samples follow the same rules as ``evolve`` (default sample
    period duration/200); a non-finite state or generator raises
    IntegrationError.
    """
    spec = spec or HilbertSpec()
    recorder = _Recorder(spec, duration, sample_period, basis=None)
    gen = _commutator(hamiltonian) + _free_generator(_Workspace(spec), 0.0, noise)
    y = np.array(rho0, dtype=complex).reshape(-1)
    flat = PulseSegment(duration, g_value=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the recorder refuses such a state
        y = _propagate(y, gen, np.zeros_like(gen), flat, recorder.sample_period, recorder.rows)
    return recorder.finish(y.reshape(spec.dim, spec.dim), duration)
