"""Dense operators and states on the composite topological (x) flux Hilbert space.

The topological qubit is a two-level system with basis {|down>, |up>}; the flux
mode is an oscillator truncated to ``n_fock`` levels.  The composite basis is
ordered topological-major: index i = s * n_fock + n with s in {0: down, 1: up}
and n in {0 .. n_fock-1}.  For the default n_fock = 2 the four basis states are
|down,0>, |down,1>, |up,0>, |up,1>.

Everything is a plain complex ndarray; operators and states are treated as
immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOWN, UP = 0, 1


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation choice for the flux mode; fixes all operator dimensions."""

    n_fock: int = 2

    def __post_init__(self):
        # a float, even 2.0, would fail deep inside numpy once a state is built
        if not isinstance(self.n_fock, (int, np.integer)):
            raise ValueError(f"n_fock must be an integer, got {self.n_fock!r}")
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")

    @property
    def dim(self) -> int:
        return 2 * self.n_fock

    def index(self, spin: int, n: int) -> int:
        """Composite index of basis state |spin, n>."""
        if spin not in (DOWN, UP):
            raise ValueError(f"spin must be 0 (down) or 1 (up), got {spin}")
        if not 0 <= n < self.n_fock:
            raise ValueError(f"fock index {n} outside 0..{self.n_fock - 1}")
        return spin * self.n_fock + n

    def ket(self, spin: int, n: int) -> np.ndarray:
        """Basis state vector |spin, n>."""
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.index(spin, n)] = 1.0
        return psi


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with complex dtype, (A (x) B)[p*dB+q, r*dB+s] = A[p,r] B[q,s].

    The same products as ``np.kron`` of two matrices, in one broadcast product.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def annihilation_op(n_levels: int) -> np.ndarray:
    """Truncated oscillator lowering operator, a[n-1, n] = sqrt(n)."""
    if n_levels < 2:
        raise ValueError(f"annihilation operator needs >= 2 levels, got {n_levels}")
    return np.diag(np.sqrt(np.arange(1, n_levels)), 1).astype(complex)


def sigma_minus() -> np.ndarray:
    """Topological lowering operator |down><up| in the (down, up) basis."""
    s = np.zeros((2, 2), dtype=complex)
    s[DOWN, UP] = 1.0
    return s


def sigma_plus() -> np.ndarray:
    """Topological raising operator |up><down|."""
    return sigma_minus().conj().T


def flux_qubit_z(n_levels: int) -> np.ndarray:
    """sigma_f^z = |0><0| - |1><1| on the flux mode; zero on levels n >= 2.

    Being zero there, the contamination never leaves levels 0 and 1, so from
    |up,0> ``dynamics.evolve`` reaches at most 5 basis states at any truncation
    (``dynamics._support``, computed from the operators, follows any choice here).
    """
    z = np.zeros((n_levels, n_levels), dtype=complex)
    z[0, 0] = 1.0
    z[1, 1] = -1.0
    return z


def embed(op: np.ndarray, subsystem: str, spec: HilbertSpec) -> np.ndarray:
    """Lift a single-subsystem operator to the composite space.

    ``subsystem`` is "topological" (op must be 2x2, returns op (x) I_N) or
    "flux" (op must be NxN, returns I_2 (x) op).
    """
    op = np.asarray(op, dtype=complex)
    if subsystem == "topological":
        if op.shape != (2, 2):
            raise ValueError(f"topological operator must be 2x2, got {op.shape}")
        return kron(op, np.eye(spec.n_fock))
    if subsystem == "flux":
        if op.shape != (spec.n_fock, spec.n_fock):
            raise ValueError(
                f"flux operator must be {spec.n_fock}x{spec.n_fock}, got {op.shape}"
            )
        return kron(np.eye(2), op)
    raise ValueError(f"unknown subsystem {subsystem!r}")


def matrix_element(rho: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra| rho |ket> for a density matrix and two state vectors."""
    rho = np.asarray(rho)
    bra = np.asarray(bra)
    ket = np.asarray(ket)
    if rho.shape != (bra.size, ket.size):
        raise ValueError(
            f"dimension mismatch: rho {rho.shape}, bra {bra.size}, ket {ket.size}"
        )
    return complex(bra.conj() @ rho @ ket)


def fidelity_pure(target: np.ndarray, rho: np.ndarray) -> float:
    """Fidelity <psi| rho |psi> of a state against a pure target.

    Insensitive to the target's global phase.  The value must come out real
    (imaginary part below 1e-10) or the density matrix is not Hermitian enough
    to trust.
    """
    val = matrix_element(rho, target, target)
    if abs(val.imag) >= 1e-10:
        raise ValueError(f"fidelity has imaginary part {val.imag:.3e}; rho not Hermitian?")
    return val.real


def trace_error(rho: np.ndarray) -> float:
    return abs(np.trace(rho) - 1.0)


def min_eigenvalue(rho: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix, or of each one in a stack."""
    return np.linalg.eigvalsh(rho)[..., 0]


def pure_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm * nrm - 1.0) >= 1e-10:
        raise ValueError(f"state norm^2 deviates from 1 by {abs(nrm * nrm - 1.0):.3e}")
    return np.outer(psi, psi.conj())
