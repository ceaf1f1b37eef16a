import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflux.hilbert import (
    DOWN,
    UP,
    HilbertSpec,
    annihilation_op,
    embed,
    fidelity_pure,
    flux_qubit_z,
    kron,
    matrix_element,
    min_eigenvalue,
    pure_density,
    sigma_minus,
    sigma_plus,
    trace_error,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_order(self):
        # sigma_x on the topological factor maps |down,0> (index 0) to |up,0> (index 2)
        spec = HilbertSpec(2)
        op = kron(SX, np.eye(2))
        assert np.allclose(op @ spec.ket(DOWN, 0), spec.ket(UP, 0))

    def test_diagonal_expansion(self):
        # hand expansion: diag(1,2) (x) diag(3,4) = diag(3,4,6,8)
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_matrix(rng, 2) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-12


class TestAnnihilation:
    def test_two_levels(self):
        assert np.allclose(annihilation_op(2), [[0, 1], [0, 0]])

    def test_three_levels(self):
        a = annihilation_op(3)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_number_operator(self):
        a = annihilation_op(3)
        assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]))

    def test_truncation_error(self):
        with pytest.raises(ValueError):
            annihilation_op(1)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_commutator_truncated(self, n):
        # [a, a^dag] = I - n |n-1><n-1| on the truncated space
        a = annihilation_op(n)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(n, dtype=complex)
        expected[n - 1, n - 1] = 1.0 - n
        assert np.max(np.abs(comm - expected)) < 1e-12


class TestEmbed:
    def test_sigma_minus_action(self):
        spec = HilbertSpec(2)
        op = embed(sigma_minus(), "topological", spec)
        assert np.allclose(op @ spec.ket(UP, 0), spec.ket(DOWN, 0))

    def test_annihilation_action(self):
        spec = HilbertSpec(2)
        op = embed(annihilation_op(2), "flux", spec)
        assert np.allclose(op @ spec.ket(UP, 1), spec.ket(UP, 0))

    def test_flux_z(self):
        spec = HilbertSpec(2)
        op = embed(flux_qubit_z(2), "flux", spec)
        assert np.allclose(op, kron(np.eye(2), np.diag([1.0, -1.0])))

    def test_dimension_mismatch(self):
        spec = HilbertSpec(3)
        with pytest.raises(ValueError):
            embed(np.eye(3), "topological", spec)
        with pytest.raises(ValueError):
            embed(np.eye(2), "flux", spec)
        with pytest.raises(ValueError, match="unknown subsystem 'bath'"):
            embed(np.eye(2), "bath", spec)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_embed_is_homomorphism(self, seed, n):
        rng = np.random.default_rng(seed)
        spec = HilbertSpec(n)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        lhs = embed(x, "topological", spec) @ embed(y, "topological", spec)
        rhs = embed(x @ y, "topological", spec)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_different_subsystems_commute(self, seed, n):
        rng = np.random.default_rng(seed)
        spec = HilbertSpec(n)
        x = embed(random_matrix(rng, 2), "topological", spec)
        y = embed(random_matrix(rng, n), "flux", spec)
        assert np.max(np.abs(x @ y - y @ x)) < 1e-12


class TestStatesAndFidelity:
    def setup_method(self):
        self.spec = HilbertSpec(2)
        self.up0 = self.spec.ket(UP, 0)
        self.dn1 = self.spec.ket(DOWN, 1)

    def test_matrix_element_projector(self):
        rho = pure_density(self.up0)
        assert matrix_element(rho, self.up0, self.up0) == pytest.approx(1.0)
        assert matrix_element(rho, self.dn1, self.dn1) == pytest.approx(0.0)

    def test_matrix_element_superposition(self):
        # rho = (|up0> + i|dn1>)(<up0| - i<dn1|)/2 gives <up0|rho|dn1> = -i/2
        psi = (self.up0 + 1j * self.dn1) / np.sqrt(2)
        rho = pure_density(psi)
        assert matrix_element(rho, self.up0, self.dn1) == pytest.approx(-0.5j)

    def test_matrix_element_dim_mismatch(self):
        with pytest.raises(ValueError):
            matrix_element(np.eye(4), np.ones(3), np.ones(4))

    def test_fidelity_exact(self):
        rho = pure_density(self.dn1)
        assert fidelity_pure(self.dn1, rho) == pytest.approx(1.0)

    def test_fidelity_ignores_global_phase(self):
        rho = pure_density(self.dn1)
        assert fidelity_pure(-1j * self.dn1, rho) == pytest.approx(1.0)

    def test_fidelity_mixed(self):
        # equal mixture against an equal superposition: 1/2
        target = (self.up0 - 1j * self.dn1) / np.sqrt(2)
        rho = 0.5 * pure_density(self.up0) + 0.5 * pure_density(self.dn1)
        assert fidelity_pure(target, rho) == pytest.approx(0.5)

    def test_fidelity_refuses_a_non_hermitian_rho(self):
        # an anti-Hermitian part on the diagonal makes <psi|rho|psi> complex
        rho = pure_density(self.up0) + 1e-6j * np.eye(4)
        with pytest.raises(ValueError, match="rho not Hermitian"):
            fidelity_pure(self.up0, rho)

    def test_density_checks(self):
        rho = pure_density(self.up0)
        assert trace_error(rho) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert min_eigenvalue(rho) > -1e-12

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            pure_density(2.0 * self.up0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HilbertSpec(1)
        spec = HilbertSpec(4)
        assert spec.dim == 8
        assert spec.index(UP, 3) == 7
        with pytest.raises(ValueError):
            spec.index(UP, 4)
        with pytest.raises(ValueError, match="spin must be 0"):
            spec.index(2, 0)
