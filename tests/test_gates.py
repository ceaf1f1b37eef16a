import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflux.gates import (
    CZ,
    FLUX,
    ISWAP,
    SWAP,
    TOPOLOGICAL,
    LocalInvariants,
    canonical_sqrt_swap,
    gate_fidelity,
    ideal_pulse_unitary,
    makhlin_invariants,
    rz,
    swap_root_pulse,
    synthesize_cp,
    verification_report,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_unitary(rng, n=2):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dress(u, rng):
    """Sandwich u between random single-qubit unitaries on both sides."""
    pre = np.kron(random_unitary(rng), random_unitary(rng))
    post = np.kron(random_unitary(rng), random_unitary(rng))
    return post @ u @ pre


# basis kets in the gate ordering {|down0>, |down1>, |up0>, |up1>}
DN0, DN1, UP0, UP1 = np.eye(4, dtype=complex)


class TestPulseUnitary:
    def test_full_transfer(self):
        u = ideal_pulse_unitary(-math.pi)
        assert np.allclose(u @ UP0, -1j * DN1)
        assert np.allclose(u @ DN0, DN0)
        assert np.allclose(u @ UP1, UP1)

    def test_half_transfer_entangles(self):
        u = ideal_pulse_unitary(-math.pi / 2.0)
        assert np.allclose(u @ UP0, (UP0 - 1j * DN1) / math.sqrt(2.0))

    def test_zero_area_identity(self):
        assert np.allclose(ideal_pulse_unitary(0.0), np.eye(4))

    def test_three_half_pi_block(self):
        u = ideal_pulse_unitary(-1.5 * math.pi)
        block = u[np.ix_([1, 2], [1, 2])]
        expected = (-np.eye(2) - 1j * SX) / math.sqrt(2.0)
        assert np.max(np.abs(block - expected)) < 1e-12

    @given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_area_additivity(self, a, b):
        lhs = ideal_pulse_unitary(a) @ ideal_pulse_unitary(b)
        rhs = ideal_pulse_unitary(a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(st.floats(-8.0, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_unitary_and_excitation_conserving(self, area):
        u = ideal_pulse_unitary(area)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        # blocks: {|down0>}, {|down1>, |up0>}, {|up1>} by total excitation
        off_block = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        for i, j in off_block:
            assert abs(u[i, j]) < 1e-14
            assert abs(u[j, i]) < 1e-14


class TestRz:
    def test_full_turn_is_minus_identity(self):
        assert np.allclose(rz(TOPOLOGICAL, 360.0), -np.eye(4))

    def test_zero_is_identity(self):
        assert np.allclose(rz(TOPOLOGICAL, 0.0), np.eye(4))

    def test_additivity(self):
        lhs = rz(TOPOLOGICAL, 90.0) @ rz(TOPOLOGICAL, 90.0)
        assert np.max(np.abs(lhs - rz(TOPOLOGICAL, 180.0))) < 1e-12

    def test_acts_on_named_qubit(self):
        zt = rz(TOPOLOGICAL, 90.0)
        zf = rz(FLUX, 90.0)
        assert zt[0, 0] == zt[1, 1]  # same topological spin, both flux states
        assert zf[0, 0] == zf[2, 2]  # same flux state, both spins
        assert zt[0, 0] != zt[2, 2]
        with pytest.raises(ValueError):
            rz("neither", 90.0)


class TestMakhlin:
    def test_identity_class(self):
        inv = makhlin_invariants([np.eye(4, dtype=complex)])[0]
        assert inv.g1 == pytest.approx(1.0, abs=1e-12)
        assert inv.g2 == pytest.approx(3.0, abs=1e-12)

    def test_cz_class(self):
        inv = makhlin_invariants([CZ])[0]
        assert inv.g1 == pytest.approx(0.0, abs=1e-12)
        assert inv.g2 == pytest.approx(1.0, abs=1e-12)

    def test_swap_iswap_cz_distinct(self):
        pairs = makhlin_invariants([SWAP, ISWAP, CZ])
        assert pairs[0].g1 == pytest.approx(-1.0, abs=1e-12)
        assert pairs[0].g2 == pytest.approx(-3.0, abs=1e-12)
        assert pairs[1].g1 == pytest.approx(0.0, abs=1e-12)
        assert pairs[1].g2 == pytest.approx(-1.0, abs=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not pairs[i].close_to(pairs[j])

    @pytest.mark.parametrize("base", [CZ, SWAP, ISWAP])
    def test_invariance_under_local_dressing(self, base):
        rng = np.random.default_rng(11)
        ref = makhlin_invariants([base])[0]
        for _ in range(100):
            assert makhlin_invariants([dress(base, rng)])[0].close_to(ref)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            makhlin_invariants([np.ones((4, 4))])

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4), (8, 8)])
    def test_non_4x4_rejected(self, shape):
        with pytest.raises(ValueError, match=r"must be a \(k, 4, 4\) stack"):
            makhlin_invariants([np.ones(shape, dtype=complex)])

    @pytest.mark.parametrize(
        "gates, shape",
        [
            (CZ, (4, 4)),
            (np.ones((3, 2, 2), dtype=complex), (3, 2, 2)),
            (np.empty((0, 4, 4), dtype=complex), (0, 4, 4)),
        ],
        ids=["one-gate", "2x2-stack", "empty-stack"],
    )
    def test_only_a_stack_of_4x4_gates_is_taken(self, gates, shape):
        # one gate in place of a sequence is refused by its own shape, not by a row's, and
        # an empty stack by its shape, not inside numpy
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            makhlin_invariants(gates)


class TestGateFidelity:
    def test_self(self):
        rng = np.random.default_rng(3)
        u = dress(CZ, rng)
        assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase(self):
        u = canonical_sqrt_swap()
        assert gate_fidelity(u, np.exp(1.37j) * u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        x_on_first = np.kron(SX, np.eye(2))
        assert gate_fidelity(np.eye(4, dtype=complex), x_on_first) == pytest.approx(0.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(4), np.eye(3))


class TestCpSynthesis:
    def test_unitary(self):
        u = synthesize_cp()
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_matches_hand_multiplied_product(self):
        # independent oracle: build each factor from literal matrices and
        # multiply right-to-left with plain np.dot
        c, s = np.cos(-0.75 * np.pi), np.sin(-0.75 * np.pi)
        v = np.array(
            [[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]],
            dtype=complex,
        )

        def z_top(deg):
            th = np.deg2rad(deg)
            return np.diag(
                [np.exp(-1j * th / 2)] * 2 + [np.exp(1j * th / 2)] * 2
            )

        def z_flux(deg):
            th = np.deg2rad(deg)
            return np.diag(
                [np.exp(-1j * th / 2), np.exp(1j * th / 2)] * 2
            )

        oracle = np.dot(
            z_top(90), np.dot(z_flux(-90), np.dot(v, np.dot(z_top(180), v)))
        )
        assert np.max(np.abs(synthesize_cp() - oracle)) < 1e-12

    def test_pulse_root_product_collapses_to_local_gate(self):
        # V R_zt(180) V = R_zt(180) for the -3pi/2 pulse root, so the composed
        # sequence is diagonal and sits in the identity local class
        u = synthesize_cp()
        assert np.max(np.abs(u - np.diag(np.diag(u)))) < 1e-12
        inv = makhlin_invariants([u])[0]
        assert inv.close_to(LocalInvariants(1.0 + 0j, 3.0))

    def test_canonical_root_product_is_cz(self):
        u = synthesize_cp(root=canonical_sqrt_swap())
        inv = makhlin_invariants([u])[0]
        assert inv.close_to(makhlin_invariants([CZ])[0])
        assert gate_fidelity(u, CZ) == pytest.approx(1.0, abs=1e-12)

    def test_both_orders_available(self):
        a = synthesize_cp(order="right_to_left")
        b = synthesize_cp(order="left_to_right")
        assert a.shape == b.shape == (4, 4)
        with pytest.raises(ValueError):
            synthesize_cp(order="sideways")


class TestVerificationReport:
    def test_report_structure_and_verdict(self):
        rep = verification_report()
        assert rep["references"]["identity"]["G2"] == pytest.approx(3.0)
        assert rep["references"]["cz"]["G2"] == pytest.approx(1.0)
        synth = rep["synthesis"]
        assert set(synth) == {
            "pulse_root__right_to_left",
            "pulse_root__left_to_right",
            "canonical_sqrt_swap__right_to_left",
            "canonical_sqrt_swap__left_to_right",
        }
        # verdict booleans must agree with the invariant comparison they summarize
        assert rep["verdict"]["pulse_root_right_to_left_is_cp"] == synth[
            "pulse_root__right_to_left"
        ]["cz_equivalent"]
        assert rep["verdict"]["canonical_root_right_to_left_is_cp"] == synth[
            "canonical_sqrt_swap__right_to_left"
        ]["cz_equivalent"]
        # the pulse-generated root does not reach the controlled-phase class;
        # the canonical root does
        assert rep["verdict"]["pulse_root_right_to_left_is_cp"] is False
        assert rep["verdict"]["canonical_root_right_to_left_is_cp"] is True

    def test_pulse_root_is_iswap_like_not_swap_like(self):
        rep = verification_report()
        pulse = rep["references"]["pulse_root"]
        canon = rep["references"]["canonical_sqrt_swap"]
        assert (pulse["G1_re"], pulse["G1_im"], pulse["G2"]) != (
            canon["G1_re"],
            canon["G1_im"],
            canon["G2"],
        )

    def test_entries_equal_single_gate_invariants_bit_for_bit(self):
        # the report computes its pairs as one stack; each entry must hold
        # exactly what the one-matrix functions give for the same unitary
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
            f"{name}__{order}": synthesize_cp(root=root, order=order)
            for name, root in (("pulse_root", pulse_root), ("canonical_sqrt_swap", canon_root))
            for order in ("right_to_left", "left_to_right")
        }
        cz = makhlin_invariants([CZ])[0]

        def expected(u):
            inv = makhlin_invariants([u])[0]
            return {
                "G1_re": inv.g1.real,
                "G1_im": inv.g1.imag,
                "G2": inv.g2,
                "cz_equivalent": inv.close_to(cz),
            }

        rep = verification_report()
        assert rep["references"] == {name: expected(u) for name, u in references.items()}
        assert rep["synthesis"] == {
            name: {**expected(u), "fidelity_vs_cz": gate_fidelity(CZ, u)}
            for name, u in synthesis.items()
        }
