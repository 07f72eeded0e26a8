"""Ansatz builders against dense matrix-exponential and finite-difference
oracles.

The parameterized gates use R_n(a) = exp(-i a/2 sigma_n) with the standard
CNOT, under which the published gate sequences realize the exponential
family with the excitation generator's qubits carrying Y (control) and X
(target), i.e. exp(-i X Y t) with the parameter reversed in sign after the
2 theta -> theta reset.  The variational manifold is unchanged; the trace
below pins the realized form.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import circuit_unitary, from_pairs, pauli_kron
from vqite import (StateVector, basis_state, build_hardware_efficient, build_ucc_h2, build_ucc_lih,
                   run_circuit, to_dense_matrix)
from vqite.ansatz import (DERIVATIVE_PREFACTOR, AnsatzCircuit,
                          DerivativeDescriptor)
from vqite.simulator import cnot, rx, ry, rz


def pauli_dense(letters):
    return to_dense_matrix(from_pairs([(1.0, letters)]))


def global_phase_distance(u, v):
    overlap = np.trace(u.conj().T @ v) / u.shape[0]
    if abs(overlap) < 1e-12:
        return 2.0
    return np.max(np.abs(u * (overlap / abs(overlap)) - v))


def same_gates(a, b):
    return len(a) == len(b) and all(
        np.array_equal(g.matrix, h.matrix) and (g.target, g.control) == (h.target, h.control)
        for g, h in zip(a, b))


def finite_difference_state(builder, theta, i, eps=1e-5):
    tp, tm = np.array(theta, float), np.array(theta, float)
    tp[i] += eps
    tm[i] -= eps
    up = builder(tp)
    um = builder(tm)
    sp = up.state().amplitudes
    sm = um.state().amplitudes
    return (sp - sm) / (2 * eps)


# --- UCC-H2 ---

def test_ucc_h2_reference_and_shape():
    a = build_ucc_h2(0.7)
    assert a.n_system_qubits == 2
    assert a.n_parameters == 1
    assert np.allclose(a.reference_state.amplitudes, basis_state("10").amplitudes)


def test_ucc_h2_theta_zero_is_identity_on_reference():
    state = build_ucc_h2(0.0).state()
    overlap = np.vdot(basis_state("10").amplitudes, state.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_ucc_h2_matches_exponential_oracle():
    # Realized unitary: exp(-i Y0 X1 theta / 2).  On the reference orbit this
    # is the published exp(-i X0 Y1 t) family traversed with t = -theta / 2.
    for theta in (0.3, 0.7, 2.0, np.pi):
        u = circuit_unitary(build_ucc_h2(theta).gates, 2)
        oracle = expm(-0.5j * theta * pauli_dense("YX"))
        assert global_phase_distance(u, oracle) < 1e-10
        state = build_ucc_h2(theta).state().amplitudes
        mirrored = expm(+0.5j * theta * pauli_dense("XY")) @ basis_state("10").amplitudes
        overlap = np.vdot(mirrored, state)
        assert abs(abs(overlap) - 1.0) < 1e-10


def test_ucc_h2_descriptor_finite_difference():
    fd = finite_difference_state(build_ucc_h2, [0.7], 0)
    an = build_ucc_h2(0.7).derivative_state(0)
    assert np.max(np.abs(fd - an)) < 1e-6


# --- UCC-LiH ---

def test_ucc_lih_reference_and_shape():
    a = build_ucc_lih([1.0, 1.0])
    assert a.n_system_qubits == 3
    assert a.n_parameters == 2
    assert np.allclose(a.reference_state.amplitudes, basis_state("100").amplitudes)


def test_ucc_lih_theta_zero_identity():
    state = build_ucc_lih([0.0, 0.0]).state()
    overlap = np.vdot(basis_state("100").amplitudes, state.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_ucc_lih_matches_exponential_oracle():
    t1, t2 = 0.8, -0.5
    u = circuit_unitary(build_ucc_lih([t1, t2]).gates, 3)
    # theta_1 block acts on (q0, q1) first, theta_2 block on (q0, q2).
    oracle = (expm(-0.5j * t2 * pauli_dense("YIX"))
              @ expm(-0.5j * t1 * pauli_dense("YXI")))
    assert global_phase_distance(u, oracle) < 1e-10


def test_ucc_lih_descriptor_finite_difference_both_parameters():
    theta = [1.0, 1.0]
    for i in range(2):
        fd = finite_difference_state(build_ucc_lih, theta, i)
        an = build_ucc_lih(theta).derivative_state(i)
        assert np.max(np.abs(fd - an)) < 1e-6


def test_ucc_lih_rejects_wrong_arity():
    with pytest.raises(ValueError):
        build_ucc_lih([1.0])


def test_insertion_points_must_be_ordered_and_in_range():
    a = build_ucc_lih([0.3, 0.4])
    d0, d1 = a.descriptors
    past_end = DerivativeDescriptor(len(a.gates) + 1, d1.sigma)
    # a descriptor at 0 has no gate before it to be its rotation, and two
    # descriptors at one point would share one rotation
    for descs in ((d1, d0), (d0, past_end), (DerivativeDescriptor(-1, d0.sigma), d1),
                  (DerivativeDescriptor(0, d0.sigma), d1), (d0, d0._replace(sigma=d1.sigma))):
        with pytest.raises(ValueError, match="insertion points"):
            AnsatzCircuit(a.gates, a.parameters, descs, a.reference_state)
    at_end = DerivativeDescriptor(len(a.gates), d1.sigma)
    AnsatzCircuit(a.gates, a.parameters, (d0, at_end), a.reference_state)


# --- hardware-efficient ---

def test_he_gate_order_and_zero_angles():
    a = build_hardware_efficient([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert same_gates(a.gates, [rx(0, 0.1), rx(1, 0.2), cnot(0, 1), rz(0, 0.3),
                                rz(1, 0.4), rx(0, 0.5), rx(1, 0.6)])
    # Zero angles collapse to the bare entangler.
    a = build_hardware_efficient([0.0] * 6)
    state = run_circuit(basis_state("10"), a.gates)
    oracle = run_circuit(basis_state("10"), [cnot(0, 1)])
    assert np.allclose(state.amplitudes, oracle.amplitudes)


def test_he_initial_guess_is_valid():
    a = build_hardware_efficient([0.5] * 6)
    assert a.n_parameters == 6
    assert abs(np.linalg.norm(a.state().amplitudes) - 1.0) < 1e-12


def test_he_descriptors_all_parameters():
    theta = [0.5] * 6
    for i in range(6):
        fd = finite_difference_state(build_hardware_efficient, theta, i)
        an = build_hardware_efficient(theta).derivative_state(i)
        assert np.max(np.abs(fd - an)) < 1e-6


# --- shared properties ---

@pytest.mark.parametrize("builder,size", [
    (build_ucc_h2, 1), (build_ucc_lih, 2), (build_hardware_efficient, 6),
])
def test_descriptor_finite_difference_random_thetas(builder, size, rng):
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=size)
        a = builder(theta)
        for i in range(size):
            fd = finite_difference_state(builder, theta, i)
            assert np.max(np.abs(fd - a.derivative_state(i))) < 1e-6


@pytest.mark.parametrize("builder,size", [
    (build_ucc_h2, 1), (build_ucc_lih, 2), (build_hardware_efficient, 6),
])
def test_builder_purity(builder, size, rng):
    theta = rng.uniform(-np.pi, np.pi, size=size)
    first = builder(theta)
    builder(rng.uniform(-np.pi, np.pi, size=size))
    again = builder(theta)
    assert same_gates(first.gates, again.gates)
    assert np.array_equal(first.parameters, again.parameters)
    assert first.descriptors == again.descriptors


@pytest.mark.parametrize("builder,size", [
    (build_ucc_h2, 1), (build_ucc_lih, 2), (build_hardware_efficient, 6),
])
def test_forward_pass_bitwise_equals_scratch(builder, size, rng):
    """state() and each derivative equal a from-scratch run with the
    Kronecker sigma inserted: prefix, sigma, suffix."""
    for _ in range(3):
        a = builder(rng.uniform(-np.pi, np.pi, size=size))
        psi = a.state()
        for i, desc in enumerate(a.descriptors):
            k = desc.insertion_point
            s = run_circuit(a.reference_state, a.gates[:k]).amplitudes
            s = run_circuit(StateVector(pauli_kron(desc.sigma.letters) @ s), a.gates[k:])
            assert np.array_equal(a.derivative_state(i), DERIVATIVE_PREFACTOR * s.amplitudes)
        scratch = run_circuit(a.reference_state, a.gates).amplitudes
        assert np.array_equal(psi.amplitudes, scratch)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
        assert np.array_equal(a.state().amplitudes, scratch)


def ucc_block(control, target, theta):
    return [ry(target, -np.pi / 2), rx(control, np.pi / 2), cnot(control, target),
            rz(target, theta), cnot(control, target), ry(target, np.pi / 2),
            rx(control, -np.pi / 2)]


# Each family from scratch: its gates at angles t, and its descriptors as
# (insertion point, sigma).
SCRATCH = {
    build_ucc_h2: (lambda t: ucc_block(0, 1, t[0]), [(4, "IZ")]),
    build_ucc_lih: (lambda t: ucc_block(0, 1, t[0]) + ucc_block(0, 2, t[1]),
                    [(4, "IZI"), (11, "IIZ")]),
    build_hardware_efficient: (
        lambda t: [rx(0, t[0]), rx(1, t[1]), cnot(0, 1), rz(0, t[2]), rz(1, t[3]),
                   rx(0, t[4]), rx(1, t[5])],
        [(1, "XI"), (2, "IX"), (4, "ZI"), (5, "IZ"), (6, "XI"), (7, "IX")]),
}


def gate_bits(gates):
    return [(g.matrix.tobytes(), g.target, g.control) for g in gates]


@pytest.mark.parametrize("builder,size", [
    (build_ucc_h2, 1), (build_ucc_lih, 2), (build_hardware_efficient, 6),
])
def test_builder_matches_scratch_construction(builder, size, rng):
    """Gates bitwise equal to rx/ry/rz/cnot built from scratch; the fixed
    gates and the reference are shared read-only by every build."""
    scratch, descriptors = SCRATCH[builder]
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=size)
        a, b = builder(theta), builder(rng.uniform(-np.pi, np.pi, size=size))
        assert gate_bits(a.gates) == gate_bits(scratch(theta))
        assert [(d.insertion_point, d.sigma.letters) for d in a.descriptors] == descriptors
        rotations = {k - 1 for k, _ in descriptors}
        shared = [k for k, (g, h) in enumerate(zip(a.gates, b.gates)) if g is h]
        assert shared == [k for k in range(len(a.gates)) if k not in rotations]
        assert a.reference_state is b.reference_state
        for m in (*(g.matrix for g in a.gates), a.reference_state.amplitudes):
            with pytest.raises(ValueError):
                m[0] = 0.0


@pytest.mark.parametrize("builder,size", [
    (build_ucc_h2, 1), (build_ucc_lih, 2), (build_hardware_efficient, 6),
])
def test_builders_reject_wrong_arity(builder, size):
    for bad in ([], [0.1] * (size + 1)):
        with pytest.raises(ValueError, match=f"takes {size} parameters, got {len(bad)}"):
            builder(bad)
