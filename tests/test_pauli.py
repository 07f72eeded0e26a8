"""Pauli string and Hamiltonian algebra against dense oracles."""

from itertools import product

import numpy as np
import pytest

from conftest import (apply, apply_word, coefficient, from_pairs, pauli_kron,
                      random_hamiltonian_pairs, random_state, term_loop)
from vqite import (PauliHamiltonian, StateVector, basis_state,
                   expectation, hamiltonian_at, pauli_decompose, to_dense_matrix,
                   weighted_partial_trace)
from vqite.pauli import DimensionCapError, _signed_permutation
from vqite.simulator import DensityMatrix


def test_single_z_matrix():
    h = from_pairs([(1.0, "Z")])
    assert np.allclose(to_dense_matrix(h), np.diag([1.0, -1.0]))


def test_all_identity_string():
    for n in (1, 2, 3):
        h = from_pairs([(1.0, "I" * n)])
        assert np.array_equal(to_dense_matrix(h), np.eye(2 ** n))


def test_xi_matrix_convention():
    # Leftmost letter acts on q0 = most significant bit: X (x) I.
    h = from_pairs([(1.0, "XI")])
    x = np.array([[0, 1], [1, 0]])
    assert np.allclose(to_dense_matrix(h), np.kron(x, np.eye(2)))


def test_lih_row_dense_is_hermitian_with_oracle_ground(lih_r15):
    m = to_dense_matrix(lih_r15)
    assert m.shape == (8, 8)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(m)[0] == pytest.approx(-7.954370067642636, abs=1e-9)


def test_dimension_cap():
    h = from_pairs([(1.0, "I" * 13)])
    with pytest.raises(DimensionCapError):
        to_dense_matrix(h)


def test_every_word_up_to_four_qubits_matches_kronecker(rng):
    for n in range(1, 5):
        psi = random_state(rng, n)
        for word in map("".join, product("IXYZ", repeat=n)):
            oracle = pauli_kron(word)
            dense = to_dense_matrix(from_pairs([(1.0, word)]))
            assert np.array_equal(dense, oracle), word
            assert np.array_equal(apply_word(word, psi), oracle @ psi), word


def test_memoized_permutation_is_read_only():
    src, phase = _signed_permutation("XYZI")
    again = _signed_permutation("XYZI")
    assert np.array_equal(again[0], src) and np.array_equal(again[1], phase)
    with pytest.raises(ValueError):
        src[0] = 1
    with pytest.raises(ValueError):
        phase[0] = 1.0
    dense = to_dense_matrix(from_pairs([(1.0, "XYZI")]))
    assert np.array_equal(dense, pauli_kron("XYZI"))


def test_apply_equals_term_loop_on_table_rows(lih_table, rng):
    for r in lih_table.bond_distances[::7]:
        h = hamiltonian_at(lih_table, r)
        for psi in (random_state(rng, 3), *np.eye(8, dtype=complex)):
            assert apply(h, psi).tobytes() == term_loop(h, psi).tobytes()
    empty = PauliHamiltonian((), n_qubits=2)
    assert np.array_equal(apply(empty, random_state(rng, 2)), np.zeros(4))


def test_expectation_z_eigenstate():
    h = from_pairs([(1.0, "Z")])
    assert expectation(h, basis_state("0")) == pytest.approx(1.0)


def test_expectation_orthogonal():
    h = from_pairs([(1.0, "X")])
    assert expectation(h, basis_state("0")) == pytest.approx(0.0, abs=1e-15)


def test_expectation_hartree_fock_lih(lih_r15):
    # Brute-force oracle: dense matrix-vector product on |100>.
    psi = basis_state("100")
    brute = np.vdot(psi.amplitudes, to_dense_matrix(lih_r15) @ psi.amplitudes).real
    val = expectation(lih_r15, psi)
    assert val == pytest.approx(brute, abs=1e-12)
    assert val == pytest.approx(-7.9534, abs=1e-10)
    # The HF energy sits above the exact ground energy (sign cross-check).
    assert val > np.linalg.eigvalsh(to_dense_matrix(lih_r15))[0]


def test_expectation_dimension_mismatch():
    h = from_pairs([(1.0, "ZZ")])
    with pytest.raises(ValueError):
        expectation(h, basis_state("0"))


def plus_x_weight():
    return DensityMatrix(0.5 * np.array([[1, 1], [1, 1]], dtype=complex))


def test_weighted_partial_trace_zx():
    h = from_pairs([(1.0, "ZX")])
    reduced = weighted_partial_trace(h, {0}, plus_x_weight())
    assert reduced.n_qubits == 1
    assert coefficient(reduced, "Z") == pytest.approx(1.0)


def test_weighted_partial_trace_zz_vanishes():
    h = from_pairs([(1.0, "ZZ")])
    reduced = weighted_partial_trace(h, {0}, plus_x_weight())
    assert len(reduced.words) == 0


def test_weighted_partial_trace_lih_matches_dense(lih_r15):
    reduced = weighted_partial_trace(lih_r15, {0, 1}, plus_x_weight())
    # Dense oracle: Tr_b((I_a x rho_b) H) contracted index-wise.
    dense = to_dense_matrix(lih_r15).reshape(2, 2, 2, 2, 2, 2)
    rho = plus_x_weight().elements
    oracle = np.einsum("abcdef,fc->abde", dense, rho).reshape(4, 4)
    assert np.max(np.abs(to_dense_matrix(reduced) - oracle)) < 1e-10


def test_weighted_partial_trace_random_matches_dense(rng):
    for _ in range(10):
        h = from_pairs(random_hamiltonian_pairs(rng, 3, 6),
                                        n_qubits=3)
        amps = random_state(rng, 1)
        rho = DensityMatrix(np.outer(amps, amps.conj()))
        reduced = weighted_partial_trace(h, {0, 1}, rho)
        dense = to_dense_matrix(h).reshape(2, 2, 2, 2, 2, 2)
        oracle = np.einsum("abcdef,fc->abde", dense, rho.elements).reshape(4, 4)
        assert np.max(np.abs(to_dense_matrix(reduced) - oracle)) < 1e-10


def test_weighted_partial_trace_bad_partition(lih_r15):
    with pytest.raises(ValueError):
        weighted_partial_trace(lih_r15, {0, 5}, plus_x_weight())
    with pytest.raises(ValueError):
        weighted_partial_trace(lih_r15, {0, 1, 2}, plus_x_weight())


@pytest.mark.parametrize("weight", [np.array([[1, 1], [0, 0]]),
                                    np.array([[0.5, np.nan], [np.nan, 0.5]])])
def test_weighted_partial_trace_checks_raw_weight(weight):
    h = from_pairs([(1.0, "ZX"), (0.5, "XZ")])
    with pytest.raises(ValueError, match="density matrix"):
        weighted_partial_trace(h, {0}, weight)


def test_pauli_decompose_identity():
    h = pauli_decompose(np.eye(4))
    assert len(h.words) == 1
    assert coefficient(h, "II") == pytest.approx(1.0)


def test_pauli_decompose_diag_z():
    h = pauli_decompose(np.diag([1.0, -1.0]))
    assert len(h.words) == 1
    assert coefficient(h, "Z") == pytest.approx(1.0)


def test_pauli_decompose_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    for bad in (m, np.stack([np.eye(2), m])):   # one matrix of a stack fails it
        with pytest.raises(ValueError, match="not Hermitian"):
            pauli_decompose(bad)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (3, 3), (2, 4, 2), (1, 1, 2, 2)])
def test_pauli_decompose_rejects_bad_shapes(shape):
    with pytest.raises(ValueError, match="not square power-of-two"):
        pauli_decompose(np.zeros(shape))


def test_decompose_round_trip_random(rng):
    for n in (1, 2, 3, 4):
        h = from_pairs(random_hamiltonian_pairs(rng, n, 8),
                                        n_qubits=n)
        back = pauli_decompose(to_dense_matrix(h))
        assert back.n_qubits == n
        for c, word in zip(h.coeffs.tolist(), h.words):
            assert coefficient(back, word) == pytest.approx(c, abs=1e-9)
        assert np.max(np.abs(to_dense_matrix(back) - to_dense_matrix(h))) < 1e-9


def test_expectation_linearity(rng):
    amps = random_state(rng, 2)
    sv = StateVector(amps)
    pairs = random_hamiltonian_pairs(rng, 2, 5)
    total = from_pairs(pairs, n_qubits=2)
    split = sum(
        expectation(from_pairs([p], n_qubits=2), sv) for p in pairs
    )
    assert expectation(total, sv) == pytest.approx(split, abs=1e-10)


def test_canonicalization_merges_and_drops():
    h = from_pairs([(0.5, "ZI"), (0.25, "ZI"), (1e-16, "XX")])
    assert len(h.words) == 1
    assert coefficient(h, "ZI") == pytest.approx(0.75)


def test_mixed_qubit_counts_rejected():
    with pytest.raises(ValueError):
        from_pairs([(1.0, "Z"), (1.0, "ZZ")])
