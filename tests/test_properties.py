"""Property tests: Pauli kernel, decomposition, partial trace, CMF reduction, circuits."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (apply, apply_word, canonical_oracle, circuit_unitary, cmf_oracle, coefficient,
                      decompose_oracle, dense_oracle, embed, from_pairs, partial_trace_oracle,
                      pauli_kron, reduction_bytes, reduction_rows, row_views, stacked,
                      tensordot_gate, term_bytes, term_columns, term_loop)
from vqite import (PauliHamiltonian, StateVector, cmf_reduce_rows,
                   pauli_decompose, run_circuit, to_dense_matrix, weighted_partial_trace)
from vqite.pauli import PAULI_MATRICES
from vqite.simulator import (Gate, apply_gate, cnot, controlled_pauli,
                             cz, hadamard, rx, ry, rz, x, y, z)

PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)
COEFF = st.floats(-2.0, 2.0)
AMPLITUDE = st.complex_numbers(max_magnitude=1.0)


def words(n):
    return st.text("IXYZ", min_size=n, max_size=n)


def vectors(n):
    return arrays(complex, 2 ** n, elements=AMPLITUDE).filter(
        lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def hamiltonians(draw, n_qubits):
    pairs = draw(st.lists(st.tuples(COEFF, words(n_qubits)), max_size=8))
    return from_pairs(pairs, n_qubits=n_qubits)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(words(n), vectors(n))))
def test_string_apply_matches_matrix(case):
    # Every entry is an amplitude times 0, +-1 or +-i, so equality is exact.
    word, psi = case
    oracle = pauli_kron(word)
    assert np.array_equal(to_dense_matrix(from_pairs([(1.0, word)])), oracle)
    assert np.array_equal(apply_word(word, psi), oracle @ psi)


def canonical(build, pairs, n_qubits):
    """(words, coefficient bytes) that build(pairs, n_qubits) gives, or "ValueError"."""
    try:
        words, coeffs = build(pairs, n_qubits)
    except ValueError:
        return "ValueError"
    return words, coeffs.tobytes()


def hamiltonian_terms(pairs, n_qubits):
    h = from_pairs(pairs, n_qubits=n_qubits)
    return h.words, h.coeffs


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_canonical_form_is_dict_merge(n, data):
    # Duplicates (merged from 0.0 in input order), exact cancellations,
    # terms with |c| <= 1e-14 and any order give the terms of the dict-merge
    # oracle bit for bit; a bad letter, a wrong width and a non-finite
    # coefficient each raise ValueError wherever they sit.
    coeff = st.one_of(COEFF, st.floats(-1e-14, 1e-14),
                      st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 1.5e-14]))
    pairs = data.draw(st.lists(st.tuples(coeff, words(n)), max_size=10))
    pairs += [(-c, w) for c, w in pairs[:data.draw(st.integers(0, 3))]]
    pairs = data.draw(st.permutations(pairs + pairs[:data.draw(st.integers(0, 3))]))
    width = data.draw(st.sampled_from([n, 0]))
    assert (canonical(hamiltonian_terms, pairs, width)
            == canonical(canonical_oracle, pairs, width))
    at = data.draw(st.integers(0, len(pairs)))
    letter = data.draw(st.sampled_from("AQxi_"))
    for bad in [(1.0, letter * n), (1.0, "Z" * (n + 1)), (1.0, "Z" * (n - 1)),
                (data.draw(st.sampled_from([np.nan, np.inf, -np.inf])), "I" * n)]:
        broken = pairs[:at] + [bad] + pairs[at:]
        for build in (canonical_oracle, hamiltonian_terms):
            assert canonical(build, broken, n) == "ValueError", (build, bad)


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_term_columns_is_union_loop(n, data):
    # The stacked constructor (B rows of coefficients over one word tuple)
    # equals the B one-row constructors joined by term_columns, bit for bit:
    # with duplicate words, entries <= 1e-14 (0.0 and -0.0 among them) in some
    # rows only, and a column tiny in every row; the one-row view of each
    # stack row is the constructor of that row alone.  term_columns writes
    # each row's coefficients at its word's column of the sorted union.
    tiny = st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 5e-15])
    letters = data.draw(st.lists(words(n), max_size=8))
    letters += data.draw(st.lists(st.sampled_from(letters), max_size=3)) if letters else []
    rows = data.draw(st.integers(1, 4))
    coeffs = data.draw(arrays(float, (rows, len(letters)), elements=st.one_of(COEFF, tiny)))
    if data.draw(st.booleans()):            # a word tiny in every row
        letters.append(data.draw(words(n)))
        coeffs = np.column_stack([coeffs, data.draw(arrays(float, rows, elements=tiny))])
    stack, hs = PauliHamiltonian(letters, coeffs, n), [PauliHamiltonian(letters, c, n)
                                                       for c in coeffs]
    labels = tuple(sorted({w for h in hs for w in h.words}))
    oracle = np.zeros((len(hs), len(labels)))
    for b, h in enumerate(hs):
        for w, c in zip(h.words, h.coeffs.tolist()):
            oracle[b, labels.index(w)] = c
    got_labels, got = term_columns(hs)
    assert got_labels == labels and got.tobytes() == oracle.tobytes()
    assert stack.words == labels and stack.coeffs.tobytes() == oracle.tobytes()
    for c, h in zip(stack.coeffs, hs, strict=True):
        assert term_bytes(PauliHamiltonian(stack.words, c, n)) == term_bytes(h)


@PROPERTY
@given(st.integers(1, 3).flatmap(hamiltonians))
def test_decompose_dense_round_trip(h):
    back = pauli_decompose(to_dense_matrix(h))
    assert back.n_qubits == h.n_qubits
    labels = set(h.words + back.words)
    for letters in labels:
        assert abs(coefficient(back, letters) - coefficient(h, letters)) < 1e-9


@PROPERTY
@given(hamiltonians(3), st.sets(st.integers(0, 2), min_size=1, max_size=2),
       st.data())
def test_partial_trace_matches_dense(h, keep, data):
    keep = sorted(keep)
    comp = [q for q in range(3) if q not in keep]
    da, db = 2 ** len(keep), 2 ** len(comp)
    m = data.draw(arrays(complex, (db, db), elements=AMPLITUDE))
    rho = m @ m.conj().T + np.eye(db)
    rho /= np.trace(rho).real
    order = keep + comp
    t = to_dense_matrix(h).reshape((2,) * 6).transpose(order + [3 + q for q in order])
    # Tr_b((I_a x rho_b) H)[a, a'] = sum_{b, b'} rho[b, b'] H[(a, b'), (a', b)]
    oracle = np.einsum("xcyd,dc->xy", t.reshape(da, db, da, db), rho)
    reduced = weighted_partial_trace(h, keep, rho)
    assert np.max(np.abs(to_dense_matrix(reduced) - oracle)) < 1e-10


# The signed-permutation forms multiply only by 0, +-1 and +-i and sum in the
# order of the matrix-product forms they replaced, so they match bit for bit.

@PROPERTY
@given(st.integers(1, 4).flatmap(hamiltonians))
def test_dense_matrix_is_kronecker_sum_bitwise(h):
    assert to_dense_matrix(h).tobytes() == dense_oracle(h).tobytes()


@PROPERTY
@given(st.integers(2, 4).flatmap(hamiltonians), st.data())
def test_partial_trace_is_matrix_product_bitwise(h, data):
    n = h.n_qubits
    for keep in (s for size in range(1, n) for s in combinations(range(n), size)):
        db = 2 ** (n - len(keep))
        m = data.draw(arrays(complex, (db, db), elements=AMPLITUDE))
        rho = m @ m.conj().T + np.eye(db)
        rho /= np.trace(rho).real
        assert (term_bytes(weighted_partial_trace(h, keep, rho))
                == term_bytes(partial_trace_oracle(h, keep, rho))), keep


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda n: arrays(complex, (2 ** n,) * 2, elements=AMPLITUDE)))
def test_decompose_is_matrix_product_bitwise(a):
    m = a + a.conj().T
    assert term_bytes(pauli_decompose(m)) == term_bytes(decompose_oracle(m))
    # a stack expands each of its matrices as that matrix alone
    stack = np.stack([m, m.T, 2.0 * m])
    assert [term_bytes(h) for h in row_views(pauli_decompose(stack))] == [
        term_bytes(pauli_decompose(x)) for x in stack]


@st.composite
def reduction_batches(draw):
    """1-4 random 3-qubit Hamiltonians of 1-13 terms, each drawn from a word
    pool the batch shares, from words of its own, or from both."""
    pool = draw(st.lists(words(3), min_size=1, max_size=13))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 13))
        source = draw(st.sampled_from([st.sampled_from(pool), words(3),
                                       st.one_of(st.sampled_from(pool), words(3))]))
        letters = draw(st.lists(source, min_size=size, max_size=size))
        coeffs = draw(st.lists(COEFF, min_size=size, max_size=size))
        batch.append(from_pairs(zip(coeffs, letters), n_qubits=3))
    return batch


@PROPERTY
@given(reduction_batches())
def test_batched_reduction_is_per_row_oracle_bitwise(batch):
    expected = [reduction_bytes(*cmf_oracle(h)) for h in batch]
    assert reduction_rows(cmf_reduce_rows(stacked(batch))) == expected


@st.composite
def gates(draw, n):
    """One gate as a one-element list, or a controlled string's factors."""
    kind = draw(st.sampled_from(["rotation", "single", "two-qubit", "CP"]))
    q = draw(st.integers(0, n - 1))
    others = [t for t in range(n) if t != q]
    if kind == "rotation":
        return [draw(st.sampled_from([rx, ry, rz]))(q, draw(st.floats(-np.pi, np.pi)))]
    if kind == "single":
        return [draw(st.sampled_from([hadamard, x, y, z]))(q)]
    if kind == "two-qubit":
        return [draw(st.sampled_from([cnot, cz]))(q, draw(st.sampled_from(others)))]
    return controlled_pauli(q, others, draw(words(n - 1)))


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 4))
    gate_list = [g for gs in draw(st.lists(gates(n), max_size=8)) for g in gs]
    return n, gate_list, draw(vectors(n))


@PROPERTY
@given(circuits())
def test_run_circuit_matches_unitary(case):
    n, gate_list, psi = case
    psi = psi / np.linalg.norm(psi)
    out = run_circuit(StateVector(psi), gate_list).amplitudes
    assert np.max(np.abs(out - circuit_unitary(gate_list, n) @ psi)) < 1e-10


@PROPERTY
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1), st.permutations(range(n - 1)), words(n - 1))))
def test_controlled_pauli_matches_dense(case):
    n, c, order, word = case
    targets = [q + (q >= c) for q in order]      # the other qubits, in any order
    sigma = embed({t: PAULI_MATRICES[l] for t, l in zip(targets, word)}, n)
    # |0><0|_c (x) I + |1><1|_c (x) sigma
    dense = (embed({c: np.diag([1.0, 0.0])}, n)
             + embed({c: np.diag([0.0, 1.0])}, n) @ sigma)
    assert np.max(np.abs(circuit_unitary(controlled_pauli(c, targets, word), n)
                         - dense)) < 1e-12


MATRICES = arrays(complex, (2, 2), elements=AMPLITUDE)


def same_bits(a, b):
    return a.tobytes() == b.tobytes() and a.strides == b.strides


@st.composite
def stacks(draw, sizes=st.integers(1, 3), qubits=st.integers(1, 5)):
    """A stack of amplitude tensors, shape (S,) + (2,)*n: C-contiguous, or
    a transposed view such as the gate kernel returns."""
    shape = (draw(sizes),) + (2,) * draw(qubits)
    order = draw(st.permutations(range(len(shape)))) if draw(st.booleans()) else range(len(shape))
    t = draw(arrays(complex, tuple([shape[k] for k in order]), elements=AMPLITUDE))
    return t.transpose(np.argsort(order))


def random_gate(data, m, n):
    target = data.draw(st.integers(0, n - 1))
    control = data.draw(st.sampled_from([None, *(c for c in range(n) if c != target)]))
    return Gate(m, target, control)


@PROPERTY
@given(stacks(), MATRICES, st.data())
def test_apply_gate_is_tensordot_bitwise(t, m, data):
    # Qubit q of a stack is axis q + 1: the unstacked kernel on the shifted gate.
    gate = random_gate(data, m, t.ndim - 1)
    shifted = Gate(m, gate.target + 1, None if gate.control is None else gate.control + 1)
    assert same_bits(apply_gate(t, gate), tensordot_gate(t, shifted))


@PROPERTY
@given(stacks(st.integers(2, 40), st.integers(3, 4)), MATRICES, st.data())
def test_stacked_gate_is_per_state_bitwise(t, m, data):
    # What the stacked Hadamard pass rests on: a gate applied to a stack of
    # 3- or 4-qubit states gives each state the values of the gate applied
    # to it alone, up to the sign of zeros, which |amplitude|^2 drops.  A
    # controlled gate on 3 qubits acts on a 2-qubit branch, where BLAS
    # rounds a width-2 product differently; there the circuits use only
    # Pauli matrices, whose products are exact.
    gate = random_gate(data, m, t.ndim - 1)
    if gate.control is not None and t.ndim == 4:
        gate = Gate(PAULI_MATRICES[data.draw(st.sampled_from("XYZ"))], gate.target, gate.control)
    out = apply_gate(t, gate)
    for s in range(t.shape[0]):
        alone = apply_gate(t[s:s + 1], gate)
        assert (out[s] + 0.0).tobytes() == (alone[0] + 0.0).tobytes()


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(hamiltonians(n), vectors(n))))
def test_hamiltonian_apply_is_term_loop(case):
    h, psi = case
    for state in (psi, *np.eye(psi.size, dtype=complex)):
        assert apply(h, state).tobytes() == term_loop(h, state).tobytes()
