import numpy as np
import pytest

from vqite import hamiltonian_at, load_h2_synthetic_table, load_lih_table


@pytest.fixture(scope="session")
def lih_table():
    return load_lih_table()


@pytest.fixture(scope="session")
def h2_table():
    return load_h2_synthetic_table()


@pytest.fixture(scope="session")
def lih_r15(lih_table):
    return hamiltonian_at(lih_table, 1.5)


@pytest.fixture(scope="session")
def h2_r07(h2_table):
    return hamiltonian_at(h2_table, 0.7)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, n_qubits):
    amps = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return amps / np.linalg.norm(amps)


def random_hamiltonian_pairs(rng, n_qubits, n_terms):
    """Random real Pauli sum as (coefficient, letters) pairs."""
    letters = "IXYZ"
    pairs = []
    for _ in range(n_terms):
        word = "".join(rng.choice(list(letters)) for _ in range(n_qubits))
        pairs.append((float(rng.normal()), word))
    return pairs


PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}


def pauli_kron(word):
    """Dense matrix of a Pauli word: Kronecker product, letter 0 outermost."""
    return embed({q: PAULI[c] for q, c in enumerate(word)}, len(word))


def embed(ops, n_qubits):
    """Kronecker product with ops[q] on qubit q and identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for q in range(n_qubits):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def gate_unitary(gate, n_qubits):
    """Dense 2^n x 2^n unitary of one gate by Kronecker embedding:
    |0><0|_c (x) I + |1><1|_c (x) M_t for a controlled gate."""
    if gate.control is None:
        return embed({gate.target: gate.matrix}, n_qubits)
    return (embed({gate.control: np.diag([1.0, 0.0])}, n_qubits)
            + embed({gate.control: np.diag([0.0, 1.0]), gate.target: gate.matrix},
                    n_qubits))


def circuit_unitary(gates, n_qubits):
    """Dense unitary of a whole gate list."""
    u = np.eye(2 ** n_qubits, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n_qubits) @ u
    return u


def tensordot_on_axis(t, m, q):
    """2x2 matrix m on axis q of an amplitude tensor by np.tensordot and
    np.moveaxis: the form the gate kernel must match bitwise and in layout."""
    return np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)


def tensordot_gate(t, gate):
    """One gate on an amplitude tensor through tensordot_on_axis; a
    controlled gate acts on the control=|1> slice of a copy."""
    if gate.control is None:
        return tensordot_on_axis(t, gate.matrix, gate.target)
    t = t.copy()
    branch = (slice(None),) * gate.control + (1,)
    t[branch] = tensordot_on_axis(t[branch], gate.matrix,
                                  gate.target - (gate.target > gate.control))
    return t


def term_loop(h, psi):
    """H|psi> as a loop over the terms, summed from zero."""
    out = np.zeros(psi.shape, dtype=complex)
    for c, ps in h.terms:
        out += c * ps.apply(psi)
    return out
