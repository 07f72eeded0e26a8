"""Gate set, statevector evolution and measurement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import circuit_unitary, embed, gate_unitary, random_state
from vqite import (DensityMatrix, StateVector, basis_state, measure_z_expectation,
                   run_circuit)
from vqite.pauli import PAULI_MATRICES
from vqite import simulator
from vqite.simulator import (HADAMARD, Gate, cnot, controlled_pauli, cz, gate_plan,
                             hadamard, run_gates, rx, ry, rz, x, y, z, z_marginals)

ALL_GATE_SAMPLES = [
    rx(0, 0.7), ry(1, -1.3), rz(0, 2.1), hadamard(1), x(0), y(1), z(0),
    cnot(0, 1), cz(1, 0), *controlled_pauli(0, (1, 2), "XY"),
]


def test_every_gate_unitary():
    for k, g in enumerate(ALL_GATE_SAMPLES):
        u = gate_unitary(g, 3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12, k


def test_shared_matrices_are_read_only():
    # x(), cnot() and controlled_pauli hand out these arrays themselves.
    assert cnot(0, 1).matrix is PAULI_MATRICES["X"]
    for m in (*PAULI_MATRICES.values(), HADAMARD, rx(0, 0.3).matrix):
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    own = np.eye(2, dtype=complex)
    Gate(own, 0)
    assert not own.flags.writeable


def test_rz_phase_on_basis_state():
    out = run_circuit(basis_state("0"), [rz(0, 0.8)])
    assert np.allclose(out.amplitudes, [np.exp(-0.4j), 0.0])


def test_cnot_flips_target():
    out = run_circuit(basis_state("10"), [cnot(0, 1)])
    assert np.allclose(out.amplitudes, basis_state("11").amplitudes)
    out = run_circuit(basis_state("01"), [cnot(0, 1)])
    assert np.allclose(out.amplitudes, basis_state("01").amplitudes)


def test_rx_inverse_pair(rng):
    state = StateVector(random_state(rng, 2))
    out = run_circuit(run_circuit(state, [rx(1, np.pi / 2)]), [rx(1, -np.pi / 2)])
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-10


def test_gate_index_errors():
    with pytest.raises(ValueError):
        run_circuit(basis_state("00"), [rx(2, 1.0)])
    with pytest.raises(ValueError):
        run_circuit(basis_state("00"), [x(0), cnot(2, 1)])
    with pytest.raises(ValueError):
        cnot(1, 1)


def test_empty_circuit_is_identity(rng):
    state = StateVector(random_state(rng, 3))
    out = run_circuit(state, [])
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_controlled_pauli_chains_factors(rng):
    # c-(X1 Y2) is the factor list c-X1, c-Y2; identity letters are skipped.
    factors = controlled_pauli(0, (1, 2), "XY")
    assert [(g.target, g.control) for g in factors] == [(1, 0), (2, 0)]
    assert [g.target for g in controlled_pauli(0, (1, 2), "IY")] == [2]
    assert controlled_pauli(0, (1, 2), "II") == []
    state = StateVector(random_state(rng, 3))
    p = PAULI_MATRICES
    dense = (embed({0: np.diag([1.0, 0.0])}, 3)
             + embed({0: np.diag([0.0, 1.0]), 1: p["X"], 2: p["Y"]}, 3))
    out = run_circuit(state, factors).amplitudes
    assert np.max(np.abs(out - dense @ state.amplitudes)) < 1e-12


def test_cnot_equals_h_cz_h():
    lhs = gate_unitary(cnot(0, 1), 2)
    rhs = (gate_unitary(hadamard(1), 2)
           @ gate_unitary(cz(0, 1), 2)
           @ gate_unitary(hadamard(1), 2))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_two_cz_gates_cancel(rng):
    state = StateVector(random_state(rng, 2))
    out = run_circuit(state, [cz(0, 1), cz(0, 1)])
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_norm_preserved_random_circuits(rng):
    kinds = [lambda q: rx(q, rng.uniform(-np.pi, np.pi)),
             lambda q: ry(q, rng.uniform(-np.pi, np.pi)),
             lambda q: rz(q, rng.uniform(-np.pi, np.pi)),
             hadamard, x, y, z]
    for n in (2, 3, 4):
        state = StateVector(random_state(rng, n))
        gates = []
        for _ in range(40):
            if rng.random() < 0.3 and n >= 2:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(cnot(int(a), int(b)) if rng.random() < 0.5
                             else cz(int(a), int(b)))
            else:
                gates.append(kinds[rng.integers(len(kinds))](int(rng.integers(n))))
        out = run_circuit(state, gates)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def z_of(state, **kw):
    """<Z> of the last qubit of one StateVector, as a stack of one."""
    return measure_z_expectation(state.amplitudes[None], **kw)[0]


def test_measure_z_exact():
    assert z_of(basis_state("0")) == pytest.approx(1.0)
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
    assert z_of(plus) == pytest.approx(0.0, abs=1e-15)


def test_measure_z_shots_within_binomial_bound():
    # <Z> = 0.6; 3 sigma of the binomial estimator at 1e6 shots.
    amps = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
    state = StateVector(amps)
    est = z_of(state, shots=10 ** 6, rng=11)
    assert abs(est - 0.6) < 3.0 * np.sqrt((1 - 0.36) / 10 ** 6)


def test_measure_z_shot_estimator_unbiased():
    amps = np.array([np.sqrt(0.7), np.sqrt(0.3) * 1j], dtype=complex)
    state = StateVector(amps)
    exact = z_of(state)
    shots = 4000
    runs = [z_of(state, shots=shots, rng=seed) for seed in range(100)]
    se = np.sqrt((1 - exact ** 2) / shots / len(runs))
    assert abs(np.mean(runs) - exact) < 4 * se


def test_measure_z_rejects_bad_shots():
    with pytest.raises(ValueError):
        z_of(basis_state("0"), shots=0, rng=1)
    with pytest.raises(ValueError):
        z_of(basis_state("0"), shots=10)


@pytest.mark.parametrize("shots", [1, 7, 1000, 10_000])
def test_measure_z_stack_equals_one_by_one(rng, shots):
    # The last qubit of each state; one binomial call over the stack draws
    # what one scalar call per state draws, and leaves the same generator.
    stack = np.array([random_state(rng, 3) for _ in range(40)]
                     + [basis_state("001").amplitudes, basis_state("000").amplitudes])
    gen, twin = np.random.default_rng(shots), np.random.default_rng(shots)
    got = measure_z_expectation(stack.reshape(-1, 2, 2, 2), shots, gen)
    exact = measure_z_expectation(stack)
    for k, amps in enumerate(stack):
        probs = np.abs(amps.reshape(2, 2, 2)) ** 2
        marg = probs.sum(axis=(0, 1))
        assert exact[k] == float(marg[0] - marg[1])
        p = min(max((1.0 + exact[k]) / 2.0, 0.0), 1.0)
        assert got[k] == 2.0 * twin.binomial(shots, p) / shots - 1.0
    assert (exact[-2], exact[-1]) == (-1.0, 1.0)
    assert gen.bit_generator.state == twin.bit_generator.state


def test_measure_z_rows_draw_from_their_own_generators(rng):
    # With sizes, generator r draws for the next sizes[r] states: what one
    # call per row draws, each generator left in that call's state.
    stack = np.array([random_state(rng, 3) for _ in range(9)]).reshape(-1, 2, 2, 2)
    sizes, seeds = [4, 1, 4], [11, 12, 13]
    gens = [np.random.default_rng(s) for s in seeds]
    twins = [np.random.default_rng(s) for s in seeds]
    got = simulator.sample_z(z_marginals(stack), 1000, gens, sizes)
    bounds = np.cumsum([0, *sizes])
    want = np.concatenate([measure_z_expectation(stack[a:b], 1000, twin)
                           for a, b, twin in zip(bounds, bounds[1:], twins)])
    assert got.tobytes() == want.tobytes()
    assert [g.bit_generator.state for g in gens] == [t.bit_generator.state for t in twins]


@pytest.mark.parametrize("shots", [1, 7, 10_000])
def test_sample_z_count_array_draws_as_the_int_count(shots):
    # sample_z hands each generator its slice of one count array; numpy
    # draws what an int count draws, in the same order: p = 0 and p = 1,
    # p > 0.5 (drawn as 1 - p), small n*p (inversion) and, at 10,000 shots,
    # n*p > 30 (BTPE), over rows of 3, 0 and 4 states.
    p = np.array([0.0, 1.0, 0.8, 0.99, 0.001, 0.3, 0.5])
    marg, sizes, seeds = np.stack([p, 1.0 - p]), [3, 0, 4], [(5, 1), (5, 2), (5, 3)]
    gens, twins = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
    got = simulator.sample_z(marg, shots, gens, sizes)
    q = np.clip((1.0 + (marg[0] - marg[1])) / 2.0, 0.0, 1.0)
    counts = [t.binomial(shots, q[a:b]) for t, a, b in zip(twins, (0, 3, 3), (3, 3, 7))]
    assert got.tobytes() == (2.0 * np.concatenate(counts) / shots - 1.0).tobytes()
    assert [g.bit_generator.state for g in gens] == [t.bit_generator.state for t in twins]
    assert shots < 10_000 or (shots * np.minimum(q, 1 - q) > 30).any()


def test_measure_z_rejects_sizes_unlike_the_stack(rng):
    # With sizes, each generator draws for its own states: a generator count
    # other than len(sizes), or sizes not adding up to the stack, would leave
    # states unmeasured or hand their draws to another row's generator.
    stack = np.array([random_state(rng, 3) for _ in range(5)])
    gens = [np.random.default_rng(s) for s in (1, 2)]
    with pytest.raises(ValueError, match="sizes"):
        simulator.sample_z(z_marginals(stack), 100, gens[:1], [2, 3])
    with pytest.raises(ValueError, match="sizes"):
        simulator.sample_z(z_marginals(stack), 100, gens, [2, 2])
    assert len(simulator.sample_z(z_marginals(stack), 100, gens, [2, 3])) == 5


def test_measure_z_names_bad_sizes_and_generators(rng):
    # A negative size that its neighbour cancels adds up to the stack but
    # hands one generator every state and the next none; an integer seed
    # with sizes is not a generator per size.  Each is a ValueError naming
    # its cause, raised before any draw.
    stack = np.array([random_state(rng, 3) for _ in range(5)])
    gens, twins = ([np.random.default_rng(s) for s in (1, 2)] for _ in range(2))
    with pytest.raises(ValueError, match=r"sizes \[6, -1\] must be non-negative"):
        simulator.sample_z(z_marginals(stack), 100, gens, [6, -1])
    with pytest.raises(ValueError, match="one seed or generator for each of the sizes"):
        simulator.sample_z(z_marginals(stack), 100, 7, [2, 3])
    assert [g.bit_generator.state for g in gens] == [t.bit_generator.state for t in twins]


@pytest.mark.parametrize("shots", [2.5, 2.0, True, False, np.float64(10.0), "10"])
def test_measure_z_refuses_shots_that_are_not_an_int(shots):
    # binomial would draw from int(shots) trials while the estimate divides
    # by shots: 2.5 shots of an exact <Z> = +1 read 0.6.  A bool is no shot
    # count either.  The check comes before any draw.
    gen, twin = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        z_of(basis_state("00"), shots=shots, rng=gen)
    assert gen.bit_generator.state == twin.bit_generator.state
    assert z_of(basis_state("00"), shots=np.int64(3), rng=gen) == 1.0


def index_order_z(amps):
    """Ancilla <Z> of one state: np.abs(amps) ** 2 of its contiguous
    amplitudes, each ancilla branch added from 0.0 in index order."""
    marg = [0.0, 0.0]
    for k, p in enumerate((np.abs(np.ascontiguousarray(amps).reshape(-1)) ** 2).tolist()):
        marg[k % 2] += p
    return marg[0] - marg[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@settings(deadline=None, derandomize=True, max_examples=12)
@given(st.integers(0, 4), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, 1, 7, 10_000]))
def test_marginal_is_index_order_sum_on_every_layout(n, q, count, seed, shots):
    # Flat (S, 2^N) stacks, C-contiguous tensor stacks and the transposed
    # views run_gates returns all give each state the marginal of its
    # amplitudes added in index order, bit for bit, and the draws of a twin
    # generator fed those values one state at a time.
    draw = np.random.default_rng(seed)
    flat = np.array([random_state(draw, n) for _ in range(count)])
    tensors = flat.reshape((count,) + (2,) * n)
    view = run_gates(tensors, (hadamard(q % n),))
    assert count == 1 or not view.flags.c_contiguous
    for stack in (flat, tensors, view):
        want = [index_order_z(amps) for amps in stack]
        gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = measure_z_expectation(stack, shots, gen if shots else None)
        if shots:
            want = [2.0 * twin.binomial(shots, min(max((1.0 + z) / 2.0, 0.0), 1.0)) / shots - 1.0
                    for z in want]
        assert got.tobytes() == np.array(want).tobytes()
        assert gen.bit_generator.state == twin.bit_generator.state


def test_nan_fails_state_checks():
    with pytest.raises(ValueError, match="norm"):
        StateVector([np.nan, 0])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="norm"):
        measure_z_expectation(np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="norm"):
        measure_z_expectation(np.array([[1.0, 0.0], [1.0, 1.0]]), shots=5, rng=1)


@pytest.mark.parametrize("gate", [rx(-1, 0.3), rx(3, 0.3), rx(4, 0.3), cnot(-1, 0),
                                  cnot(3, 1)])
def test_gate_range_checked_on_stacks(monkeypatch, gate):
    # Qubit q of a stack is axis q + 1: a target or control of -1 would land
    # on the stack axis, so gate_plan checks the register's qubits 0..n-1
    # before the kernel applies anything.
    applied = []
    monkeypatch.setattr(simulator, "apply_planned",
                        lambda t, m, plan, *stack: applied.append(plan) or t)
    stack = np.zeros((3, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="outside 0..2"):
        run_gates(stack, (x(0), gate, x(1)))
    assert applied == [gate_plan(x(0), 3, per_state=False)]


def test_density_matrix_validation(rng):
    amps = random_state(rng, 2)
    rho = DensityMatrix(np.outer(amps, amps.conj()))
    assert rho.elements.shape == (4, 4)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4))           # trace 4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_circuit_unitary_matches_run(rng):
    state = StateVector(random_state(rng, 2))
    gates = [hadamard(0), cnot(0, 1), rz(1, 0.4)]
    u = circuit_unitary(gates, 2)
    assert np.max(np.abs(u @ state.amplitudes
                         - run_circuit(state, gates).amplitudes)) < 1e-12
