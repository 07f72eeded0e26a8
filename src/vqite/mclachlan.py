"""Estimation of the McLachlan linear system A theta-dot = B.

Two interchangeable routes are provided.  The exact route evaluates the
defining inner products directly on statevectors:

    A_ij = Re <d_i psi | d_j psi>
    B_i  = -Re <d_i psi | H | psi>

with |d_i psi> built from the ansatz derivative descriptors.  The
Hadamard route expands the same sums into one ancilla test circuit per
A entry and per (Hamiltonian term, B entry); the ancilla is prepared in
(|0> + e^{i phi} |1>)/sqrt(2) with phi absorbing the complex prefactor
of the summand, and the ancilla Z expectation then yields the summand's
real part.  A test circuit is three slices of the ansatz gate tuple
with controlled Pauli gates between them, kept for the last two sets of
strings.  simulator.run_gates resumes each from the longest gate prefix
it shares with the last one run from the same ancilla phase; its states
come from the same gate applications on the same arrays, so every
expectation and binomial draw is bitwise that of a run from scratch.
Evaluated without sampling, the two routes agree to machine precision;
with shots they agree statistically.

The linear solve uses an eigenvalue pseudo-inverse with a relative cutoff
(1e-8 exact route, 1e-3 shot route, where noise inflates the small
eigenvalues); a fully degenerate A yields a zero update flagged as
stationary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit
from .pauli import PauliHamiltonian
from .simulator import (Gate, StateVector, controlled_pauli, hadamard,
                        measure_z_expectation, run_gates, x)

EXACT_EIG_CUTOFF = 1e-8
SHOT_EIG_CUTOFF = 1e-3
ABS_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class McLachlanSystem:
    """A and B of the variational linear system, with their provenance."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    route: str = "exact"            # "exact" or "hadamard"
    shots: int | None = None


@dataclass(frozen=True, slots=True)
class HadamardTestCircuit:
    """One ancilla test: phased ancilla, gate list, Z measurement.

    The ancilla, `measured_qubit`, follows the system qubits and is
    prepared in (|0> + e^{i ancilla_phase} |1>)/sqrt(2); the system qubits
    start in `system_reference`.
    """

    gates: tuple[Gate, ...]
    ancilla_phase: float
    measured_qubit: int
    system_reference: StateVector


@dataclass(frozen=True, slots=True)
class HadamardJob:
    """A test circuit plus its weight and destination entry."""

    circuit: HadamardTestCircuit
    weight: float
    destination: tuple              # ("A", i, j) with i <= j, or ("B", i)


def ancilla_state(phase: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * phase)], dtype=complex) / np.sqrt(2.0)


def compute_exact(ansatz: AnsatzCircuit, h: PauliHamiltonian) -> McLachlanSystem:
    """A and B by direct statevector inner products."""
    if h.n_qubits != ansatz.n_system_qubits:
        raise ValueError("ansatz and Hamiltonian qubit counts disagree")
    gamma = ansatz.n_parameters
    derivs = [ansatz.derivative_state(i) for i in range(gamma)]
    h_psi = h.apply(ansatz.state().amplitudes)
    a = np.zeros((gamma, gamma))
    b = np.zeros(gamma)
    for i in range(gamma):
        for j in range(i, gamma):
            a[i, j] = a[j, i] = np.vdot(derivs[i], derivs[j]).real
        b[i] = -np.vdot(derivs[i], h_psi).real
    return McLachlanSystem(a, b, route="exact")


@lru_cache(maxsize=2)
def _inserted_gates(sigmas: tuple[str, ...], terms: tuple[str, ...], anc: int) -> tuple:
    """(ctrl, anti, tails, final) for the descriptor strings `sigmas` and
    Hamiltonian strings `terms` on qubits 0..anc-1, controlled on `anc`."""
    ctrl = tuple(tuple(controlled_pauli(anc, range(anc), s)) for s in sigmas)
    tails = tuple(tuple(controlled_pauli(anc, range(anc), t)) for t in terms)
    return ctrl, tuple((x(anc), *c, x(anc)) for c in ctrl), tails, (hadamard(anc),)


def build_hadamard_circuits(ansatz: AnsatzCircuit,
                            h: PauliHamiltonian) -> list[HadamardJob]:
    """One weighted test circuit per A/B summand, cut from the ansatz
    gates g at the insertion points p_i.

    A(i, j), i <= j: g[:p_i] + anti_i + g[p_i:p_j] + ctrl_j + g[p_j:] + H,
    with ctrl_i the sigma of descriptor i controlled on the ancilla and
    anti_i = X ctrl_i X its anti-controlled form; the ancilla phase
    absorbs conj(p) p.  B(i, l): g[:p_i] + anti_i + g[p_i:] + tail_l + H,
    tail_l the l-th Hamiltonian string controlled, phase absorbing
    -conj(p) h_l.  Here p is DERIVATIVE_PREFACTOR.  Each inserted gate
    list is shared by every circuit that contains it (_inserted_gates),
    so circuits compare by gate identity.
    """
    if h.n_qubits != ansatz.n_system_qubits:
        raise ValueError("ansatz and Hamiltonian qubit counts disagree")
    anc = ansatz.n_system_qubits
    p = DERIVATIVE_PREFACTOR
    g = tuple(ansatz.gates)
    pts = [d.insertion_point for d in ansatz.descriptors]
    ctrl, anti, tails, final = _inserted_gates(
        tuple([d.sigma.letters for d in ansatz.descriptors]),
        tuple([sig_l.letters for _, sig_l in h.terms]), anc)

    def job(gates, prefactor, destination):
        circ = HadamardTestCircuit(gates, float(np.angle(prefactor)), anc,
                                   ansatz.reference_state)
        return HadamardJob(circ, float(abs(prefactor)), destination)

    jobs = [job(g[:pi] + anti[i] + g[pi:pj] + ctrl[j] + g[pj:] + final,
                np.conj(p) * p, ("A", i, j))
            for i, pi in enumerate(pts) for j, pj in enumerate(pts) if j >= i]
    jobs += [job(g[:pi] + anti[i] + g[pi:] + tail + final, -np.conj(p) * h_l, ("B", i))
             for i, pi in enumerate(pts) for (h_l, _), tail in zip(h.terms, tails)]
    return jobs


def evaluate_circuit(circuit: HadamardTestCircuit, shots: int | None = None,
                     rng=None, memo: dict | None = None) -> float:
    """Run one test circuit and return the ancilla Z expectation.

    `memo`, shared by the circuits of one compute_sampled call, keeps per
    ancilla phase the reference state, the gates of the last circuit run
    and the state after each; a circuit on the same reference resumes
    from the longest gate prefix it shares with them (run_gates).
    """
    memo = {} if memo is None else memo
    ref = circuit.system_reference
    start, done, states = memo.get(circuit.ancilla_phase, (None, (), None))
    if start is not ref:
        init = StateVector(np.kron(ref.amplitudes, ancilla_state(circuit.ancilla_phase)))
        done, states = (), [init.amplitudes.reshape((2,) * init.n_qubits)]
    states = run_gates(states, circuit.gates, done)
    memo[circuit.ancilla_phase] = (ref, circuit.gates, states)
    final = StateVector(states[-1].reshape(-1))
    return measure_z_expectation(final, circuit.measured_qubit, shots=shots, rng=rng)


def assemble_system(jobs: list[HadamardJob], values, gamma: int,
                    route: str, shots: int | None) -> McLachlanSystem:
    a = np.zeros((gamma, gamma))
    b = np.zeros(gamma)
    for job, z in zip(jobs, values):
        if job.destination[0] == "A":
            _, i, j = job.destination
            a[i, j] += job.weight * z
        else:
            _, i = job.destination
            b[i] += job.weight * z
    for i in range(gamma):
        for j in range(i + 1, gamma):
            a[j, i] = a[i, j]
    return McLachlanSystem(a, b, route=route, shots=shots)


def compute_sampled(ansatz: AnsatzCircuit, h: PauliHamiltonian,
                    shots: int | None, seed=None) -> McLachlanSystem:
    """A and B from the Hadamard-test circuits.

    shots=None evaluates every circuit analytically (the exact-mode
    switch); otherwise each ancilla expectation is a seeded binomial
    estimate with the given shot count.  `seed` is an integer seed or a
    numpy Generator, which is then drawn from in place.
    """
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1 (or None for exact mode)")
    jobs = build_hadamard_circuits(ansatz, h)
    rng = np.random.default_rng(seed) if shots is not None else None
    memo: dict = {}
    values = [evaluate_circuit(job.circuit, shots=shots, rng=rng, memo=memo)
              for job in jobs]
    return assemble_system(jobs, values, ansatz.n_parameters, "hadamard", shots)


@dataclass(frozen=True)
class UpdateResult:
    delta_theta: np.ndarray
    stationary: bool


def solve_update(sys: McLachlanSystem, dtau: float) -> UpdateResult:
    """delta theta = dtau * pinv(A) B via eigen-decomposition.

    Eigenvalues below the route's relative cutoff times the max eigenvalue
    are dropped; if the whole spectrum sits below the absolute floor the
    update is zero and the result is flagged stationary.  For a 1x1 system
    this reduces to (B/A) * dtau.
    """
    if not 0 < dtau < np.inf:  # NaN fails too
        raise ValueError("dtau must be positive and finite")
    eps_cut = SHOT_EIG_CUTOFF if (sys.route == "hadamard" and sys.shots) else EXACT_EIG_CUTOFF
    lam, vec = np.linalg.eigh(np.asarray(sys.a_matrix, dtype=float))
    lam_max = float(lam.max())
    if lam_max < ABS_EIG_FLOOR:
        return UpdateResult(np.zeros_like(sys.b_vector), True)
    keep = lam > eps_cut * lam_max
    inv = np.where(keep, 1.0, 0.0) / np.where(keep, lam, 1.0)
    delta = dtau * (vec @ (inv * (vec.T @ sys.b_vector)))
    return UpdateResult(delta, False)
