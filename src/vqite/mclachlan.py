"""Estimation of the McLachlan linear system A theta-dot = B.

Two interchangeable routes are provided.  The exact route evaluates the
defining inner products directly on statevectors:

    A_ij = Re <d_i psi | d_j psi>
    B_i  = -Re <d_i psi | H | psi>

with |d_i psi> built from the ansatz derivative descriptors, for one
circuit or for the B rows of a batched one at once (A and B stacked).
The Hadamard route expands the same sums into one ancilla test circuit per
A entry and per (Hamiltonian term, B entry); the ancilla is prepared in
(|0> + e^{i phi} |1>)/sqrt(2) with phi absorbing the complex prefactor
of the summand, and the ancilla Z expectation then yields the summand's
real part.  A test circuit is three slices of the ansatz gate tuple with
controlled Pauli gates between them.  One estimate runs all its tests as
one stacked pass (hadamard_z), every expectation and draw bitwise that of
the test run alone.  Evaluated without sampling, the two routes agree to
machine precision; with shots they agree statistically.

The linear solve uses an eigenvalue pseudo-inverse with a relative cutoff
(1e-8 exact route, 1e-3 shot route, where noise inflates the small
eigenvalues), one stacked eigh for all rows; a fully degenerate A yields
a zero update flagged as stationary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit
from .pauli import PauliHamiltonian, _term_stack, apply_sums, term_columns
from .simulator import (Gate, StateVector, check_norms, controlled_pauli, hadamard,
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

    The ancilla, the last qubit, is prepared in (|0> + e^{i ancilla_phase}
    |1>)/sqrt(2) and measured; the system qubits start in `system_reference`.
    """

    gates: tuple[Gate, ...]
    ancilla_phase: float
    system_reference: StateVector


@dataclass(frozen=True, slots=True)
class HadamardJob:
    """A test circuit plus its weight and destination entry."""

    circuit: HadamardTestCircuit
    weight: float
    destination: tuple              # ("A", i, j) with i <= j, or ("B", i)


def ancilla_state(phase: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * phase)], dtype=complex) / np.sqrt(2.0)


def compute_exact(ansatz: AnsatzCircuit, h) -> McLachlanSystem:
    """A and B by direct statevector inner products, for a circuit at one
    angle vector and its Hamiltonian, or at B angle rows and B Hamiltonians
    (A and B stacked).  Each inner product is a (1, L) @ (L, 1) matmul,
    bitwise np.vdot; H|psi> gathers over the union of the rows' words."""
    batch = ansatz.parameters.ndim == 2
    hs = list(h) if batch else [h]
    if any(x.n_qubits != ansatz.n_system_qubits for x in hs):
        raise ValueError("ansatz and Hamiltonian qubit counts disagree")
    gamma, d = ansatz.n_parameters, ansatz.derivatives
    kets = np.concatenate([d, apply_sums(*term_columns(hs), ansatz.states())[None]])
    # v[i, j, b] = <d_i|d_j> (j < gamma) and <d_i|H|psi> (j = gamma) of row b
    v = (d.conj()[:, None, :, None, :] @ kets[None, :, :, :, None])[..., 0, 0].real
    a, (low, up) = v[:, :gamma].transpose(2, 0, 1), _lower(gamma)
    a[:, low, up] = a[:, up, low]
    b = -np.ascontiguousarray(v[:, gamma].T)  # BLAS rounds a strided b otherwise
    return McLachlanSystem(a if batch else a[0], b if batch else b[0], route="exact")


@lru_cache(maxsize=16)
def _lower(gamma: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(gamma, -1)


@lru_cache(maxsize=2)
def _inserted_gates(sigmas: tuple[str, ...], terms: tuple[str, ...], anc: int) -> tuple:
    """(ctrl, anti, tails, final) for the descriptor strings `sigmas` and
    Hamiltonian strings `terms` on qubits 0..anc-1, controlled on `anc`."""
    ctrl = tuple(tuple(controlled_pauli(anc, range(anc), s)) for s in sigmas)
    tails = tuple(tuple(controlled_pauli(anc, range(anc), t)) for t in terms)
    return ctrl, tuple((x(anc), *c, x(anc)) for c in ctrl), tails, (hadamard(anc),)


def _layout(ansatz: AnsatzCircuit, h: PauliHamiltonian) -> tuple:
    """(jobs, tails, final): each A/B summand in job order as (prefix,
    word, phase, weight, destination), cut from the ansatz gates g at the
    insertion points p_i; its circuit is prefix + tails[word] + final.

    A(i, j), i <= j: prefix g[:p_i] + anti_i + g[p_i:p_j] + ctrl_j + g[p_j:],
    no word, prefactor conj(p) p; ctrl_i is sigma_i controlled on the
    ancilla and anti_i = X ctrl_i X.  B(i, l): prefix g[:p_i] + anti_i +
    g[p_i:], one tuple for all l, word l (tails[l] is the l-th Hamiltonian
    string controlled), prefactor -conj(p) h_l.  p is DERIVATIVE_PREFACTOR;
    phase and weight are the prefactor's angle and modulus.  Inserted
    gates are shared (_inserted_gates), so prefixes compare by identity.
    """
    if h.n_qubits != ansatz.n_system_qubits:
        raise ValueError("ansatz and Hamiltonian qubit counts disagree")
    p = DERIVATIVE_PREFACTOR
    g = tuple(ansatz.gates)
    pts = [d.insertion_point for d in ansatz.descriptors]
    ctrl, anti, tails, final = _inserted_gates(
        tuple([d.sigma.letters for d in ansatz.descriptors]),
        tuple([sig_l.letters for _, sig_l in h.terms]), ansatz.n_system_qubits)
    sums = [(float(np.angle(c)), float(abs(c)))
            for c in [np.conj(p) * p] + [-np.conj(p) * h_l for h_l, _ in h.terms]]
    jobs = [(g[:pi] + anti[i] + g[pi:pj] + ctrl[j] + g[pj:], None, *sums[0], ("A", i, j))
            for i, pi in enumerate(pts) for j, pj in enumerate(pts) if j >= i]
    for i, pi in enumerate(pts):
        prefix = g[:pi] + anti[i] + g[pi:]
        jobs += [(prefix, l, *sums[l + 1], ("B", i)) for l in range(h.n_terms)]
    return jobs, tails, final


def build_hadamard_circuits(ansatz: AnsatzCircuit,
                            h: PauliHamiltonian) -> list[HadamardJob]:
    """One weighted test circuit per A/B summand of _layout."""
    jobs, tails, final = _layout(ansatz, h)
    ref = ansatz.reference_state
    return [HadamardJob(HadamardTestCircuit(
                prefix + (() if word is None else tails[word]) + final, phase, ref),
                weight, dest)
            for prefix, word, phase, weight, dest in jobs]


def _start(ref: StateVector, phases) -> np.ndarray:
    """ref (x) ancilla_state(phi) per phase, as a norm-checked tensor stack."""
    amps = np.stack([ref.amplitudes[:, None] * ancilla_state(phi) for phi in phases])
    check_norms(np.linalg.norm(amps.reshape(len(phases), -1), axis=1))
    return amps.reshape((len(phases),) + (2,) * (ref.n_qubits + 1))


def evaluate_circuit(circuit: HadamardTestCircuit, shots: int | None = None,
                     rng=None) -> float:
    """Run one test circuit and return the ancilla Z expectation."""
    start = _start(circuit.system_reference, [circuit.ancilla_phase])
    return float(measure_z_expectation(run_gates([start], circuit.gates)[-1], shots, rng)[0])


def hadamard_z(ansatz: AnsatzCircuit, h: PauliHamiltonian, shots: int | None = None,
               rng=None) -> tuple[list, np.ndarray]:
    """(jobs of _layout, ancilla <Z> of each) from one stacked pass.

    Per insertion point i, the prefixes of A(i, j >= i) and of B(i) each
    run once on the stack of distinct ancilla phases, resuming after the
    gates shared with the prefix run before (run_gates).  A B job's word
    is one gather on the ancilla-1 half through the words' stacked signed
    permutations, exact since every product is by +-1 or +-i.  The final
    H and the measurement run once over all jobs, in job order.  On 3 or
    more qubits, and for the Pauli matrices of every controlled gate here,
    a gate gives each state of a stack the bytes it gives it alone, so
    each value and draw is bitwise that of the job's circuit run alone.
    """
    jobs, _, final = _layout(ansatz, h)
    n = ansatz.n_system_qubits
    phases = list(dict.fromkeys([phase for _, _, phase, *_ in jobs]))
    rows = np.array([phases.index(phase) for _, _, phase, *_ in jobs])
    words = np.array([-1 if word is None else word for _, word, *_ in jobs])
    src, sign = _term_stack(tuple([ps.letters for _, ps in h.terms]), n)
    out = np.empty((len(jobs), 2 ** n, 2), dtype=complex)
    states, done = [_start(ansatz.reference_state, phases)], ()
    order = sorted(range(len(jobs)), key=lambda k: jobs[k][-1][1])  # by i, A before B
    for _, group in groupby(order, key=lambda k: id(jobs[k][0])):
        first, *rest = group
        ks = slice(first, first + 1 + len(rest))  # a prefix's jobs are consecutive
        states, done = run_gates(states, jobs[first][0], done), jobs[first][0]
        t = states[-1].reshape(len(phases), -1, 2)
        out[ks] = t[rows[ks]]
        if words[first] >= 0:
            w = words[ks]
            out[ks, :, 1] = sign[w] * t[rows[ks, None], src[w], 1]
    final_states = run_gates([out.reshape((len(jobs),) + (2,) * (n + 1))], final)[-1]
    return jobs, measure_z_expectation(final_states, shots, rng)


def compute_sampled(ansatz: AnsatzCircuit, h: PauliHamiltonian,
                    shots: int | None, seed=None) -> McLachlanSystem:
    """A and B from the Hadamard-test circuits (hadamard_z).

    shots=None evaluates every circuit analytically (the exact-mode
    switch); otherwise each ancilla expectation is a seeded binomial
    estimate with the given shot count.  `seed` is an integer seed or a
    numpy Generator, which is then drawn from in place.  A and B add the
    weighted values from 0.0 in job order.
    """
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1 (or None for exact mode)")
    rng = np.random.default_rng(seed) if shots is not None else None
    jobs, values = hadamard_z(ansatz, h, shots, rng)
    gamma = ansatz.n_parameters
    entry = [d[1] * gamma + d[2] if d[0] == "A" else gamma * gamma + d[1]
             for *_, d in jobs]
    ab = np.zeros(gamma * gamma + gamma)
    np.add.at(ab, entry, np.array([weight for *_, weight, _ in jobs]) * values)
    a, (low, up) = ab[:gamma * gamma].reshape(gamma, gamma), _lower(gamma)
    a[low, up] = a[up, low]
    return McLachlanSystem(a, ab[gamma * gamma:], route="hadamard", shots=shots)


@dataclass(frozen=True)
class UpdateResult:
    delta_theta: np.ndarray
    stationary: bool


def solve_update(sys: McLachlanSystem, dtau) -> UpdateResult:
    """delta theta = dtau * pinv(A) B via eigen-decomposition, for one system
    or a stack (A of shape (..., gamma, gamma), dtau a scalar or one per
    system): one stacked eigh, bitwise per system.  Eigenvalues below the
    route's relative cutoff times the max eigenvalue are dropped; if the
    whole spectrum sits below the absolute floor the update is zero and the
    result is flagged stationary.  For a 1x1 system this is (B/A) * dtau.
    """
    dtau = np.asarray(dtau, dtype=float)
    if not (0 < dtau.min() and dtau.max() < np.inf):  # NaN fails too
        raise ValueError("dtau must be positive and finite")
    eps_cut = SHOT_EIG_CUTOFF if (sys.route == "hadamard" and sys.shots) else EXACT_EIG_CUTOFF
    lam, vec = np.linalg.eigh(np.asarray(sys.a_matrix, dtype=float))
    lam_max = lam.max(axis=-1, keepdims=True)
    keep = lam > eps_cut * lam_max
    inv = np.where(keep, 1.0, 0.0) / np.where(keep, lam, 1.0)
    coef = inv * (vec.swapaxes(-1, -2) @ sys.b_vector[..., None])[..., 0]
    delta = dtau[..., None] * (vec @ coef[..., None])[..., 0]
    stationary = lam_max[..., 0] < ABS_EIG_FLOOR
    delta[stationary] = 0.0
    return UpdateResult(delta, stationary)
