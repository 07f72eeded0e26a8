"""Estimation of the McLachlan linear system A theta-dot = B.

Two interchangeable routes are provided, each a run object made once per
run over a stack of B Hamiltonian rows.  The exact route (ExactRun)
evaluates the defining inner products directly on statevectors:

    A_ij = Re <d_i psi | d_j psi>
    B_i  = -Re <d_i psi | H | psi>

with |d_i psi> built from the ansatz derivative descriptors, for one
circuit or for the B rows of a batched one at once (A and B stacked).
The Hadamard route (SampledRun) expands the same sums into one ancilla
test job per summand, in job order per row A(i, j), i <= j, prefactor
conj(p) p, then B(i, l), prefactor -conj(p) h_l of term l, where p is
DERIVATIVE_PREFACTOR; the ancilla is prepared in (|0> + e^{i phi}
|1>)/sqrt(2), phi the prefactor's angle, and its Z expectation times the
prefactor's modulus (the job's weight) is the summand's real part.  A
test circuit is three slices of the ansatz gate tuple with controlled
Pauli gates between them.  Evaluated without sampling, the two routes
agree to machine precision; with shots they agree statistically.
"""

from __future__ import annotations

from collections.abc import Sized
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit, _program
from .pauli import PauliHamiltonian, _term_stack, apply_sums, real_part, weighted_terms
from .simulator import (Gate, StateVector, apply_planned, check_norms, check_shots, check_unit,
                        controlled_pauli, dot_rounds_apart, hadamard, measure_z_expectation,
                        rotation_matrix, run_gates, sample_z, x, z_marginals)

EXACT_EIG_CUTOFF = 1e-8
SHOT_EIG_CUTOFF = 1e-3              # looser: shot noise inflates the small eigenvalues
PASS_ROWS = 8                       # rows per measured pass of a SampledRun call
ABS_EIG_FLOOR = 1e-12


class McLachlanSystem(NamedTuple):
    """A and B of the variational linear system, with their provenance."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    route: str = "exact"            # "exact" or "hadamard"
    shots: int | None = None


class HadamardTestCircuit(NamedTuple):
    """One ancilla test: phased ancilla, gate list, Z measurement.

    The ancilla, the last qubit, is prepared in (|0> + e^{i ancilla_phase}
    |1>)/sqrt(2) and measured; the system qubits start in `system_reference`.
    """

    gates: tuple[Gate, ...]
    ancilla_phase: float
    system_reference: StateVector


class HadamardJob(NamedTuple):
    """A test circuit plus its weight and destination entry."""

    circuit: HadamardTestCircuit
    weight: float
    destination: tuple              # ("A", i, j) with i <= j, or ("B", i)


def compute_exact(ansatz: AnsatzCircuit, h: PauliHamiltonian) -> McLachlanSystem:
    """A and B by direct statevector inner products (ExactRun), for a circuit
    at one angle vector and its Hamiltonian, or at B angle rows and a stack
    of B rows (A and B stacked)."""
    batch = ansatz.parameters.ndim == 2
    _, a, b, _ = ExactRun(ansatz, h)()
    return McLachlanSystem(a if batch else a[0], b if batch else b[0])


class ExactRun:
    """The exact route over a stack of B Hamiltonian rows, made once per run:
    the row checks, the stack's words and (B, L) coefficients, their weighted
    terms, the pair indices and one buffer.  A call is the circuit's rotation
    stack rewritten at `theta`, (B, gamma) angles (else ValueError; None keeps
    the stack), one sweep into the buffer (the first call in each mode
    records its numpy calls, later ones repeat them), one H|psi> gather and
    one pair product of (1, L) @ (L, 1) matmuls, bitwise np.vdot, whose
    <psi|psi> checks each norm: (states, A, B, energies <psi|H|psi> as
    real_part), or without `system` the states alone, norm-checked by
    check_unit, as views of the buffer until the next call."""

    def __init__(self, ansatz: AnsatzCircuit, h: PauliHamiltonian) -> None:
        self.columns = h.words, _check_rows(ansatz, h)
        n, gamma, rows = ansatz.n_system_qubits, ansatz.n_parameters, len(self.columns[1])
        self.ansatz, self.pairs, self.programs = ansatz, _pairs(gamma), {}
        self.terms = weighted_terms(*self.columns, n)
        self.stack = np.empty(((gamma + 2) * rows, 2 ** n), dtype=complex)
        self.kets = self.stack.reshape(gamma + 2, rows, -1)   # psi, each d_i, H|psi>
        self.rotations = np.array(ansatz._rotations)   # (gamma, [B,] 2, 2), rewritten by calls
        self.angles = self.rotations.swapaxes(0, -3).reshape(rows, gamma, 2, 2)   # a view

    def __call__(self, theta=None, system: bool = True) -> tuple:
        if theta is not None:   # new angles of the circuit's rotations
            if np.shape(theta) != self.angles.shape[:2]:
                raise ValueError(f"angles of shape {np.shape(theta)}, not {self.angles.shape[:2]}")
            rotation_matrix(self.ansatz._axes, theta, self.angles)
        if system in self.programs:
            for function, args in self.programs[system]:
                function(*args)
        else:   # the first sweep records its numpy calls for the next ones
            self.ansatz.sweep(self.rotations, self.stack, system,
                              self.programs.setdefault(system, []))
        kets, (bra, ket, a_cols, b_cols, *_) = self.kets, self.pairs
        if not system:
            check_unit(kets[0])
            return kets[0], None, None, None
        np.multiply(DERIVATIVE_PREFACTOR, kets[1:-1], out=kets[1:-1])   # branch i -> d_i
        apply_sums(self.terms, kets[0], kets[-1])
        # v[b, k] = <d_i|d_j> of the k-th pair i <= j, then <d_i|H|psi>, <psi|H|psi>
        # and <psi|psi>, of row b; take makes A and B C-contiguous, as BLAS must read them
        v = (kets[bra].conj()[:, :, None, :] @ kets[ket][:, :, :, None])[..., 0, 0].T
        check_norms(np.sqrt(v[:, -1].real))
        energies, v = real_part(v[:, -2]), v.real
        return kets[0], v.take(a_cols, axis=1), -v.take(b_cols, axis=1), energies


@lru_cache(maxsize=16)
def _pairs(gamma: int) -> tuple[np.ndarray, ...]:
    """(bra, ket) ExactRun stack indices (psi, d_i, H|psi> at 0, i + 1, gamma + 1)
    of the pairs (d_i, d_j), i <= j, for A, (d_i, H|psi>) for B, (psi, H|psi>)
    and (psi, psi); the pair of each A entry and of each B entry; A's i, j."""
    i, j = np.triu_indices(gamma)
    a_cols = np.empty((gamma, gamma), dtype=np.intp)
    a_cols[i, j] = a_cols[j, i] = np.arange(len(i))
    return (np.r_[i + 1, 1:gamma + 1, 0, 0], np.r_[j + 1, [gamma + 1] * (gamma + 1), 0],
            a_cols, len(i) + np.arange(gamma), i, j)


def _layout(gamma: int, coeffs: list[float]) -> list:
    """The jobs of one row with `gamma` parameters and Hamiltonian
    coefficients `coeffs`, in job order (module docstring), as (word, phase,
    weight, destination); A jobs have no word."""
    p = DERIVATIVE_PREFACTOR
    sums = [(float(np.angle(c)), float(abs(c)))
            for c in [np.conj(p) * p] + [-np.conj(p) * h_l for h_l in coeffs]]
    jobs = [(None, *sums[0], ("A", i, j)) for i in range(gamma) for j in range(i, gamma)]
    return jobs + [(l, *sums[l + 1], ("B", i)) for i in range(gamma) for l in range(len(coeffs))]


def _check_rows(ansatz: AnsatzCircuit, h: PauliHamiltonian) -> np.ndarray:
    """h's (B, L) coefficients, B the circuit's angle rows, else ValueError."""
    rows, coeffs = len(np.atleast_2d(ansatz.parameters)), np.atleast_2d(h.coeffs)
    if len(coeffs) != rows:
        raise ValueError(f"{rows} angle rows but {len(coeffs)} Hamiltonians")
    if h.n_qubits != ansatz.n_system_qubits:
        raise ValueError("ansatz and Hamiltonian qubit counts disagree")
    return coeffs


def build_hadamard_circuits(ansatz: AnsatzCircuit,
                            h: PauliHamiltonian) -> list[HadamardJob]:
    """One weighted test circuit per A/B summand of _layout: the ansatz gates g
    cut at the insertion points p_i, A(i, j) as g[:p_i] + anti_i + g[p_i:p_j]
    + ctrl_j + g[p_j:] + final and B(i, l) as g[:p_i] + anti_i + g[p_i:] +
    c-h_l + final, c-h_l the l-th Hamiltonian word controlled on the ancilla;
    h is one sum or a one-row stack (compute_sampled takes a stack)."""
    coeffs = h.one_row("compute_sampled")[0].tolist()
    _check_rows(ansatz, h)
    n, g, descs = ansatz.n_system_qubits, tuple(ansatz.gates), ansatz.descriptors
    ctrl = [tuple(controlled_pauli(n, range(n), d.sigma.letters)) for d in descs]
    anti, final = [(x(n), *c, x(n)) for c in ctrl], (hadamard(n),)
    tails = [tuple(controlled_pauli(n, range(n), w)) for w in h.words]
    pts, jobs = [d.insertion_point for d in descs], []
    for word, phase, weight, (kind, i, *j) in _layout(len(descs), coeffs):
        pj, tail = (pts[j[0]], ctrl[j[0]] + g[pts[j[0]]:]) if j else (len(g), tails[word])
        gates = g[:pts[i]] + anti[i] + g[pts[i]:pj] + tail + final
        jobs.append(HadamardJob(HadamardTestCircuit(gates, phase, ansatz.reference_state),
                                weight, (kind, i, *j)))
    return jobs


@lru_cache(maxsize=2)
def _table(descriptors, labels: tuple[str, ...], rows: int, coeff_bytes: bytes) -> tuple:
    """The Hadamard jobs of B rows whose Hamiltonian stack has the (B, L)
    coefficients `coeff_bytes` over the words `labels`,
    compiled for SampledRun from these values and the ansatz family alone:
    (phases, head, zero, one, words, src, sign, entry, weight, sizes), a
    row's terms its nonzero coefficients.

    Each row sweeps K = head + 2 gamma half-states of the system qubits,
    one ancilla branch each: F0 = ref/sqrt(2) (ancilla 0), F1 = e^{i phi}
    ref/sqrt(2) (ancilla 1) per distinct phase phi, the A phase first, and
    on 2 qubits a copy of F0 if that makes K even; then per descriptor j
    B_j = sigma_j F0 and C_j = sigma_j F1[A phase], joined at p_j.  Job k
    (rows in turn) takes half-state zero[k] (row b's B_i, b K + head + 2 i)
    for ancilla 0 and one[k] for ancilla 1: C_j for A(i, j), F1 of its
    phase for B(i, l), gathered through union word words[k] (-1: the
    identity appended to the word stack), and adds its weighted value to
    entry[k] of A (B, gamma, gamma) then B (B, gamma), flattened.  sizes:
    each row's job count."""
    gamma, coeffs = len(descriptors), np.frombuffer(coeff_bytes).reshape(rows, len(labels))
    n = len(descriptors[0].sigma.letters)   # the qubits of each full-width descriptor word
    kept = [np.flatnonzero(c).tolist() for c in coeffs]
    jobs = [_layout(gamma, c[k].tolist()) for c, k in zip(coeffs, kept)]
    phases = list(dict.fromkeys([job[1] for row in jobs for job in row]))
    head = 1 + len(phases)
    head += head % 2 * dot_rounds_apart(n, False)     # K even: see SampledRun
    cols, width = [], head + 2 * gamma
    for b, (k, row) in enumerate(zip(kept, jobs)):
        cols += [(b * width + head + 2 * i,
                  b * width + (head + 2 * j[0] + 1 if j else 1 + phases.index(phase)),
                  -1 if word is None else k[word],
                  (b * gamma + i) * gamma + j[0] if j else (rows * gamma + b) * gamma + i, w)
                 for word, phase, w, (kind, i, *j) in row]
    zero, one, words, entry = np.array([c[:4] for c in cols], dtype=np.intp).T
    return (phases, head, zero, one, words, *_term_stack((*labels, "I" * n), n), entry,
            np.array([c[4] for c in cols]), [len(row) for row in jobs])


def _start(ref: StateVector, phases) -> np.ndarray:
    """ref (x) (|0> + e^{i phi} |1>)/sqrt(2) per phase, a norm-checked tensor stack."""
    amps = np.stack([ref.amplitudes[:, None] * (np.array([1.0, np.exp(1j * phi)], dtype=complex)
                                                / np.sqrt(2.0)) for phi in phases])
    check_unit(amps.reshape(len(phases), -1))
    return amps.reshape((len(phases),) + (2,) * (ref.n_qubits + 1))


def evaluate_circuit(circuit: HadamardTestCircuit) -> float:
    """Run one test circuit and return the exact ancilla Z expectation."""
    start = _start(circuit.system_reference, [circuit.ancilla_phase])
    return float(measure_z_expectation(run_gates(start, circuit.gates))[0])


def compute_sampled(ansatz: AnsatzCircuit, h, shots: int | None,
                    seed=None) -> McLachlanSystem:
    """A and B from the Hadamard-test circuits, as one SampledRun call, for
    one angle vector and Hamiltonian or for B rows and a stack (A and B stacked).
    shots=None evaluates every circuit analytically (the exact-mode switch);
    otherwise each ancilla expectation is a binomial estimate with the given
    shot count, drawn from `seed` (ValueError if missing): an integer seed or
    a numpy Generator, then drawn from in place, one per row for a batch."""
    batch = ansatz.parameters.ndim == 2
    run = ExactRun(ansatz, h)
    _, a, b = SampledRun(run, shots, seed if batch and seed is not None else [seed])()
    return McLachlanSystem(a if batch else a[0], b if batch else b[0], "hadamard", shots)


class SampledRun:
    """The Hadamard route of an ExactRun's rows, made once per run from it: the
    job table (_table), the rows' starting half-states, the sweep steps, one
    Generator per row from `seeds` (ValueError unless check_shots passes and
    shot mode has a seed for each row).  A call reads the ExactRun's rotation
    stack as its last call left it and returns (ancilla <Z> of every job, A,
    B), A and B adding the weighted values from 0.0 in job order.

    Until the closing H the ansatz acts on each ancilla branch of a test
    alone, so one forward sweep runs each ansatz gate once over the (B, K)
    half-states of _table: a (B, 2, 2) rotation as one matmul per row, a
    shared gate as one np.dot, a join as a signed permutation.  Each pass of
    PASS_ROWS rows gathers its jobs' states into the call's buffer (sized for
    the largest pass) as one contiguous (2, k, 2^n) array, ancilla first, that
    the final H reads without a copy: a job's zero row, and its word's signs
    times its one row permuted by the word (exact products by +-1 or +-i),
    and writes their z_marginals into one (2, jobs) array.  Then sample_z
    checks every norm before each row draws its jobs in job order.  By the
    width rule of simulator (2 K wide per row on 2 qubits, hence K even) each
    value and draw is bitwise that of the job's circuit run alone.
    """

    def __init__(self, exact: ExactRun, shots: int | None, seeds) -> None:
        ansatz, (labels, coeffs) = exact.ansatz, exact.columns
        self.n, self.gamma, rows = ansatz.n_system_qubits, ansatz.n_parameters, len(coeffs)
        check_shots(shots)
        # len(), as per-row seeds of unequal lengths do not stack; an int or a Generator is one seed
        count = len(seeds) if isinstance(seeds, Sized) and getattr(seeds, "ndim", 1) else None
        if shots is not None and (count != rows or any(s is None for s in seeds)):
            raise ValueError(f"shot mode needs a seed or generator for each of the {rows} rows")
        self.table = _table(ansatz.descriptors, labels, rows, coeffs.tobytes())
        phases, head, _, one, words, src, *_, sizes = self.table
        amps = _start(ansatz.reference_state, phases).reshape(len(phases), -1, 2)
        halves = [amps[:1, :, 0], amps[:, :, 1], amps[:head - 1 - len(phases), :, 0]] * rows
        self.halves = np.concatenate(halves).reshape((rows, head) + (2,) * self.n)
        self.steps = _program(ansatz._fixed, ansatz.descriptors, self.n, 2)
        self.rotations, self.shots, self.final = exact.rotations, shots, (hadamard(self.n),)
        self.rngs = None if shots is None else list(map(np.random.default_rng, seeds))
        ends = np.cumsum([0, *sizes]).tolist()
        ks = [slice(ends[r], ends[min(r + PASS_ROWS, rows)]) for r in range(0, rows, PASS_ROWS)]
        self.passes = [(k, one[k, None] * 2 ** self.n + src[words[k]], words[k]) for k in ks]

    def __call__(self) -> tuple:
        (_, _, zero, *_, sign, entry, weight, sizes), t = self.table, self.halves
        n, gamma, rows = self.n, self.gamma, len(sizes)
        for source, step in self.steps:     # a join adds B_j, C_j: sigma_j of F0, F1[A phase]
            t = (np.concatenate([t, step[1] * t[:, :2][step[0]]], axis=1) if source is None
                 else apply_planned(t, source if isinstance(source, np.ndarray)
                                    else self.rotations[source], step))
        t, marg = t.reshape(-1, 2 ** n), np.empty((2, len(entry)))
        buffer = np.empty(2 * max(len(w) for *_, w in self.passes) << n, dtype=complex)
        for jobs, flat, words in self.passes:   # the pass's job states, ancilla first
            out = buffer[:2 * len(words) << n].reshape((2, -1) + (2,) * n)
            t.take(zero[jobs], axis=0, out=out[0].reshape(-1, 2 ** n))
            np.multiply(sign.take(words, axis=0), t.take(flat), out=out[1].reshape(-1, 2 ** n))
            out = run_gates(out.transpose(*range(1, n + 2), 0), self.final)   # qubit order
            marg[:, jobs] = z_marginals(out)
        values = sample_z(marg, self.shots, self.rngs, sizes)
        cut = rows * gamma * gamma
        ab = np.bincount(entry, weight * values, cut + rows * gamma)
        a, (*_, i, j) = ab[:cut].reshape(-1, gamma, gamma), _pairs(gamma)
        a[:, j, i] = a[:, i, j]
        return values, a, ab[cut:].reshape(-1, gamma)


def solve_update(sys: McLachlanSystem, dtau) -> tuple[np.ndarray, np.ndarray]:
    """(delta theta, stationary), delta theta = dtau * pinv(A) B by eigen-
    decomposition, of one system or a stack (A (..., gamma, gamma), dtau a
    scalar or one per system): one stacked eigh, bitwise per system.
    Eigenvalues below the route's relative cutoff times the max eigenvalue
    are dropped; if the whole spectrum sits below the absolute floor the
    update is zero and flagged stationary.  For a 1x1 system: (B/A) dtau.
    """
    dtau = np.asarray(dtau, dtype=float)
    if not all(0 < t < np.inf for t in dtau.ravel().tolist()):  # NaN fails too
        raise ValueError("dtau must be positive and finite")
    eps_cut = SHOT_EIG_CUTOFF if (sys.route == "hadamard" and sys.shots) else EXACT_EIG_CUTOFF
    lam, vec = np.linalg.eigh(sys.a_matrix)
    lam_max = lam[..., -1:]                     # eigh sorts ascending
    keep = lam > eps_cut * lam_max
    inv = keep / np.where(keep, lam, 1.0)       # 1/lam where kept, else 0.0
    coef = inv[..., None] * (vec.swapaxes(-1, -2) @ sys.b_vector[..., None])
    delta = dtau[..., None] * (vec @ coef)[..., 0]
    stationary = lam_max[..., 0] < ABS_EIG_FLOOR
    delta[stationary] = 0.0
    return delta, stationary
