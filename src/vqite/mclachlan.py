"""Estimation of the McLachlan linear system A theta-dot = B.

Two interchangeable routes are provided, each a run object made once per
run over a stack of B Hamiltonian rows.  The exact route (ExactRun)
evaluates the defining inner products directly on statevectors:

    A_ij = Re <d_i psi | d_j psi>
    B_i  = -Re <d_i psi | H | psi>

with |d_i psi> built from the ansatz derivative descriptors, for one
circuit or for the B rows of a batched one at once (A and B stacked).
The Hadamard route expands the same sums into one ancilla test job per
summand, in job order per row A(i, j), i <= j, prefactor conj(p) p, then
B(i, l), prefactor -conj(p) h_l of term l, p = DERIVATIVE_PREFACTOR; the
all-I word has none, its -h Re <d_i psi|psi> being 0 at every angle.  The
ancilla is prepared in (|0> + e^{i phi} |1>)/sqrt(2), phi the prefactor's
angle, and its Z expectation times the prefactor's modulus (the job's
weight) is the summand's real part.  One array job table (_jobs), built
per run, serves both readers: build_hadamard_circuits makes each job's test
circuit (three slices of the ansatz gates, controlled Paulis between them),
every job's; SampledRun reads each job's value from the ExactRun call's
overlaps.  A job whose value is the same at every angle (_known: the A
diagonals, 1, and the jobs that are 0, such as A(0, 1) of UCC-LiH) is
known: it adds the call's exact value and draws nothing.  Each row draws
its other jobs in order from its own (seed, R) stream.  Without sampling
the routes agree to machine precision, with shots statistically.
"""

from __future__ import annotations

from collections.abc import Sized
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit
from .pauli import PauliHamiltonian, apply_sums, real_part, weighted_terms
from .simulator import (Gate, StateVector, check_norms, check_shots, check_unit, controlled_pauli,
                        hadamard, measure_z_expectation, rotation_matrix, run_gates, sample_z, x)

EXACT_EIG_CUTOFF = 1e-8
SHOT_EIG_CUTOFF = 1e-3              # looser: shot noise inflates the small eigenvalues
ABS_EIG_FLOOR = 1e-12
KNOWN_SPREAD = 1e-12                # a job's <Z> spread over the probe rows that marks it known


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
    check_unit, as views of the buffer until the next call.  `derived`: the
    last call had `system` and passed, so the buffer holds each d_i."""

    def __init__(self, ansatz: AnsatzCircuit, h: PauliHamiltonian) -> None:
        self.columns = h.words, _check_rows(ansatz, h)
        n, gamma, rows = ansatz.n_system_qubits, ansatz.n_parameters, len(self.columns[1])
        self.ansatz, self.pairs, self.programs, self.derived = ansatz, _pairs(gamma), {}, False
        self.terms = weighted_terms(*self.columns, n)
        self.stack = np.empty(((gamma + 2) * rows, 2 ** n), dtype=complex)
        self.kets = self.stack.reshape(gamma + 2, rows, -1)   # psi, each d_i, H|psi>
        self.rotations = np.array(ansatz._rotations)   # (gamma, [B,] 2, 2), rewritten by calls
        self.angles = self.rotations.swapaxes(0, -3).reshape(rows, gamma, 2, 2)   # a view

    def __call__(self, theta=None, system: bool = True) -> tuple:
        self.derived = False
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
        energies, v, self.derived = real_part(v[:, -2]), v.real, True
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


def _jobs(gamma: int, words, coeffs: np.ndarray) -> tuple:
    """The Hadamard jobs of a (B, L) coefficient stack over `words`, rows in
    turn and each row's in job order (module docstring): each job's row, i,
    column k of that row's (gamma, gamma + L) overlap block (j for A(i, j),
    gamma + l for B(i, l)) and prefactor.  The all-I word and the words of
    coefficient 0 have no job."""
    p, (*_, i, j), rows = DERIVATIVE_PREFACTOR, _pairs(gamma), len(coeffs)
    b_i, l = np.divmod(np.arange(gamma * len(words)), len(words))
    terms = (coeffs != 0) & np.array([bool(w.strip("I")) for w in words], dtype=bool)
    # a candidate per A pair (i, j), then per (i, l); nonzero lists the live ones, rows in turn
    row, c = np.nonzero(np.concatenate([np.ones((rows, len(i)), dtype=bool), terms[:, l]], 1))
    pre = np.concatenate([np.full((rows, len(i)), np.conj(p) * p), -np.conj(p) * coeffs[:, l]], 1)
    i, k = np.concatenate([i, b_i])[c], np.concatenate([j, gamma + l])[c]
    return row, i, k, pre[row, c]


def _overlaps(psi: np.ndarray, d: np.ndarray, terms: tuple) -> np.ndarray:
    """(B, gamma, gamma + L) Re <d_i|d_j>, then Re <d_i| -h_l P_l |psi>, of each
    row's psi (B, 2^n), d_i (gamma, B, 2^n) and weighted terms (src, (B or 1,
    L, 2^n)): one float dot of the real and imaginary parts, added in one order
    whatever rows run beside it (a stacked complex matmul rounds some one-row
    entries apart)."""
    src, terms = terms
    bra = d.swapaxes(0, 1)
    ket = np.concatenate([bra, -terms * psi[:, src]], axis=1)
    return np.einsum("bin,bkn->bik", bra.view(float), ket.view(float))


def _known(ansatz: AnsatzCircuit, words) -> np.ndarray:
    """(gamma, gamma + L) marks of the job columns (_jobs' k) over `words`
    whose ancilla <Z> takes one value, within KNOWN_SPREAD, at three fixed
    generic angle rows, theta_k = 2 sqrt(2 + k), 2 sqrt(2 + gamma + k) and
    2 sqrt(2 + 2 gamma + k): one unrecorded sweep of the circuit there, with
    unit coefficients.  A job's value is a trigonometric polynomial of degree
    <= 1 in each theta_k, so the 3^gamma grid theta_k in {0, 2 pi/3, 4 pi/3}
    proves a mark (tests/test_mclachlan.py); a wrong mark would drop that
    job's noise, never bias A or B, as a known job adds each call's exact
    value."""
    gamma = ansatz.n_parameters
    kets = ansatz.at(2.0 * np.sqrt(np.arange(2, 2 + 3 * gamma)).reshape(3, gamma))._sweep(True)
    terms = weighted_terms(words, np.ones((1, len(words))), ansatz.n_system_qubits)
    # each d_i at a unit prefactor, so that each overlap is its job's <Z>
    z = _overlaps(kets[0], DERIVATIVE_PREFACTOR / abs(DERIVATIVE_PREFACTOR) * kets[1:], terms)
    return z.max(axis=0) - z.min(axis=0) <= KNOWN_SPREAD


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
    """One weighted test circuit per job of the row's table (_jobs): the
    ansatz gates g cut at the insertion points p_i, A(i, j) as g[:p_i] +
    anti_i + g[p_i:p_j] + ctrl_j + g[p_j:] + final and B(i, l) as g[:p_i] +
    anti_i + g[p_i:] + c-h_l + final, c-h_l word l controlled on the ancilla,
    column k picking cut and tail; h is one sum or a one-row stack."""
    coeffs, ref = h.one_row("compute_sampled"), ansatz.reference_state
    _check_rows(ansatz, h)
    n, g, descs = ansatz.n_system_qubits, tuple(ansatz.gates), ansatz.descriptors
    ctrl = [tuple(controlled_pauli(n, range(n), d.sigma.letters)) for d in descs]
    anti, final = [(x(n), *c, x(n)) for c in ctrl], (hadamard(n),)
    pts, gamma, jobs = [d.insertion_point for d in descs], len(descs), []
    cuts = pts + [len(g)] * len(h.words)
    tails = [c + g[p:] for c, p in zip(ctrl, pts)] + [
        tuple(controlled_pauli(n, range(n), w)) for w in h.words]
    _, i_s, k_s, pre = _jobs(gamma, h.words, coeffs)
    for i, k, c in zip(i_s.tolist(), k_s.tolist(), pre.tolist()):
        gates = g[:pts[i]] + anti[i] + g[pts[i]:cuts[k]] + tails[k] + final
        jobs.append(HadamardJob(HadamardTestCircuit(gates, float(np.angle(c)), ref), abs(c),
                                ("A", i, k) if k < gamma else ("B", i)))
    return jobs


def evaluate_circuit(circuit: HadamardTestCircuit) -> float:
    """Run one test circuit from its system reference (x) (|0> + e^{i phi}
    |1>)/sqrt(2), phi its ancilla phase, and return the exact ancilla <Z>."""
    ref, ancilla = circuit.system_reference, np.exp(1j * circuit.ancilla_phase)
    start = ref.amplitudes[:, None] * (np.array([1.0, ancilla]) / np.sqrt(2.0))
    start = start.reshape((1,) + (2,) * (ref.n_qubits + 1))
    return float(measure_z_expectation(run_gates(start, circuit.gates))[0])


def compute_sampled(ansatz: AnsatzCircuit, h, shots: int | None,
                    seed=None) -> McLachlanSystem:
    """A and B from the Hadamard-test jobs, as one SampledRun call, for
    one angle vector and Hamiltonian or for B rows and a stack (A and B stacked).
    shots=None reads every job's ancilla expectation exactly (the exact-mode
    switch); otherwise each is a binomial estimate with the given shot count,
    drawn from `seed` (ValueError if missing): an integer seed or a numpy
    Generator, then drawn from in place, one per row for a batch."""
    batch = ansatz.parameters.ndim == 2
    run = ExactRun(ansatz, h)
    _, a, b = SampledRun(run, shots, seed if batch and seed is not None else [seed])()
    return McLachlanSystem(a if batch else a[0], b if batch else b[0], "hadamard", shots)


class SampledRun:
    """The Hadamard route of an ExactRun's rows, made once per run from it: the
    job table of its rows and one Generator per row from `seeds` (ValueError
    unless check_shots passes and shot mode has a seed for each row).  The
    table, from _jobs and _known, is (cols, entry, weight, drawn, sizes): job
    k reads flat index cols[k] of the (B, gamma, gamma + L) overlaps, (b, i,
    k) of its row b; its <Z> is the real part over weight[k], its prefactor's
    modulus, and it adds weight[k] times that <Z> to entry[k] of A (B, gamma,
    gamma) then B (B, gamma), flattened; drawn[k] is False for a known job;
    sizes: each row's drawn jobs.  A call takes each job's <Z> from the
    overlaps (_overlaps) of each d_i that the ExactRun's last call left
    (making one first unless `derived`) with each d_j and each -h_l P_l psi
    (its weighted terms), checks every |<Z>| <= 1, has sample_z draw each
    row's drawn jobs in order from the row's own generator, a known job
    keeping its exact <Z>, and returns (<Z> of every job, A, B), A and B
    adding the weighted values from 0.0 in job order."""

    def __init__(self, exact: ExactRun, shots: int | None, seeds) -> None:
        (labels, coeffs), gamma = exact.columns, exact.ansatz.n_parameters
        rows = len(coeffs)
        check_shots(shots)
        # len(), as per-row seeds of unequal lengths do not stack; an int or a Generator is one seed
        count = len(seeds) if isinstance(seeds, Sized) and getattr(seeds, "ndim", 1) else None
        if shots is not None and (count != rows or any(s is None for s in seeds)):
            raise ValueError(f"shot mode needs a seed or generator for each of the {rows} rows")
        row, i, k, pre = _jobs(gamma, labels, coeffs)
        slot, drawn = row * gamma + i, ~_known(exact.ansatz, labels)[i, k]
        self.table = (slot * (gamma + len(labels)) + k,
                      np.where(k < gamma, slot * gamma + k, rows * gamma * gamma + slot),
                      abs(pre), drawn, np.bincount(row[drawn], minlength=rows).tolist())
        self.exact, self.shots, self.gamma = exact, shots, gamma
        self.rngs = None if shots is None else list(map(np.random.default_rng, seeds))

    def __call__(self) -> tuple:
        if not self.exact.derived:
            self.exact()
        (cols, entry, weight, drawn, sizes), kets, gamma = self.table, self.exact.kets, self.gamma
        values = _overlaps(kets[0], kets[1:-1], self.exact.terms).take(cols) / weight
        check_norms(np.maximum(abs(values), 1.0))   # every job's |<Z>| <= 1, before any draw
        values[drawn] = sample_z(values[drawn], self.shots, self.rngs, sizes)
        cut = len(sizes) * gamma * gamma
        ab = np.bincount(entry, weight * values, cut + len(sizes) * gamma)
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
