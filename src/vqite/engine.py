"""The outer imaginary-time iteration loop.

Each iteration estimates the McLachlan system at the current parameters,
solves for the update, and steps with Euler's rule
theta <- theta + pinv(A) B dtau.  The time step defaults to the empirical
rule dtau = c / (|h_z| l) with c = 0.8, where h_z is the mean single-Z
coefficient of the molecule Hamiltonian (the absolute value keeps dtau
positive; the bundled tables have negative means, and a mean below 1e-12
of the largest |coefficient| counts as 0, which needs a fixed dtau) and l
the iteration count.

When a CMF reduction is active, the loop evolves parameters against the
reduced Hamiltonian while energies and fidelities are reported against
the original one by lifting the state through the basis isometry.
Fidelity is always measured against the exact-diagonalization ground
state of the reporting Hamiltonian; if that ground state is degenerate
the run switches to energy-only reporting.

The loop runs the B rows of a Hamiltonian stack at once on both routes,
under one config (run_qite_rows): a scan's bond distances or theta_scan's
initial angles; run_qite is the one-row case.  What does not depend on
theta is made once per run: the row, qubit and dtau checks, the spectra,
one circuit build, its ExactRun and on the shot route a SampledRun
(mclachlan).  An exact
iteration is one ExactRun call, whose pair product gives A, B, each state's
norm and the energy of a row reported against its own Hamiltonian, and one
stacked solve (solve_update); on the shot route A and B come from a
SampledRun call, which reads the rotation stack the ExactRun call wrote.
Iterations rewrite only that stack, so the builder's circuit must hold
rotation_matrix of theta about its descriptors' axes there and no other
gate depending on theta, as a family build and its AnsatzCircuit copy do.
A run's result stays stacked over (iteration, row) (QiteRun); a row's
QiteTrajectory is a view of it that makes its QiteRecords only when read.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .cmf import EffectiveHamiltonian, lift_amplitudes
from .mclachlan import ExactRun, McLachlanSystem, SampledRun, solve_update
from .pauli import Frozen, PauliHamiltonian, dense_matrices, expectations, weighted_terms
from .simulator import check_unit, rotation_matrix
from .spectra import gap_flags, stacked_spectrum

STATIONARY_TOL = 1e-10
MONOTONICITY_TOL = 1e-6
DEFAULT_DTAU_C = 0.8
ZERO_MEAN_TOL = 1e-12   # |h_z| up to this fraction of the largest |coefficient| reads as 0


def average_z_coefficient(h: PauliHamiltonian):
    """Mean single-Z coefficient, e.g. (h_ZII + h_IZI + h_IIZ) / 3, of each row.

    One masked row sum, in word order, over the weight-one Z strings present,
    divided by the qubit count.  Downstream, the absolute value feeds the
    automatic time-step rule.
    """
    single_z = [w.replace("I", "") == "Z" for w in h.words]
    if not any(single_z):
        raise ValueError("Hamiltonian has no single-qubit Z term; use a fixed dtau instead")
    return np.add.accumulate(h.coeffs[..., single_z], axis=-1)[..., -1] / h.n_qubits


class QiteConfig(Frozen):
    """Loop settings: iterations, dtau (a value, one per row, or "auto" for DEFAULT_DTAU_C
    / (|h_z| * iterations)) and shots: None runs the exact route, a count the Hadamard one."""

    def __init__(self, initial_theta, iterations: int = 4, dtau: float | str = "auto",
                 shots: int | None = None, seed: int | None = None) -> None:
        vars(self).update(initial_theta=tuple(float(v) for v in np.atleast_1d(initial_theta)),
                          iterations=iterations, dtau=dtau, shots=shots, seed=seed)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if isinstance(self.dtau, str) and self.dtau != "auto":
            raise ValueError("dtau must be a positive number or 'auto'")
        if self.shots is not None and self.seed is None:
            raise ValueError("shot mode needs a seed, so that a run is reproducible")


class EnergyMap(NamedTuple):
    """Back-transform for CMF runs: the reduction plus the original Hamiltonian."""

    effective: EffectiveHamiltonian
    h_original: PauliHamiltonian

    @classmethod
    def from_effective(cls, eff: EffectiveHamiltonian,
                       h_original: PauliHamiltonian) -> "EnergyMap":
        return cls(eff, h_original)


class QiteRecord(NamedTuple):
    iteration: int
    theta: np.ndarray
    a_matrix: np.ndarray | None
    b_vector: np.ndarray | None
    energy: float
    fidelity: float | None


class QiteTrajectory(NamedTuple):
    """One row of a QiteRun: its summary, and its records, built when read; == is bitwise."""

    converged_energy: float
    exact_energy: float              # ground energy of the reporting Hamiltonian
    final_fidelity: float | None
    stationary: bool
    ground_degenerate: bool
    dtau: float
    monotonicity_violations: tuple[int, ...]
    iterations: int
    run: QiteRun
    row: int

    @property
    def records(self) -> tuple[QiteRecord, ...]:
        """Each iteration's record; the last holds no A/B."""
        run, b = self.run, self.row
        fidelity = [None if self.ground_degenerate else abs(c) ** 2
                    for c in run.overlap[:, b].tolist()]
        return tuple(map(QiteRecord, range(self.iterations + 1), run.theta[:, b],
                         [*run.a_matrix[:, b], None], [*run.b_vector[:, b], None],
                         run.energy[:, b].tolist(), fidelity))

    def _bits(self) -> list:   # every value of the summary and the records as float64 bytes
        return [None if v is None else np.asarray(v, dtype=float).tobytes()
                for v in (*self[:-2], *(v for record in self.records for v in record))]

    def __eq__(self, other):
        return isinstance(other, QiteTrajectory) and self._bits() == other._bits()

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return f"QiteTrajectory(row {self.row}: {dict(zip(self._fields, self[:-2]))})"


class QiteRun(NamedTuple):
    """run_qite_rows' stacks over (iteration, row): angles (l + 1, B, gamma),
    reported energies and ground overlaps <g|psi> (l + 1, B), A and B of the
    l estimated iterations (l, B, ...); each row's QiteTrajectory fields up
    to `iterations`."""

    theta: np.ndarray
    energy: np.ndarray
    overlap: np.ndarray
    a_matrix: np.ndarray
    b_vector: np.ndarray
    rows: list[tuple]

    def trajectories(self) -> list[QiteTrajectory]:
        """Each row's QiteTrajectory; no record is built until one is read."""
        return [QiteTrajectory(*summary, self, row) for row, summary in enumerate(self.rows)]


def resolve_dtau(config: QiteConfig, h_for_rule: PauliHamiltonian):
    """config.dtau (one value, or one per row), or for "auto" the rule of the
    module docstring, for each row of h_for_rule (a float for one row)."""
    dtau = config.dtau
    if isinstance(dtau, str):
        h_z = np.abs(average_z_coefficient(h_for_rule))
        if not (h_z > ZERO_MEAN_TOL * np.abs(h_for_rule.coeffs).max(axis=-1)).all():
            raise ValueError("single-qubit Z coefficients average to 0; use a fixed dtau instead")
        dtau = DEFAULT_DTAU_C / (h_z * config.iterations)
    dtau = np.full(h_for_rule.coeffs.shape[:-1], dtau, dtype=float)
    if not ((0 < dtau) & (dtau < np.inf)).all():  # NaN fails too
        raise ValueError("fixed dtau must be positive and finite")
    return dtau if dtau.ndim else float(dtau)


def run_qite(h_system: PauliHamiltonian, ansatz_builder, config: QiteConfig,
             energy_map: EnergyMap | None = None) -> QiteTrajectory:
    """Run l Euler steps and record theta, A, B, energy and fidelity, as
    run_qite_rows of one row.  `h_system` is the Hamiltonian the ansatz is
    optimized against (the CMF-reduced one when a reduction is active);
    `energy_map` carries the reduction and original Hamiltonian used for
    reporting.  The final record holds no A/B (nothing is estimated after
    the last update).  The builder (its circuit as the module docstring
    says) raises ValueError if initial_theta has the wrong length, and so
    does a stack of more rows (run_qite_rows runs one)."""
    h_system.one_row("run_qite_rows")
    return run_qite_rows(h_system, ansatz_builder, config, energy_map).trajectories()[0]


def run_qite_rows(h_system: PauliHamiltonian, ansatz_builder, config: QiteConfig,
                  energy_map: EnergyMap | None = None, theta=None,
                  seeds=None) -> QiteRun:
    """run_qite for the B rows of a stack (one Hamiltonian reads as one row)
    as one loop over a (B, gamma) angle array.

    Every row runs `config` against its row of h_system and reports through
    that of `energy_map` (None: against h_system), from its row of `theta`
    (default config.initial_theta) and its seed of `seeds` (default
    config.seed).  The builder runs once, at the initial angles; a circuit
    off theta (module docstring) is refused (ValueError), and so are a shot
    count check_shots refuses and an energy map whose reduction or original
    Hamiltonian has another row count than h_system, before the loop.  Each
    iteration takes the states of all rows from the run's ExactRun, A and B
    from it or its SampledRun (each row drawing from its own seeded
    generator) and solves every update
    with one stacked eigh (solve_update).  It returns what the loop kept as
    one QiteRun and makes no QiteRecord.  Each row's records are bitwise
    those of the row run alone; its warnings follow the loop, row by row.
    """
    report = h_system if energy_map is None else energy_map.h_original
    if energy_map is not None:   # lift_amplitudes would broadcast one row's isometry
        rows = [len(np.atleast_2d(h.coeffs))
                for h in (h_system, energy_map.effective.h_eff, report)]
        if len(set(rows)) > 1:
            raise ValueError(f"h_system has {rows[0]} rows, the energy map's reduction "
                             f"{rows[1]} and its original Hamiltonian {rows[2]}")
    labels, coeffs = report.words, np.atleast_2d(report.coeffs)
    dtau = np.atleast_1d(resolve_dtau(config, report))
    exact, vecs = stacked_spectrum(dense_matrices(labels, coeffs, report.n_qubits))
    # each ground state as the strided column of its eigenvector matrix, which
    # BLAS accumulates unlike a contiguous copy
    ground = vecs.conj()[:, None, :, 0]
    eff = None if energy_map is None else energy_map.effective
    theta = np.array([config.initial_theta] * len(coeffs)) if theta is None else theta
    circuit = ansatz_builder(theta)     # the family's program, its arity checked once
    if not np.array_equal(circuit._rotations,   # iterations rewrite only this stack
                          rotation_matrix(circuit._axes, theta).swapaxes(-3, 0)):
        raise ValueError("the builder's circuit must carry each parameter in a rotated "
                         "gate about its descriptor's axis")
    run = ExactRun(circuit, h_system)
    # the weighted terms of every reported energy: the run's own without a reduction
    terms = run.terms if eff is None else weighted_terms(labels, coeffs, report.n_qubits)
    sampled = config.shots is not None
    route, own = ("hadamard" if sampled else "exact"), eff is None and not sampled
    estimate = sampled and SampledRun(run, config.shots, seeds or [config.seed] * len(coeffs))
    steps = []   # per iteration: theta, energy, overlap, A, B (None after the last update)

    for it in range(config.iterations + 1):
        last = it == config.iterations
        states, a, b, energies = run(theta, not (sampled or last))
        if sampled and not last:
            _, a, b = estimate()
        psi = states if eff is None else lift_amplitudes(eff, states)
        energy = energies if own and not last else expectations(terms, psi)
        steps.append((theta, energy, (ground @ psi[:, :, None])[:, 0, 0], a, b))
        if last:
            break
        delta, flat = solve_update(McLachlanSystem(a, b, route, config.shots), dtau)
        if it == 0:
            stationary = flat | (np.abs(delta).max(axis=1) < STATIONARY_TOL)
        theta = theta + delta

    check_unit(psi)
    theta, energy, overlap, a, b = zip(*steps)
    energy, overlap, degenerate = np.array(energy), np.array(overlap), gap_flags(exact)[:, 0]
    violations = [[] for _ in dtau]
    # (row, 0) of a degenerate row, (row, it) of each rise, row by row as the loop went
    events = np.concatenate([degenerate[None], energy[1:] > energy[:-1] + MONOTONICITY_TOL])
    for row, it in zip(*(k.tolist() for k in events.T.nonzero())):
        if not it:
            warnings.warn("degenerate ground state: fidelity reporting disabled")
            continue
        violations[row].append(it)
        if not sampled:
            warnings.warn(f"energy rose by {energy[it, row] - energy[it - 1, row]:.3e} "
                          f"at iteration {it}")
    fidelity = [None if d else abs(c) ** 2
                for d, c in zip(degenerate.tolist(), overlap[-1].tolist())]
    rows = list(zip(energy[-1].tolist(), exact[:, 0].tolist(), fidelity, stationary.tolist(),
                    degenerate.tolist(), dtau.tolist(), map(tuple, violations),
                    [config.iterations] * len(dtau)))
    return QiteRun(np.array(theta), energy, overlap, np.array(a[:-1]), np.array(b[:-1]), rows)


class ScanPoint(NamedTuple):
    theta0: float
    final_energy: float
    final_fidelity: float | None
    stationary: bool


def theta_scan(h: PauliHamiltonian, ansatz_builder, theta_grid,
               config: QiteConfig) -> list[ScanPoint]:
    """run_qite over a grid of initial angles for a one-parameter ansatz, as one
    run_qite_rows call on h per angle; the builder raises ValueError on any other."""
    grid = np.array([float(t) for t in theta_grid])
    rows = PauliHamiltonian(h.words, np.tile(h.one_row("run_qite_rows"), (len(grid), 1)),
                            h.n_qubits)
    trajectories = run_qite_rows(rows, ansatz_builder, config, theta=grid[:, None]).trajectories()
    return [ScanPoint(t, traj.converged_energy, traj.final_fidelity, traj.stationary)
            for t, traj in zip(grid.tolist(), trajectories)]
