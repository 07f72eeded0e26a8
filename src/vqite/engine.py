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

The loop runs B rows at once on both routes (run_qite_rows): a scan's
bond distances or theta_scan's initial angles; run_qite is the one-row case.
What does not depend on theta is made once per run: the row, qubit and
dtau checks, the spectra, the reports' term columns, one circuit build and
an ExactRun (mclachlan).  An exact iteration is one ExactRun call, whose one
pair product gives A, B and the energy of a row reported against its own
Hamiltonian, and one stacked solve (solve_update).  Iterations rewrite only
the rotation stack, so each circuit the builder gives (one per iteration on
the shot route) must hold rotation_matrix of theta about its descriptors'
axes there and no other gate depending on theta, as a family build and its
copy by the AnsatzCircuit constructor do.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .cmf import EffectiveHamiltonian
from .mclachlan import ExactRun, McLachlanSystem, compute_sampled, solve_update
from .pauli import PauliHamiltonian, dense_matrices, expectations, term_columns
from .simulator import StateVector, rotation_matrix
from .spectra import stacked_spectrum

STATIONARY_TOL = 1e-10
MONOTONICITY_TOL = 1e-6
DEFAULT_DTAU_C = 0.8
ZERO_MEAN_TOL = 1e-12   # |h_z| up to this fraction of the largest |coefficient| reads as 0


def average_z_coefficient(h: PauliHamiltonian) -> float:
    """Mean single-Z coefficient, e.g. (h_ZII + h_IZI + h_IIZ) / 3.

    The sum runs over the weight-one Z strings present in the Hamiltonian
    and is divided by the qubit count.  Downstream, the absolute value
    feeds the automatic time-step rule.
    """
    single_z = [c for c, w in zip(h.coeffs.tolist(), h.words) if w.replace("I", "") == "Z"]
    if not single_z:
        raise ValueError(
            "Hamiltonian has no single-qubit Z term; use a fixed dtau instead"
        )
    return sum(single_z, 0.0) / h.n_qubits


@dataclass(frozen=True)
class QiteConfig:
    """Loop settings: iterations, time-step rule, estimation route."""

    initial_theta: tuple[float, ...]
    iterations: int = 4
    dtau: float | str = "auto"       # "auto" -> DEFAULT_DTAU_C / (|h_z| * iterations)
    route: str = "exact"             # "exact" | "hadamard"
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_theta",
                           tuple(float(v) for v in np.atleast_1d(self.initial_theta)))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.route not in ("exact", "hadamard"):
            raise ValueError(f"unknown route '{self.route}'")
        if isinstance(self.dtau, str) and self.dtau != "auto":
            raise ValueError("dtau must be a positive number or 'auto'")
        if self.route == "hadamard" and self.shots is not None and self.seed is None:
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
    records: tuple[QiteRecord, ...]
    final_state: StateVector
    converged_energy: float
    exact_energy: float              # ground energy of the reporting Hamiltonian
    final_fidelity: float | None
    stationary: bool
    ground_degenerate: bool
    dtau: float
    iterations: int
    monotonicity_violations: tuple[int, ...] = ()


def resolve_dtau(config: QiteConfig, h_for_rule: PauliHamiltonian) -> float:
    if config.dtau == "auto":
        h_z = average_z_coefficient(h_for_rule)
        if not abs(h_z) > ZERO_MEAN_TOL * float(np.abs(h_for_rule.coeffs).max()):
            raise ValueError("single-qubit Z coefficients average to 0; use a fixed dtau instead")
        return DEFAULT_DTAU_C / (abs(h_z) * config.iterations)
    value = float(config.dtau)
    if not 0 < value < np.inf:  # NaN fails too
        raise ValueError("fixed dtau must be positive and finite")
    return value


def run_qite(h_system: PauliHamiltonian, ansatz_builder, config: QiteConfig,
             energy_map: EnergyMap | None = None) -> QiteTrajectory:
    """Run l Euler steps and record theta, A, B, energy and fidelity, as
    run_qite_rows of one row.  `h_system` is the Hamiltonian the ansatz is
    optimized against (the CMF-reduced one when a reduction is active);
    `energy_map` carries the reduction and original Hamiltonian used for
    reporting.  The final record holds no A/B (nothing is estimated after
    the last update).  The builder (its circuits as the module docstring
    says) raises ValueError if initial_theta has the wrong length."""
    return run_qite_rows([h_system], ansatz_builder, [config], [energy_map])[0]


def run_qite_rows(h_systems, ansatz_builder, configs,
                  energy_maps=None) -> list[QiteTrajectory]:
    """run_qite for B rows as one loop over a (B, gamma) angle array.

    Row b runs configs[b] against h_systems[b] and reports through
    energy_maps[b] (None for every row: against h_systems[b]).  The rows
    share the ansatz, the qubit counts, the iteration count, the route and
    the shot count.  The builder runs at the initial angles, and on the shot
    route at each iteration's; a circuit off theta (module docstring) is
    refused (ValueError).  Each iteration takes the states of all rows from
    the run's ExactRun, A and B from it or from compute_sampled (each row
    drawing from its own seeded generator) and solves every update with one
    stacked eigh (solve_update).  Each row's
    records are bitwise those of the row run alone; its warnings are
    emitted after the loop, row by row.
    """
    maps = list(energy_maps or [None] * len(configs))
    if not len(h_systems) == len(configs) == len(maps):
        raise ValueError(f"{len(h_systems)} Hamiltonians, {len(configs)} configs and "
                         f"{len(maps)} energy maps: one of each per row")
    if not configs:
        return []
    if len({(c.iterations, c.route, c.shots, m is None) for c, m in zip(configs, maps)}) > 1:
        raise ValueError("rows of one run share iterations, route, shots and reduction")
    cfg, reports = configs[0], [h if m is None else m.h_original for h, m in zip(h_systems, maps)]
    dtau = np.array([resolve_dtau(c, h) for c, h in zip(configs, reports)])
    labels, coeffs = term_columns(reports)
    exact, vecs, flags = stacked_spectrum(dense_matrices(labels, coeffs, reports[0].n_qubits))
    # each ground state as the strided column of its eigenvector matrix, which
    # BLAS accumulates unlike a contiguous copy
    ground = vecs.conj()[:, None, :, 0]
    iso = None if maps[0] is None else np.array([m.effective.basis_isometry for m in maps])
    theta = np.array([c.initial_theta for c in configs])
    def rotated(circuit):   # iterations rewrite only the rotation stack: it must be theta's
        if not np.array_equal(circuit._rotations,
                              rotation_matrix(circuit._axes, theta).swapaxes(-3, 0)):
            raise ValueError("the builder's circuit must carry each parameter in a rotated "
                             "gate about its descriptor's axis")
        return circuit
    circuit = rotated(ansatz_builder(theta))     # the family's program, its arity checked once
    run = ExactRun(circuit, h_systems)
    sampled, own = cfg.route == "hadamard", iso is None and cfg.route == "exact"
    rngs = [np.random.default_rng(c.seed) for c in configs] if sampled else ()
    steps, none = [], [None] * len(configs)   # per iteration: theta, energy, overlap, A, B

    for it in range(cfg.iterations + 1):
        last = it == cfg.iterations
        states, a, b, energies = run(theta, not (sampled or last))
        if sampled and not last:
            ansatz = rotated(ansatz_builder(theta)) if it else circuit
            a, b = compute_sampled(ansatz, h_systems, cfg.shots, rngs)[:2]
        psi = states if iso is None else (iso @ states[:, :, None])[:, :, 0]
        energy = energies if own and not last else expectations(labels, coeffs, psi)
        steps.append([theta, energy, (ground @ psi[:, :, None])[:, 0, 0], none, none])
        if last:
            break
        steps[-1][3:] = a, b
        delta, flat = solve_update(McLachlanSystem(a, b, cfg.route, cfg.shots), dtau)
        if it == 0:
            stationary = flat | (np.abs(delta).max(axis=1) < STATIONARY_TOL)
        theta = theta + delta

    trajectories = []
    for b, degenerate in enumerate(flags[:, 0].tolist()):
        if degenerate:
            warnings.warn("degenerate ground state: fidelity reporting disabled")
        records, violations = [], []
        for it, (th, energy, overlap, a, b_vector) in enumerate(steps):
            energy = float(energy[b])
            if records and energy > records[-1].energy + MONOTONICITY_TOL:
                violations.append(it)
                if cfg.route == "exact":
                    warnings.warn(f"energy rose by {energy - records[-1].energy:.3e} "
                                  f"at iteration {it}")
            fid = None if degenerate else abs(complex(overlap[b])) ** 2
            records.append(QiteRecord(it, th[b], a[b], b_vector[b], energy, fid))
        trajectories.append(QiteTrajectory(
            tuple(records), StateVector(psi[b]), energy, float(exact[b, 0]), fid,
            bool(stationary[b]), degenerate, float(dtau[b]), cfg.iterations,
            tuple(violations)))
    return trajectories


class ScanPoint(NamedTuple):
    theta0: float
    final_energy: float
    final_fidelity: float | None
    stationary: bool


def theta_scan(h: PauliHamiltonian, ansatz_builder, theta_grid,
               config: QiteConfig, energy_map: EnergyMap | None = None) -> list[ScanPoint]:
    """run_qite over a grid of initial angles for a one-parameter ansatz, as
    one run_qite_rows call; the builder raises ValueError on any other."""
    grid = [float(t) for t in theta_grid]
    trajectories = run_qite_rows([h] * len(grid), ansatz_builder,
                                 [replace(config, initial_theta=(t,)) for t in grid],
                                 [energy_map] * len(grid))
    return [ScanPoint(t, traj.converged_energy, traj.final_fidelity, traj.stationary)
            for t, traj in zip(grid, trajectories)]
