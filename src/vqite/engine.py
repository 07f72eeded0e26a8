"""The outer imaginary-time iteration loop.

Each iteration estimates the McLachlan system at the current parameters,
solves for the update, and steps with Euler's rule
theta <- theta + pinv(A) B dtau.  The time step defaults to the empirical
rule dtau = c / (|h_z| l) with c = 0.8, where h_z is the mean single-Z
coefficient of the molecule Hamiltonian (the absolute value keeps dtau
positive; the bundled tables have negative means) and l the iteration
count.

When a CMF reduction is active, the loop evolves parameters against the
reduced Hamiltonian while energies and fidelities are reported against
the original one by lifting the state through the basis isometry.
Fidelity is always measured against the exact-diagonalization ground
state of the reporting Hamiltonian; if that ground state is degenerate
the run switches to energy-only reporting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .ansatz import AnsatzCircuit
from .cmf import EffectiveHamiltonian, lift_amplitudes
from .mclachlan import compute_exact, compute_sampled, solve_update
from .pauli import PauliHamiltonian, expectation
from .simulator import StateVector
from .spectra import exact_spectrum

STATIONARY_TOL = 1e-10
MONOTONICITY_TOL = 1e-6
DEFAULT_DTAU_C = 0.8


def average_z_coefficient(h: PauliHamiltonian) -> float:
    """Mean single-Z coefficient, e.g. (h_ZII + h_IZI + h_IIZ) / 3.

    The sum runs over the weight-one Z strings present in the Hamiltonian
    and is divided by the qubit count.  Downstream, the absolute value
    feeds the automatic time-step rule.
    """
    single_z = [c for c, ps in h.terms if ps.weight == 1 and "Z" in ps.letters]
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


@dataclass(frozen=True)
class EnergyMap:
    """Back-transform for CMF runs: the reduction plus the original Hamiltonian."""

    effective: EffectiveHamiltonian
    h_original: PauliHamiltonian

    @classmethod
    def from_effective(cls, eff: EffectiveHamiltonian,
                       h_original: PauliHamiltonian) -> "EnergyMap":
        return cls(eff, h_original)


@dataclass(frozen=True)
class QiteRecord:
    iteration: int
    theta: np.ndarray
    a_matrix: np.ndarray | None
    b_vector: np.ndarray | None
    energy: float
    fidelity: float | None


@dataclass(frozen=True)
class QiteTrajectory:
    records: tuple[QiteRecord, ...]
    final_state: StateVector
    converged_energy: float
    exact_energy: float              # ground energy of the reporting Hamiltonian
    final_fidelity: float | None
    stationary: bool
    ground_degenerate: bool
    dtau: float
    iterations: int
    monotonicity_violations: tuple[int, ...] = field(default=())


def resolve_dtau(config: QiteConfig, h_for_rule: PauliHamiltonian) -> float:
    if config.dtau == "auto":
        h_z = average_z_coefficient(h_for_rule)
        return DEFAULT_DTAU_C / (abs(h_z) * config.iterations)
    value = float(config.dtau)
    if not 0 < value < np.inf:  # NaN fails too
        raise ValueError("fixed dtau must be positive and finite")
    return value


def run_qite(h_system: PauliHamiltonian, ansatz_builder, config: QiteConfig,
             energy_map: EnergyMap | None = None) -> QiteTrajectory:
    """Run l Euler steps and record theta, A, B, energy and fidelity.

    `h_system` is the Hamiltonian the ansatz is optimized against (the
    CMF-reduced one when a reduction is active); `energy_map` carries the
    reduction and original Hamiltonian used for reporting.  The final
    record holds no A/B (nothing is estimated after the last update).
    The builder raises ValueError if initial_theta has the wrong length.
    """
    h_report = energy_map.h_original if energy_map is not None else h_system
    dtau = resolve_dtau(config, h_report)
    spectrum = exact_spectrum(h_report)
    degenerate = spectrum.ground_degenerate
    if degenerate:
        warnings.warn("degenerate ground state: fidelity reporting disabled")
    ground = spectrum.ground_state

    rng = np.random.default_rng(config.seed) if config.route == "hadamard" else None
    theta = np.asarray(config.initial_theta, dtype=float)
    records: list[QiteRecord] = []
    violations: list[int] = []
    stationary = False
    lifted_final: np.ndarray | None = None

    for it in range(config.iterations + 1):
        ansatz: AnsatzCircuit = ansatz_builder(theta)
        amps = ansatz.state().amplitudes
        lifted = lift_amplitudes(energy_map.effective, amps) if energy_map is not None else amps
        energy = expectation(h_report, StateVector(lifted))
        fid = None if degenerate else float(abs(np.vdot(ground, lifted)) ** 2)
        if records and energy > records[-1].energy + MONOTONICITY_TOL:
            violations.append(it)
            if config.route == "exact":
                warnings.warn(
                    f"energy rose by {energy - records[-1].energy:.3e} "
                    f"at iteration {it}"
                )
        if it == config.iterations:
            records.append(QiteRecord(it, theta.copy(), None, None, energy, fid))
            lifted_final = lifted
            break
        if config.route == "exact":
            system = compute_exact(ansatz, h_system)
        else:
            system = compute_sampled(ansatz, h_system, config.shots, rng)
        records.append(QiteRecord(it, theta.copy(), system.a_matrix,
                                  system.b_vector, energy, fid))
        update = solve_update(system, dtau)
        if it == 0 and (update.stationary
                        or float(np.max(np.abs(update.delta_theta))) < STATIONARY_TOL):
            stationary = True
        theta = theta + update.delta_theta

    final_record = records[-1]
    return QiteTrajectory(
        records=tuple(records),
        final_state=StateVector(lifted_final),
        converged_energy=final_record.energy,
        exact_energy=spectrum.ground_energy,
        final_fidelity=final_record.fidelity,
        stationary=stationary,
        ground_degenerate=degenerate,
        dtau=dtau,
        iterations=config.iterations,
        monotonicity_violations=tuple(violations),
    )


@dataclass(frozen=True)
class ScanPoint:
    theta0: float
    final_energy: float
    final_fidelity: float | None
    stationary: bool


def theta_scan(h: PauliHamiltonian, ansatz_builder, theta_grid,
               config: QiteConfig, energy_map: EnergyMap | None = None) -> list[ScanPoint]:
    """run_qite over a grid of initial angles for a one-parameter ansatz;
    the builder raises ValueError on any other."""
    points = []
    for theta0 in theta_grid:
        traj = run_qite(h, ansatz_builder,
                        replace(config, initial_theta=(float(theta0),)), energy_map)
        points.append(ScanPoint(float(theta0), traj.converged_energy,
                                traj.final_fidelity, traj.stationary))
    return points
