"""Variational quantum imaginary time evolution, simulated classically.

Ansatz circuits, McLachlan A/B estimation (exact and via simulated
ancilla Hadamard tests), cluster-mean-field Hamiltonian reduction,
Gershgorin excited-state lifting, and a scan CLI, all validated against
dense exact diagonalization.
"""

from .ansatz import (AnsatzCircuit, DerivativeDescriptor,
                     build_hardware_efficient, build_ucc_h2, build_ucc_lih)
from .cmf import EffectiveHamiltonian, cmf_reduce, cmf_reduce_rows, lift_amplitudes
from .engine import (EnergyMap, QiteConfig, QiteRun, QiteTrajectory,
                     average_z_coefficient, run_qite, run_qite_rows, theta_scan)
from .mclachlan import (HadamardTestCircuit, McLachlanSystem,
                        build_hadamard_circuits, compute_exact,
                        compute_sampled, solve_update)
from .pauli import (PauliHamiltonian, PauliString, expectation,
                    pauli_decompose, to_dense_matrix, weighted_partial_trace)
from .simulator import (DensityMatrix, Gate, StateVector, basis_state,
                        measure_z_expectation, run_circuit)
from .spectra import (GershgorinBound, SpectrumResult, exact_spectrum,
                      gershgorin_emax, lift_ground_state)
from .tables import (MoleculeTable, hamiltonian_at, load_h2_synthetic_table,
                     load_lih_table, load_table, parse_table)

__version__ = "0.1.0"
