"""Command-line driver: table -> (optional CMF) -> QITE per bond distance.

Subcommands:

    scan      potential-energy curve over selected bond distances
    point     one bond distance, summary printed
    spectrum  exact eigenvalues and the Gershgorin bound for one row
    excited   Gershgorin lift of each row's (reduced) Hamiltonian, then a
              ground-state run that lands on its first excited level; one
              block per row, headed [R=<r>] when there are several
    validate  table lint

Outputs are plain CSV (10 significant digits, Hartree throughout):
curve.csv, one trace_R<value>.csv per point when --trace is set, a
manifest.echo with the resolved configuration, and cmf_selection.txt when
a reduction is active.  Identical manifest and seed give byte-identical
files.  Exit codes: 0 success, 1 point failures, 2 manifest or
validation errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ansatz
from .cmf import cmf_reduce_rows
from .engine import EnergyMap, QiteConfig, resolve_dtau, run_qite_rows
from .pauli import dense_matrices, term_columns, to_dense_matrix
from .simulator import projectors
from .spectra import _lift, exact_spectrum, gershgorin_emax, stacked_spectrum
from .tables import (MoleculeTable, hamiltonian_at, load_h2_synthetic_table,
                     load_lih_table, load_table)

DISCONTINUITY_JUMP = 0.05
ENERGY_FMT = "%.10g"


class AnsatzFamily(NamedTuple):
    builder: str                  # vqite.ansatz function, looked up when run, so wrappers apply
    n_qubits: int                 # the qubits it acts on
    theta0: tuple[float, ...]     # default initial angles


ANSATZ_FAMILIES = {
    "ucc-h2": AnsatzFamily("build_ucc_h2", 2, (2.0,)),
    "ucc-lih": AnsatzFamily("build_ucc_lih", 3, (1.0, 1.0)),
    "he": AnsatzFamily("build_hardware_efficient", 2, (0.5,) * 6),
}


class ManifestError(ValueError):
    """Configuration problem; aborts before any work starts (exit 2)."""


@dataclass(frozen=True)
class RunManifest:
    """Resolved configuration of one scan invocation."""

    table: str = "lih"
    ansatz: str = "he"
    cmf: bool = False
    r_selection: tuple[float, ...] | str = "all"
    iterations: int = 4
    dtau: float | str = "auto"
    route: str = "exact"
    shots: int | None = None
    seed: int = 0
    theta0: tuple[float, ...] | None = None
    out_dir: str | None = None
    trace: bool = False

    def echo_lines(self, resolved_rs) -> list[str]:
        """`name = value` per field in order, out_dir left out, with the
        resolved bond distances as `r` and the resolved theta0."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        values["r_selection"] = ",".join("%g" % r for r in resolved_rs)
        values["theta0"] = ",".join("%g" % t for t in self.resolved_theta0())
        return [f"{'r' if k == 'r_selection' else k} = {v}" for k, v in values.items()]

    def resolved_theta0(self) -> tuple[float, ...]:
        return self.theta0 if self.theta0 is not None else ANSATZ_FAMILIES[self.ansatz].theta0

    def point_seed(self, r: float) -> tuple[int, int]:   # the key of R's random stream
        return (self.seed, int(round(r * 1000)))


class CurvePoint(NamedTuple):
    r: float
    e_qite: float
    e_exact: float
    final_fidelity: float | None
    iterations_used: int
    flags: tuple[str, ...] = ()
    e_max: float | None = None    # the Gershgorin bound of a lifted (excited) run


def load_manifest_table(name: str) -> MoleculeTable:
    if name == "lih":
        return load_lih_table()
    if name == "h2-synthetic":
        return load_h2_synthetic_table()
    try:
        return load_table(name)
    except OSError as exc:
        raise ManifestError(f"cannot read table: {exc}") from exc


def validate_manifest(manifest: RunManifest, table: MoleculeTable) -> tuple[float, ...]:
    if manifest.ansatz not in ANSATZ_FAMILIES:
        raise ManifestError(f"unknown ansatz '{manifest.ansatz}'")
    family = ANSATZ_FAMILIES[manifest.ansatz]
    if manifest.ansatz == "ucc-h2" and table.n_qubits != 2:
        raise ManifestError("ucc-h2 needs a 2-qubit table")
    if manifest.cmf and table.n_qubits != 3:
        raise ManifestError("the CMF reduction is defined for 3-qubit tables")
    run_qubits = 2 if manifest.cmf else table.n_qubits
    if family.n_qubits != run_qubits:
        raise ManifestError(f"{manifest.ansatz} acts on {family.n_qubits} "
                            f"qubits, the run's Hamiltonian on {run_qubits}")
    if (given := len(manifest.resolved_theta0())) != len(family.theta0):
        raise ManifestError(f"theta0 needs {len(family.theta0)} values for {manifest.ansatz}, "
                            f"got {given}")
    if manifest.r_selection == "all":
        rs = table.bond_distances
    else:
        if not manifest.r_selection:
            raise ManifestError("empty bond-distance selection")
        found = [table.rows_within(r) for r in manifest.r_selection]
        missing = [r for r, rows in zip(manifest.r_selection, found) if not rows]
        if missing:
            raise ManifestError(f"bond distances not in table: {missing}")
        rs = tuple(table.rows[k][0] for rows in found for k in rows)
        repeated = sorted(k for k, count in Counter(rs).items() if count > 1)
        if repeated:
            raise ManifestError(f"bond distances given more than once: {repeated}")
    if manifest.seed < 0:
        raise ManifestError(f"--seed must be non-negative, got {manifest.seed}")
    keys = Counter(manifest.point_seed(r) for r in rs)
    shared = [r for r in rs if keys[manifest.point_seed(r)] > 1]
    if shared:
        raise ManifestError(f"bond distances share one seed stream "
                            f"(R rounded to 1e-3): {shared}")
    if manifest.iterations < 1:
        raise ManifestError("iterations must be >= 1")
    return rs


def discontinuity_rs(table: MoleculeTable) -> set[float]:
    """Rows whose coefficients break the trend of the preceding row.

    A row is flagged when any non-identity coefficient moves by more than
    0.05 Hartree against the previous row.  A plain ground-energy-jump
    test cannot isolate the anomalous rows: the physical curve itself is
    steeper than that at short bond distances, and a qubit-relabeling
    anomaly leaves the energy continuous while scrambling the
    coefficients.  The identity label is excluded because it only offsets
    the spectrum.
    """
    cols = [j for j, lab in enumerate(table.pauli_labels) if set(lab) != {"I"}]
    steps = np.abs(np.diff(np.array([c for _, c in table.rows])[:, cols], axis=0))
    return {r for r, step in zip(table.bond_distances[1:], steps.max(axis=1, initial=0.0))
            if step > DISCONTINUITY_JUMP}


def run_scan(manifest: RunManifest, lift: bool = False):
    """Execute the manifest; returns (points, trajectories, cmf records).

    Results are merged in bond-distance order, and every point's random
    stream is seeded from (seed, R).  One step runs all points at once:
    hamiltonian_at, the batched CMF reduction (cmf_reduce_rows) when --cmf is
    set, then one run_qite_rows batch; `lift` (excited) reduces every 3-qubit
    table and lifts each row's ground level first, its e_exact the first
    excited level.  If the step raises, it runs again for each point alone,
    and only the points that fail alone are recorded, with an
    `error:<ExceptionType>` flag and their message on stderr.
    """
    table = load_manifest_table(manifest.table)
    if lift:
        manifest = replace(manifest, cmf=table.n_qubits == 3)
    rs = validate_manifest(manifest, table)
    flagged = set() if lift else discontinuity_rs(table)   # excited prints no such flag
    builder = getattr(ansatz, ANSATZ_FAMILIES[manifest.ansatz].builder)

    def step(rows):  # (trajectory, cmf record, (e_exact, e_max)) of each bond distance in rows
        hs = [hamiltonian_at(table, r) for r in rows]
        effs = cmf_reduce_rows(hs) if manifest.cmf else [None] * len(rows)
        runs = [h if e is None else e.h_eff for h, e in zip(hs, effs)]
        maps = [e and EnergyMap.from_effective(e, h) for e, h in zip(effs, hs)]
        dtaus, levels = [manifest.dtau] * len(rows), [None] * len(rows)
        if lift:  # each row's ground level raised to its Gershgorin bound: H + (e_max - E_0) |g><g|
            dense = dense_matrices(*term_columns(runs), runs[0].n_qubits)
            vals, vecs, _ = stacked_spectrum(dense)
            e_max = np.array([gershgorin_emax(m).e_max for m in dense])
            runs = _lift(dense, projectors(vecs[:, :, 0]), e_max)   # |g| checked
            maps, levels = None, list(zip(vals[:, 1].tolist(), e_max.tolist()))
            # the lifted spectrum is denser: keep the row's 4-iteration step, --iters adds time
            dtaus = [resolve_dtau(QiteConfig((0.0,), dtau=manifest.dtau), h) for h in hs]
        configs = [QiteConfig(initial_theta=manifest.resolved_theta0(),
                              iterations=manifest.iterations, dtau=dtau,
                              route=manifest.route, shots=manifest.shots,
                              seed=manifest.point_seed(r)) for r, dtau in zip(rows, dtaus)]
        trajs = run_qite_rows(runs, builder, configs, maps)
        return [(t, e and (r, e.provenance), level or (t.exact_energy, None))
                for t, r, e, level in zip(trajs, rows, effs, levels)]

    try:
        outcomes = step(rs)
    except Exception:  # some point fails the batch: rerun each alone
        outcomes = []
        for r in rs:
            try:
                outcomes += step([r])
            except Exception as exc:  # per-point failure: recorded, not fatal
                outcomes.append(exc)

    results = []
    for r, outcome in zip(rs, outcomes):
        if isinstance(outcome, Exception):
            kind = type(outcome).__name__
            print(f"R={r:g}: {kind}: {outcome}", file=sys.stderr)
            results.append((CurvePoint(r, float("nan"), float("nan"), None,
                                       manifest.iterations, ("error:" + kind,)), None, None))
            continue
        traj, record, (e_exact, e_max) = outcome
        flags = tuple(flag for flag, hit in (
            ("stationary", traj.stationary),
            ("degenerate", traj.ground_degenerate),
            ("discontinuity", r in flagged),
            ("bound-violation", traj.converged_energy < traj.exact_energy - 1e-9),
            ("non-monotone", manifest.route == "exact" and traj.monotonicity_violations),
        ) if hit)
        results.append((CurvePoint(r, traj.converged_energy, e_exact, traj.final_fidelity,
                                   manifest.iterations, flags, e_max), traj, record))
    results.sort(key=lambda item: item[0].r)
    points = [p for p, _, _ in results]
    trajectories = {p.r: t for p, t, _ in results if t is not None}
    cmf_records = [c for _, _, c in results if c is not None]
    return points, trajectories, cmf_records


def format_number(v) -> str:
    return "" if v is None else ENERGY_FMT % v


def emit_outputs(points, trajectories, out_dir, manifest: RunManifest,
                 cmf_records=()) -> list[Path]:
    """Write curve.csv, optional traces, manifest.echo and CMF records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, lines):
        written.append(out / name)
        written[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["R,e_qite,e_exact,fidelity,iterations,flags"]
    for p in points:
        lines.append(",".join([
            "%g" % p.r,
            format_number(p.e_qite),
            format_number(p.e_exact),
            format_number(p.final_fidelity),
            str(p.iterations_used),
            ";".join(p.flags),
        ]))
    write("curve.csv", lines)

    if manifest.trace:
        for r, traj in sorted(trajectories.items()):
            gamma = traj.records[0].theta.size
            header = ["iter"] + [f"theta_{k + 1}" for k in range(gamma)]
            header += ["energy", "fidelity"]
            rows = [",".join(header)]
            for rec in traj.records:
                cells = [str(rec.iteration)]
                cells += [format_number(t) for t in rec.theta]
                cells += [format_number(rec.energy), format_number(rec.fidelity)]
                rows.append(",".join(cells))
            write("trace_R%g.csv" % r, rows)

    if cmf_records:
        lines = []
        for r, notes in cmf_records:
            lines.append(f"[R={r:g}]")
            lines.extend(notes)
            lines.append("")
        write("cmf_selection.txt", lines[:-1])     # no blank line after the last record

    write("manifest.echo", manifest.echo_lines([p.r for p in points]))
    return written


def _convert(flag: str, text: str, convert=float):
    """convert(text), its ValueError raised as a ManifestError."""
    try:
        return convert(text)
    except ValueError:
        raise ManifestError(f"bad {flag} value '{text}'") from None


def _parse_r_selection(text: str):
    if text == "all":
        return "all"
    return _convert("--r", text, lambda t: tuple(float(v) for v in t.split(",") if v.strip()))


def _parse_route(text: str) -> tuple[str, int | None]:
    if text == "exact":
        return "exact", None
    if not text.startswith("shots:"):
        raise ManifestError(f"bad --route value '{text}' (use exact or shots:N)")
    shots = _convert("--route", text, lambda t: int(t.split(":", 1)[1]))
    if shots < 1:
        raise ManifestError("shot count must be >= 1")
    return "hadamard", shots


def _parse_theta0(text: str | None):
    if text is None:
        return None
    theta0 = _convert("--theta0", text, lambda t: tuple(float(v) for v in t.split(",")))
    if not np.all(np.isfinite(theta0)):
        raise ManifestError(f"--theta0 values must be finite, got '{text}'")
    return theta0


def _parse_dtau(text: str):
    if text == "auto":
        return text
    dtau = _convert("--dtau", text)
    if not 0 < dtau < np.inf:  # NaN fails too
        raise ManifestError("--dtau must be positive and finite")
    return dtau


def _manifest_from_args(args) -> RunManifest:
    """The manifest of a scan, point or excited invocation; point takes one R."""
    route, shots = _parse_route(args.route)
    dtau, r_selection = _parse_dtau(args.dtau), _parse_r_selection(args.r_selection)
    if args.command == "point" and (r_selection == "all" or len(r_selection) != 1):
        raise ManifestError(f"{args.command} takes exactly one bond distance via --r")
    values = dict(vars(args), route=route, shots=shots, dtau=dtau, r_selection=r_selection,
                  theta0=_parse_theta0(args.theta0))   # argparse's dests are the field names
    return RunManifest(**{f.name: values[f.name] for f in fields(RunManifest)})


def _add_run_flags(p, default_r):
    p.add_argument("--table", default="lih",
                   help="table path, or bundled name: lih, h2-synthetic")
    p.add_argument("--ansatz", default="he", choices=sorted(ANSATZ_FAMILIES))
    p.add_argument("--cmf", action="store_true",
                   help="reduce 3-qubit rows to 2 qubits before the run")
    p.add_argument("--r", dest="r_selection", default=default_r,
                   help="comma list of R values, or 'all'")
    p.add_argument("--iters", dest="iterations", type=int, default=4)
    p.add_argument("--dtau", default="auto", help="'auto' or a positive value")
    p.add_argument("--route", default="exact", help="exact or shots:N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta0", default=None, help="comma list of initial angles")
    p.add_argument("--out", dest="out_dir", default=None, help="output directory")
    p.add_argument("--trace", action="store_true",
                   help="write per-iteration trace files")


def _cmd_scan(args) -> int:
    manifest = _manifest_from_args(args)
    points, trajectories, cmf_records = run_scan(manifest)
    if manifest.out_dir:
        emit_outputs(points, trajectories, manifest.out_dir, manifest, cmf_records)
    for p in points:
        print(f"R={p.r:g} e_qite={format_number(p.e_qite)} "
              f"e_exact={format_number(p.e_exact)} "
              f"fidelity={format_number(p.final_fidelity)} "
              f"flags={';'.join(p.flags) or '-'}")
    return 1 if any(f.startswith("error") for p in points for f in p.flags) else 0


def _cmd_spectrum(args) -> int:
    h = hamiltonian_at(load_manifest_table(args.table), args.r)
    spec, bound = exact_spectrum(h), gershgorin_emax(to_dense_matrix(h))
    print("eigenvalues:", " ".join(format_number(v) for v in spec.eigenvalues))
    print("degenerate levels:",
          ",".join(str(i) for i, f in enumerate(spec.degeneracy_flags) if f) or "none")
    print("gershgorin e_max:", format_number(bound.e_max))
    return 0


def _cmd_excited(args) -> int:
    points = run_scan(_manifest_from_args(args), lift=True)[0]
    for p in points:
        if len(points) > 1:
            print(f"[R={p.r:g}]")
        if p.e_max is None:   # the row failed
            print(f"flags = {p.flags[0]}")
            continue
        print(f"gershgorin e_max = {format_number(p.e_max)}")
        print(f"first excited (oracle) = {format_number(p.e_exact)}")
        print(f"qite on lifted hamiltonian = {format_number(p.e_qite)}")
        print(f"deviation = {format_number(abs(p.e_qite - p.e_exact))}")
        if "non-monotone" in p.flags:
            print("flags = non-monotone")
    return 1 if any(p.e_max is None for p in points) else 0


def _cmd_validate(args) -> int:
    try:
        table = load_manifest_table(args.table)
    except ValueError as exc:
        print(f"invalid table: {exc}", file=sys.stderr)
        return 2
    print(f"molecule: {table.molecule_name or '(unnamed)'}")
    print(f"qubits: {table.n_qubits}")
    print(f"labels: {','.join(table.pauli_labels)}")
    print(f"rows: {len(table.rows)} "
          f"(R from {table.bond_distances[0]:g} to {table.bond_distances[-1]:g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqite",
        description="Variational imaginary-time ground-state scans "
                    "over molecular Pauli tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="potential-energy curve")
    _add_run_flags(p_scan, default_r="all")
    p_scan.set_defaults(func=_cmd_scan)

    p_point = sub.add_parser("point", help="single bond distance")
    _add_run_flags(p_point, default_r="1.5")
    p_point.set_defaults(func=_cmd_scan)

    p_spec = sub.add_parser("spectrum", help="exact spectrum of one row")
    p_spec.add_argument("--table", default="lih")
    p_spec.add_argument("--r", type=float, required=True)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_exc = sub.add_parser("excited", help="lift the ground level, then solve")
    p_exc.add_argument("--table", default="lih")
    p_exc.add_argument("--r", dest="r_selection", required=True, help="comma list, or 'all'")
    p_exc.add_argument("--iters", dest="iterations", type=int, default=20)
    p_exc.add_argument("--dtau", default="auto",
                       help="'auto' (the 4-iteration rule) or a positive value")
    p_exc.add_argument("--seed", type=int, default=0)
    p_exc.set_defaults(func=_cmd_excited, ansatz="he", cmf=False, route="exact", theta0=None,
                       out_dir=None, trace=False)

    p_val = sub.add_parser("validate", help="table lint")
    p_val.add_argument("--table", required=True)
    p_val.set_defaults(func=_cmd_validate)

    return parser


_parser = functools.cache(build_parser)     # built once, on the first main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        kind = "manifest error" if isinstance(exc, ManifestError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
