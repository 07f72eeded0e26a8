"""The benchmark's own exact-diagonalization oracle and output checks.

Nothing here imports vqite: the table is read with the `csv` module and
every Hamiltonian row is diagonalized with `numpy.linalg.eigvalsh`, so the
program under test never judges itself.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

CURVE_HEADER = ["R", "e_qite", "e_exact", "fidelity", "iterations", "flags"]
E_EXACT_TOL = 1e-9       # curve.csv prints 10 significant digits; |E| < 10 here
R_MATCH_TOL = 1e-6       # curve.csv prints R with %g

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def read_table(path) -> tuple[list[str], list[tuple[float, list[float]]]]:
    """Pauli labels and (R, coefficients) rows of a comma-delimited table."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    header, *body = csv.reader(lines)
    labels = [c.strip() for c in header[1:]]
    rows = [(float(cells[0]), [float(c) for c in cells[1:]]) for cells in body]
    return labels, rows


def dense(labels, coeffs) -> np.ndarray:
    """sum_l c_l kron(P[s_l[0]], P[s_l[1]], ...): q0 is the most significant bit."""
    return sum(c * reduce(np.kron, [_PAULI[ch] for ch in lab])
               for c, lab in zip(coeffs, labels))


class Oracle:
    """Exact spectra of every table row, keyed by bond distance."""

    def __init__(self, table_path):
        labels, rows = read_table(table_path)
        self.bond_distances = [r for r, _ in rows]
        self.spectra = {r: np.linalg.eigvalsh(dense(labels, c)) for r, c in rows}

    def lookup(self, r: float):
        best = min(self.bond_distances, key=lambda d: abs(d - r))
        return best if abs(best - r) < R_MATCH_TOL else None


@dataclass(frozen=True)
class PointResult:
    """Outcome of one bond distance; err_mha/fidelity are None when failed."""

    r: float
    ok: bool
    reason: str = ""
    flagged: bool = False
    err_mha: float | None = None
    fidelity: float | None = None


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {text!r}")
    return v


def check_curve(text: str, oracle: Oracle) -> list[PointResult]:
    """One result per table row: a row passes when it is well-formed,
    error-free, finite and its e_exact matches the oracle ground energy."""
    rows = list(csv.reader(io.StringIO(text)))
    found: dict[float, PointResult] = {}
    if not rows or rows[0] != CURVE_HEADER:
        rows = []
    for cells in rows[1:]:
        if len(cells) != len(CURVE_HEADER):
            continue  # malformed: its point stays missing, hence failed
        try:
            r = float(cells[0])
        except ValueError:
            continue
        key = oracle.lookup(r)
        if key is None or key in found:
            continue
        found[key] = _check_row(key, cells, oracle)
    return [found.get(r, PointResult(r, False, "missing or malformed row"))
            for r in oracle.bond_distances]


def _check_row(r: float, cells: list[str], oracle: Oracle) -> PointResult:
    flags = [f for f in cells[5].split(";") if f]
    if any(f.startswith("error") for f in flags):
        return PointResult(r, False, "error flag")
    try:
        e_qite, e_exact = _finite(cells[1]), _finite(cells[2])
        fid = _finite(cells[3]) if cells[3] else None
    except ValueError as exc:
        return PointResult(r, False, str(exc))
    ground = float(oracle.spectra[r][0])
    if abs(e_exact - ground) > E_EXACT_TOL:
        return PointResult(r, False, f"e_exact {e_exact!r} != eigvalsh {ground!r}")
    return PointResult(r, True, flagged=bool(flags),
                       err_mha=abs(e_qite - e_exact) * 1e3, fidelity=fid)


def check_excited(r: float, rc: int, stdout: str, oracle: Oracle) -> PointResult:
    """One `excited` call.  The program's first-excited level belongs to the
    CMF-reduced 4x4 Hamiltonian, a compression of the 8x8 row through an
    isometry, so Cauchy interlacing bounds it by the row's own eigvalsh:
    lambda_1 <= level <= lambda_5.  QITE on the lifted Hamiltonian is
    variational, so its energy may not fall below that level."""
    if rc != 0:
        return PointResult(r, False, f"exit code {rc}")
    values = dict(line.partition(" = ")[::2] for line in stdout.splitlines())
    try:
        level = _finite(values["first excited (oracle)"])
        qite = _finite(values["qite on lifted hamiltonian"])
    except (KeyError, ValueError) as exc:
        return PointResult(r, False, f"unreadable output: {exc}")
    lo, hi = float(oracle.spectra[r][1]), float(oracle.spectra[r][5])
    if not lo - E_EXACT_TOL <= level <= hi + E_EXACT_TOL:
        return PointResult(r, False, f"level {level!r} outside [{lo!r}, {hi!r}]")
    if qite < level - E_EXACT_TOL:
        return PointResult(r, False, f"qite {qite!r} below level {level!r}")
    return PointResult(r, True, err_mha=abs(qite - level) * 1e3)


def curve_lines_by_r(text: str) -> dict[str, str]:
    """Raw curve.csv lines keyed by their R cell, for byte comparison."""
    out = {}
    for line in text.splitlines()[1:]:
        out.setdefault(line.split(",", 1)[0], line)
    return out
