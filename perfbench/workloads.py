"""The three reference-CLI workloads, driven in-process through vqite.cli.main.

One invocation is what a user types once: a 50-point `scan`, or the 50
`excited` calls that cover the table one bond distance at a time.  The
seed reaches the program only as `--seed`; `--workers` stays at its
default of 1.

The host's CPU speed drifts by up to 60% over seconds to minutes, whatever
the program does.  So a timed invocation also runs `probe`, a fixed slice
of work, every PROBE_PERIOD_S from a SIGALRM handler, which Python runs
between the program's bytecodes.  Probe time is taken out of the wall
time, and `at_reference_speed` rescales the wall time by the mean probe
time of the invocation to a host on which the probe takes PROBE_REFERENCE_S:
a slow or fast spell of the host stretches program and probe alike.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import signal
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import (Oracle, PointResult, check_curve, check_excited,
                    curve_lines_by_r)

SCAN_ARGS = {
    "lih-cmf-he": ["--table", "lih", "--ansatz", "he", "--cmf", "--r", "all"],
    "lih-ucc-shots": ["--table", "lih", "--ansatz", "ucc-lih",
                      "--route", "shots:10000", "--r", "all"],
}
WORKLOADS = (*SCAN_ARGS, "lih-excited")
SEEDED = ("lih-ucc-shots",)            # outputs depend on --seed
ENERGY_RISE_PREFIX = "energy rose"
STDOUT = "<stdout>"

PROBE_PERIOD_S = 0.05
PROBE_REFERENCE_S = 0.005
_rng = np.random.default_rng(0)
_PROBE_SYMMETRIC = _rng.standard_normal((24, 24))
_PROBE_SYMMETRIC = _PROBE_SYMMETRIC @ _PROBE_SYMMETRIC.T
_PROBE_HERMITIAN = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_PROBE_HERMITIAN = _PROBE_HERMITIAN + _PROBE_HERMITIAN.conj().T
_PROBE_STATE = _rng.standard_normal(256) + 1j * _rng.standard_normal(256)
_PROBE_GATE = np.linalg.qr(_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))[0]
_PROBE_WORDS = [f"w{i % 97}_{i}" for i in range(200)]
del _rng


def probe() -> float:
    """Seconds taken by a fixed slice of work shaped like the program's, about
    6 ms: interpreted Python loops, dict and string work, single-qubit gates
    on an 8-qubit state by tensordot, and small dense eigensolves.  No mix
    tracks every workload best; this one keeps each within a few percent."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    for _ in range(2):
        groups = {}
        for word in _PROBE_WORDS:
            groups.setdefault(word[:3], []).append(len(word))
        sorted((sum(v), k) for k, v in groups.items())
        "".join(f"{k}:{len(v)}," for k, v in groups.items())
    psi = _PROBE_STATE
    for k in range(60):
        q = k % 8
        t = np.tensordot(_PROBE_GATE, psi.reshape((2,) * 8), axes=([1], [q]))
        psi = np.moveaxis(t, 0, q).reshape(-1)
        psi = psi / np.linalg.norm(psi)
    for _ in range(10):
        np.linalg.eigh(_PROBE_HERMITIAN)
    for _ in range(35):
        np.linalg.eigvalsh(_PROBE_SYMMETRIC @ _PROBE_SYMMETRIC)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, rescaled to a host
    on which the probe takes PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / probe_s


class Stopwatch:
    """Wall time of the calls into the program, made inside `timed()`.

    Probed, it runs `probe` once on entry and then every PROBE_PERIOD_S of
    wall time from a one-shot SIGALRM timer, re-armed after each probe so
    that probes never nest.  Probe time inside a timed call is not counted
    in `wall`.  The handler stays installed after the first probed use and
    does nothing while no stopwatch runs, so that an alarm already pending
    when the timer is cancelled finds a handler."""

    active: Stopwatch | None = None

    def __init__(self, probed: bool):
        self.probed = probed
        self.wall = 0.0
        self.probes: list[float] = []
        self._in_call = False
        self._probed_in_call = 0.0

    def __enter__(self):
        if self.probed:
            self.probes.append(probe())
            signal.signal(signal.SIGALRM, Stopwatch._on_alarm)
            Stopwatch.active = self
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.probed:
            Stopwatch.active = None
            signal.setitimer(signal.ITIMER_REAL, 0)

    @staticmethod
    def _on_alarm(signum, frame):
        watch = Stopwatch.active
        if watch is None:
            return
        spent = probe()
        watch.probes.append(spent)
        if watch._in_call:
            watch._probed_in_call += spent
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    @contextlib.contextmanager
    def timed(self):
        self._probed_in_call = 0.0
        self._in_call = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._in_call = False
            self.wall += elapsed - self._probed_in_call

    @property
    def probe_s(self) -> float | None:
        return statistics.fmean(self.probes) if self.probes else None


def load_cli(src: Path):
    """Import vqite.cli from the checkout's own src/ and nowhere else."""
    if not (src / "vqite" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vqite package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("vqite.cli")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: vqite was imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class Invocation:
    """Outputs of one workload invocation and their oracle verdicts."""

    seed: int
    wall_s: float
    outputs: dict[str, bytes]          # file name (scan) or R (excited) -> bytes
    points: list[PointResult]
    probe_s: float | None = None       # mean probe time, when probed
    energy_rises: int = 0

    @property
    def failed(self) -> int:
        return sum(not p.ok for p in self.points)


def invoke(workload: str, seed: int, tmp: Path, oracle: Oracle, cli,
           probed: bool = False) -> Invocation:
    """Run one invocation; only the calls into `cli.main` are timed.
    `probed` runs the probe alongside them and sets `probe_s`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if workload in SCAN_ARGS:
            inv = _invoke_scan(workload, seed, tmp, oracle, cli, probed)
        else:
            inv = _invoke_excited(seed, oracle, cli, probed)
    inv.energy_rises = sum(str(w.message).startswith(ENERGY_RISE_PREFIX)
                           for w in caught)
    return inv


def _invoke_scan(workload, seed, tmp, oracle, cli, probed) -> Invocation:
    out = tmp / f"out-{workload}-{seed}"
    argv = ["scan", *SCAN_ARGS[workload], "--seed", str(seed), "--out", str(out)]
    stdout = io.StringIO()
    with Stopwatch(probed) as watch, watch.timed(), contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    outputs[STDOUT] = f"rc={rc}\n{stdout.getvalue()}".encode()
    points = check_curve(outputs.get("curve.csv", b"").decode(), oracle)
    return Invocation(seed, watch.wall, outputs, points, watch.probe_s)


def _invoke_excited(seed, oracle, cli, probed) -> Invocation:
    captured = []
    with Stopwatch(probed) as watch:
        for r in oracle.bond_distances:
            stdout = io.StringIO()
            with watch.timed(), contextlib.redirect_stdout(stdout):
                rc = cli.main(["excited", "--table", "lih", "--r", repr(r),
                               "--seed", str(seed)])
            captured.append((r, rc, stdout.getvalue()))
    outputs = {repr(r): f"rc={rc}\n{text}".encode() for r, rc, text in captured}
    points = [check_excited(r, rc, text, oracle) for r, rc, text in captured]
    return Invocation(seed, watch.wall, outputs, points, watch.probe_s)


def nondeterministic_points(a: Invocation, b: Invocation) -> set[float]:
    """Bond distances whose output bytes differ between two invocations
    made with the same seed.  A difference outside curve.csv rows (another
    file, the header) cannot be pinned to a point and fails all of them."""
    all_rs = {p.r for p in a.points}
    if STDOUT not in a.outputs:  # excited: one output per bond distance
        return {float(k) for k in a.outputs.keys() | b.outputs.keys()
                if a.outputs.get(k) != b.outputs.get(k)}
    rest_a = {k: v for k, v in a.outputs.items() if k != "curve.csv"}
    rest_b = {k: v for k, v in b.outputs.items() if k != "curve.csv"}
    curve_a = a.outputs.get("curve.csv", b"").decode()
    curve_b = b.outputs.get("curve.csv", b"").decode()
    if rest_a != rest_b or curve_a.split("\n", 1)[0] != curve_b.split("\n", 1)[0]:
        return all_rs
    la, lb = curve_lines_by_r(curve_a), curve_lines_by_r(curve_b)
    differing = set()
    for key in la.keys() | lb.keys():
        if la.get(key) != lb.get(key):
            try:
                differing.add(float(key))
            except ValueError:
                return all_rs
    return {r for r in all_rs if any(abs(r - d) < 1e-6 for d in differing)}
