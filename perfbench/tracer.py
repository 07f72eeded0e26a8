"""Spans and counters recorded around the public functions of each vqite module.

The wrappers live here, not in the program: each function is replaced
wherever it is looked up (every `vqite` module attribute and dict value
that holds it, or the class attribute for a method) and the originals are
put back afterwards.  A function that no longer exists is reported as
absent.  Hot paths (one call per gate or per circuit) are only counted,
in a separate pass, so that their cost does not inflate the spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# metric prefix -> (module, attribute names, metric suffixes).  Several
# attributes may feed one prefix; "Class.method" names a method.
SPANS = {
    "tables.parse_table": ("vqite.tables", ("parse_table",), ("ms",)),
    "tables.hamiltonian_at": ("vqite.tables", ("hamiltonian_at",), ("calls", "ms")),
    "pauli.to_dense_matrix": ("vqite.pauli", ("to_dense_matrix",), ("calls", "ms")),
    "pauli.weighted_partial_trace": ("vqite.pauli", ("weighted_partial_trace",), ("ms",)),
    "pauli.pauli_decompose": ("vqite.pauli", ("pauli_decompose",), ("calls", "ms")),
    "pauli.expectation": ("vqite.pauli", ("expectation",), ("calls", "ms")),
    "spectra.exact_spectrum": ("vqite.spectra", ("exact_spectrum",), ("calls", "ms")),
    "spectra.gershgorin_emax": ("vqite.spectra", ("gershgorin_emax",), ("ms",)),
    "spectra.lift_ground_state": ("vqite.spectra", ("lift_ground_state",), ("ms",)),
    "cmf.cmf_reduce": ("vqite.cmf", ("cmf_reduce",), ("calls", "ms", "self_ms")),
    "ansatz.build": ("vqite.ansatz", ("build_ucc_h2", "build_ucc_lih",
                                      "build_hardware_efficient"), ("calls", "ms")),
    "ansatz.state": ("vqite.ansatz", ("AnsatzCircuit.state",), ("calls", "ms")),
    "ansatz.derivative_state": ("vqite.ansatz", ("AnsatzCircuit.derivative_state",),
                                ("calls", "ms")),
    "simulator.run_circuit": ("vqite.simulator", ("run_circuit",), ("calls", "ms")),
    "mclachlan.compute_exact": ("vqite.mclachlan", ("compute_exact",),
                                ("calls", "ms", "self_ms")),
    "mclachlan.build_hadamard_circuits": ("vqite.mclachlan", ("build_hadamard_circuits",),
                                          ("ms",)),
    "mclachlan.evaluate_circuit": ("vqite.mclachlan", ("evaluate_circuit",), ("ms",)),
    "mclachlan.compute_sampled": ("vqite.mclachlan", ("compute_sampled",),
                                  ("calls", "ms", "self_ms")),
    "mclachlan.solve_update": ("vqite.mclachlan", ("solve_update",), ("calls", "ms")),
    "engine.run_qite": ("vqite.engine", ("run_qite",), ("calls", "ms", "self_ms")),
    "cli.run_scan": ("vqite.cli", ("run_scan",), ("ms",)),
    "cli.emit_outputs": ("vqite.cli", ("emit_outputs",), ("ms",)),
}

# counter -> (module, attribute) it is measured on, in the counting pass.
# engine.energy_rises comes from the captured warnings instead.
COUNTS = {
    "simulator.gates_applied": ("vqite.simulator", "apply_gate"),
    "simulator.measure_z.calls": ("vqite.simulator", "measure_z_expectation"),
    "mclachlan.circuits": ("vqite.mclachlan", "evaluate_circuit"),
    "mclachlan.shots": ("vqite.mclachlan", "evaluate_circuit"),
    "mclachlan.solve_update.rank_kept_frac": ("vqite.mclachlan", "solve_update"),
    "engine.iterations": ("vqite.engine", "run_qite"),
    "cli.bytes_written": ("vqite.cli", "emit_outputs"),
}


def _resolve(module: str, attr: str):
    """(owner, name, original) for a module function or a class method."""
    mod = sys.modules.get(module)
    owner, _, name = attr.rpartition(".")
    if owner:
        mod = getattr(mod, owner, None)
        fn = vars(mod).get(name) if isinstance(mod, type) else None
    else:
        fn = getattr(mod, name, None)
    return (mod, name, fn) if callable(fn) else None


@contextmanager
def patched(wrappers: dict[tuple[str, str], object], package: str = "vqite"):
    """Install wrappers for (module, attribute) pairs; yields the set of
    pairs that were missing.  Everything is restored on exit."""
    undo = []
    missing = set()
    try:
        for (module, attr), make in wrappers.items():
            found = _resolve(module, attr)
            if found is None:
                missing.add((module, attr))
                continue
            owner, name, original = found
            wrapper = make(original)
            if isinstance(owner, type):
                undo.append((setattr, owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package
                                       or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((setattr, mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                undo.append((dict.__setitem__, value, k, original))
                                value[k] = wrapper
        yield missing
    finally:
        for restore, target, key, original in reversed(undo):
            restore(target, key, original)


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index] (-1 for a root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
            return wrapper
        return make

    def wrappers(self) -> dict:
        return {(module, attr): self.wrap(prefix)
                for prefix, (module, attrs, _) in SPANS.items() for attr in attrs}


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy ms and self ms.

    Busy time sums only the outermost span of a name, so recursion is not
    counted twice.  Self time is a span's duration minus the union of its
    direct children's intervals, clipped to the span.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0,
                                                            "self_ms": 0.0})
    for idx, (name, start, end, parent) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        covered = _union_length((max(s, start), min(e, end))
                                for s, e in children.get(idx, ()) if e > start and s < end)
        agg["self_ms"] += (end - start - covered) * 1e3
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            agg["ms"] += (end - start) * 1e3
    return dict(out)


class Counters:
    """Counting-pass wrappers: plain integer tallies on the hot paths."""

    def __init__(self):
        self.values = defaultdict(int)
        self._rank = [0, 0]

    def wrappers(self) -> dict:
        v = self.values

        def counting(key):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    v[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def circuits(fn):
            bind = inspect.signature(fn).bind

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                v["mclachlan.circuits"] += 1
                v["mclachlan.shots"] += bind(*args, **kwargs).arguments.get("shots") or 0
                return fn(*args, **kwargs)
            return wrapper

        rank = self._rank

        def solve(fn):
            bind = inspect.signature(fn).bind
            module = sys.modules[fn.__module__]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = bind(*args, **kwargs).arguments
                system = next(iter(bound.values()))
                kept, total = kept_eigenvalues(system, bound.get("eps_cut"), module)
                rank[0] += kept
                rank[1] += total
                return fn(*args, **kwargs)
            return wrapper

        def qite(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                traj = fn(*args, **kwargs)
                v["engine.iterations"] += traj.iterations
                return traj
            return wrapper

        def emit(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                written = fn(*args, **kwargs)
                v["cli.bytes_written"] += sum(p.stat().st_size for p in written)
                return written
            return wrapper

        return {
            COUNTS["simulator.gates_applied"]: counting("simulator.gates_applied"),
            COUNTS["simulator.measure_z.calls"]: counting("simulator.measure_z.calls"),
            COUNTS["mclachlan.circuits"]: circuits,
            COUNTS["mclachlan.solve_update.rank_kept_frac"]: solve,
            COUNTS["engine.iterations"]: qite,
            COUNTS["cli.bytes_written"]: emit,
        }

    def result(self, missing) -> dict[str, float]:
        out = {}
        for key, where in COUNTS.items():
            if where in missing:
                continue
            if key == "mclachlan.solve_update.rank_kept_frac":
                if self._rank[1]:
                    out[key] = self._rank[0] / self._rank[1]
            else:
                out[key] = self.values[key]
        return out


def kept_eigenvalues(system, eps_cut, module) -> tuple[int, int]:
    """Eigenvalues of A that solve_update keeps, by its documented cut:
    lambda > eps_cut * lambda_max, eps_cut defaulting per route."""
    if eps_cut is None:
        shot = system.route == "hadamard" and system.shots
        eps_cut = getattr(module, "SHOT_EIG_CUTOFF" if shot else "EXACT_EIG_CUTOFF")
    lam = np.linalg.eigvalsh(np.asarray(system.a_matrix, dtype=float))
    floor = getattr(module, "ABS_EIG_FLOOR", 0.0)
    kept = 0 if lam.max() < floor else int(np.sum(lam > eps_cut * lam.max()))
    return kept, lam.size
