"""Self-test of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Needs only numpy and the bundled LiH table; vqite itself is not run.
"""

import signal
import statistics
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import Oracle, check_curve, check_excited  # noqa: E402
from tracer import aggregate, patched  # noqa: E402
from workloads import (PROBE_REFERENCE_S, Invocation, Stopwatch,  # noqa: E402
                       at_reference_speed, nondeterministic_points)

TABLE = HERE.parent / "src" / "vqite" / "data" / "lih_sto6g.csv"


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_direct_children(self):
        spans = [
            ["run", 0.0, 10.0, -1],
            ["step", 1.0, 4.0, 0],
            ["leaf", 2.0, 3.0, 1],
            ["step", 3.5, 6.0, 0],    # overlaps the first step: union is 1..6
            ["solve", 8.0, 9.0, 0],
        ]
        agg = aggregate(spans)
        self.assertEqual(agg["run"]["calls"], 1)
        self.assertAlmostEqual(agg["run"]["ms"], 10e3)
        self.assertAlmostEqual(agg["run"]["self_ms"], (10 - 5 - 1) * 1e3)
        self.assertEqual(agg["step"]["calls"], 2)
        self.assertAlmostEqual(agg["step"]["ms"], 5.5e3)
        self.assertAlmostEqual(agg["step"]["self_ms"], 4.5e3)
        self.assertAlmostEqual(agg["leaf"]["self_ms"], 1e3)

    def test_recursion_is_not_counted_twice(self):
        agg = aggregate([["f", 0.0, 4.0, -1], ["f", 1.0, 2.0, 0]])
        self.assertEqual(agg["f"]["calls"], 2)
        self.assertAlmostEqual(agg["f"]["ms"], 4e3)
        self.assertAlmostEqual(agg["f"]["self_ms"], 4e3)


class Patching(unittest.TestCase):
    def test_patches_every_lookup_restores_and_reports_missing(self):
        def target():
            return 1
        base = types.ModuleType("fakepkg.base")
        user = types.ModuleType("fakepkg.user")
        base.target, user.target, user.table = target, target, {"k": target}
        sys.modules.update({"fakepkg.base": base, "fakepkg.user": user})
        calls = []

        def make(fn):
            def wrapper():
                calls.append(1)
                return fn()
            return wrapper
        try:
            with patched({("fakepkg.base", "target"): make,
                          ("fakepkg.base", "gone"): make}, "fakepkg") as missing:
                self.assertEqual(user.target() + user.table["k"]() + base.target(), 3)
                self.assertEqual(missing, {("fakepkg.base", "gone")})
            self.assertEqual(len(calls), 3)
            self.assertIs(user.target, target)
            self.assertIs(user.table["k"], target)
        finally:
            del sys.modules["fakepkg.base"], sys.modules["fakepkg.user"]


class CurveCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.oracle = Oracle(TABLE)

    def curve(self, doctor=None) -> str:
        lines = ["R,e_qite,e_exact,fidelity,iterations,flags"]
        for r in self.oracle.bond_distances:
            e = float(self.oracle.spectra[r][0])
            lines.append("%g,%.10g,%.10g,0.99,4," % (r, e + 1e-3, e))
        if doctor:
            doctor(lines)
        return "\n".join(lines) + "\n"

    def test_clean_curve_passes(self):
        points = check_curve(self.curve(), self.oracle)
        self.assertEqual(len(points), 50)
        self.assertTrue(all(p.ok for p in points))
        self.assertAlmostEqual(max(p.err_mha for p in points), 1.0, places=5)

    def test_wrong_e_exact_is_rejected(self):
        def doctor(lines):
            r, e_qite, e_exact, *rest = lines[7].split(",")
            lines[7] = ",".join([r, e_qite, "%.10g" % (float(e_exact) + 1e-6), *rest])
        points = check_curve(self.curve(doctor), self.oracle)
        self.assertEqual([p.r for p in points if not p.ok], [self.oracle.bond_distances[6]])

    def test_comma_split_error_row_fails_its_point_without_crashing(self):
        def doctor(lines):
            r = lines[3].split(",")[0]
            lines[3] = f"{r},nan,nan,,4,error:dims (2, 3) disagree"
        points = check_curve(self.curve(doctor), self.oracle)
        failed = [p for p in points if not p.ok]
        self.assertEqual([p.r for p in failed], [self.oracle.bond_distances[2]])
        self.assertIn("malformed", failed[0].reason)

    def test_error_flag_and_non_finite_energy_fail(self):
        def doctor(lines):
            lines[1] = lines[1].rsplit(",", 1)[0] + ",error:boom"
            lines[2] = lines[2].replace(lines[2].split(",")[1], "inf", 1)
        points = check_curve(self.curve(doctor), self.oracle)
        self.assertEqual(sum(not p.ok for p in points), 2)

    def test_differing_rows_fail_only_their_points(self):
        clean = self.curve()
        changed = clean.replace("0.99,4,", "0.98,4,", 1)
        a = Invocation(0, 0.0, {"curve.csv": clean.encode(), "<stdout>": b""},
                       check_curve(clean, self.oracle))
        b = Invocation(0, 0.0, {"curve.csv": changed.encode(), "<stdout>": b""},
                       check_curve(changed, self.oracle))
        self.assertEqual(nondeterministic_points(a, b), {self.oracle.bond_distances[0]})
        b.outputs["<stdout>"] = b"x"
        self.assertEqual(len(nondeterministic_points(a, b)), 50)


class ProbedStopwatch(unittest.TestCase):
    def test_probe_time_is_taken_out_and_the_timer_stopped(self):
        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
        with Stopwatch(probed=True) as watch:
            t0 = time.perf_counter()
            with watch.timed():
                busy(0.3)
            elapsed = time.perf_counter() - t0
            busy(0.1)                              # probed, but not timed
        in_call = elapsed - watch.wall
        self.assertGreaterEqual(len(watch.probes), 4)
        self.assertGreater(in_call, 0)
        self.assertLess(in_call, sum(watch.probes[1:]) + 1e-3)
        self.assertAlmostEqual(watch.probe_s, statistics.fmean(watch.probes))
        self.assertAlmostEqual(at_reference_speed(watch.wall, watch.probe_s),
                               watch.wall * PROBE_REFERENCE_S / watch.probe_s)
        self.assertIsNone(Stopwatch.active)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_unprobed_stopwatch_takes_no_probe(self):
        with Stopwatch(probed=False) as watch, watch.timed():
            pass
        self.assertEqual(watch.probes, [])
        self.assertIsNone(watch.probe_s)


class ExcitedCheck(unittest.TestCase):
    def test_level_outside_the_interlacing_bounds_is_rejected(self):
        oracle = Oracle(TABLE)
        r = oracle.bond_distances[10]
        spec = [float(v) for v in oracle.spectra[r]]

        def stdout(level, qite):
            return (f"gershgorin e_max = 0\nfirst excited (oracle) = {level!r}\n"
                    f"qite on lifted hamiltonian = {qite!r}\ndeviation = 0\n")
        good = (spec[1] + spec[2]) / 2
        self.assertTrue(check_excited(r, 0, stdout(good, good + 2e-3), oracle).ok)
        self.assertFalse(check_excited(r, 0, stdout(spec[0], spec[0]), oracle).ok)
        self.assertFalse(check_excited(r, 0, stdout(good, good - 1e-3), oracle).ok)
        self.assertFalse(check_excited(r, 2, stdout(good, good), oracle).ok)


if __name__ == "__main__":
    unittest.main()
