"""Fresh-interpreter measurements, started by run.py.

    child.py setup SRC                  seconds to `import vqite` and load the LiH table,
                                        then the median time of the probe after it
    child.py rss WORKLOAD SEED TMP SRC  peak resident MB of one workload invocation
"""

import resource
import statistics
import sys
import time


def peak_rss_kib() -> int:
    """High-water resident set of this process image.  VmHWM starts afresh
    at exec; ru_maxrss can carry the parent's peak over from the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> None:
    if argv[0] == "setup":
        t0 = time.perf_counter()
        sys.path.insert(0, argv[1])
        import vqite
        from vqite.tables import load_lih_table
        load_lih_table()
        elapsed = time.perf_counter() - t0
        if not vqite.__file__.startswith(argv[1]):
            raise SystemExit(f"vqite was imported from {vqite.__file__}")
        from workloads import probe
        probes = [probe() for _ in range(6)][1:]    # the first call warms up
        print(repr(elapsed), repr(statistics.median(probes)))
    elif argv[0] == "rss":
        from pathlib import Path

        from oracle import Oracle
        from workloads import invoke, load_cli
        workload, seed, tmp, src = argv[1], int(argv[2]), Path(argv[3]), Path(argv[4])
        cli = load_cli(src)
        inv = invoke(workload, seed, tmp, Oracle(src / "vqite" / "data" / "lih_sto6g.csv"), cli)
        if inv.failed:
            raise SystemExit(f"{inv.failed} points failed")
        print(repr(peak_rss_kib() / 1024))
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
