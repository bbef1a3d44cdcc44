"""One benchmark task, run in a fresh interpreter from the checkout root.

    python3 perfbench/child.py [--trace OUT] cli -- <mvop arguments>
    python3 perfbench/child.py [--trace OUT] sweep POINTS.json
    python3 perfbench/child.py setup ALPHA BETA K ELL
    python3 perfbench/child.py calib [THREADS]

The package is not installed, so `src` goes on the path here.  `cli` runs
`mvop.cli.main` exactly as the `mvop` entry point would.  `sweep` calls the
library across parameter points in this one process and writes JSON to
stdout.  `setup` prints the monotonic clock once `import mvop` is done and the
first Params with both operators is built.  `calib` prints it after the
same kind of start-up and arithmetic without mvop: the reference launch that
measures the machine's current speed.  With --trace the layer functions are
wrapped before anything runs and the trace is written to OUT at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time

PEAK_RSS_TAG = "perfbench-peak-rss-kb"  # last line on stderr
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))


def _setup(alpha, beta, k, ell) -> int:
    import mvop

    p = mvop.Params(mvop.parse_rational(alpha), mvop.parse_rational(beta), mvop.parse_rational(k), int(ell))
    mvop.hyper_operator(p)
    mvop.companion_operator(p)
    print(repr(time.perf_counter()), flush=True)
    return 0


def _calib(threads="1") -> int:
    # The standard modules mvop imports, then a 5 x 5 rational matrix
    # recursion on as many threads as the workload's tasks use: shaped like
    # the workload, but it never touches mvop.
    import argparse, concurrent.futures, csv, dataclasses, functools, io, math, random, re, threading  # noqa: F401,E401
    from fractions import Fraction

    def recursion():
        m = [[Fraction(i + 2 * j + 1, 3 + i) for j in range(5)] for i in range(5)]
        v = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
        for step in range(20):
            v = [[sum(v[i][t] * m[t][j] for t in range(5)) / (step + 2) for j in range(5)] for i in range(5)]

    workers = [threading.Thread(target=recursion) for _ in range(int(threads))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    print(repr(time.perf_counter()), flush=True)
    return 0


def _sweep(points_path) -> int:
    import mvop

    with open(points_path) as handle:
        points = json.load(handle)
    out = []
    for pt in points:
        p = mvop.Params(
            mvop.parse_rational(pt["alpha"]), mvop.parse_rational(pt["beta"]), mvop.parse_rational(pt["k"]), pt["ell"]
        )
        degrees = range(pt["max_w"] + 1)
        classes = [
            [list(m) for m in mvop.find_collisions(p, mvop.hyper_eigenvalue(p, w, j)).members]
            for w in degrees
            for j in range(p.size)
        ]
        polys = [mvop.orthogonal_polynomial(p, w).to_json_dict()["coeffs"] for w in degrees]
        norms = [mvop.gram_block(p, w, w).as_dict()["entries"] for w in degrees]
        out.append({"params": p.as_dict(), "classes": classes, "polys": polys, "norms": norms})
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def _cli(argv) -> int:
    from mvop.cli import main

    return main(argv)


def _report_peak_rss() -> None:
    # VmHWM is this program's own peak.  The parent cannot use wait4's
    # ru_maxrss: Linux carries the launching process's peak over into it.
    with open("/proc/self/status") as handle:
        kb = next(line.split()[1] for line in handle if line.startswith("VmHWM:"))
    print(f"{PEAK_RSS_TAG} {kb}", file=sys.stderr, flush=True)


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
        import tracer

        tracer.install()
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "cli":
            return _cli(rest[1:] if rest[:1] == ["--"] else rest)
        if mode == "sweep":
            return _sweep(*rest)
        if mode == "setup":
            return _setup(*rest)
        if mode == "calib":
            return _calib(*rest)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if trace_out is not None:
            tracer.dump(trace_out)
        _report_peak_rss()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
