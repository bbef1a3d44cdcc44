"""mvop benchmark: seeded workloads, end-to-end metrics, and a traced run
for the per-layer metrics.  Standard library only; run from the checkout root:

    python3 perfbench/run.py --workload verify-suite --seed 3 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --write-digests           # refresh digests.json

Every task runs the program from outside in a fresh interpreter (child.py),
closed loop with one client.  A pass is one round of the workload's tasks on
points drawn from the seed; each pass draws new points.  A run makes at
least two passes, and more while the next one is expected to end within
--seconds.  With --trace 1 the run makes one untraced and one traced pass on
the same points and reports the per-layer metrics.  The last line of stdout
is the JSON result; WORKLOADS.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

import check  # noqa: E402
import points  # noqa: E402
from child import PEAK_RSS_TAG  # noqa: E402

DEFAULT_SEED = 0
DIGEST_PASSES = 4  # passes of the default seed whose output digests are stored
# Probe rounds (a set-up launch and reference launches) before the first
# pass and after every pass.  The machine's speed drifts by up to 2x over
# minutes on a shared host, so times are scaled by CALIB_REF_S / (median
# reference launch of the run): seconds on a machine where the reference
# launch takes CALIB_REF_S.  See WORKLOADS.md.
PROBES_FIRST = 4
PROBES_PER_PASS = 3
REFS_PER_ROUND = 2
CALIB_REF_S = 0.1
MIN_PASSES = 2
RUN_BUDGET_S = 170  # a task still running this long after its run began is killed

WORKLOADS = {
    "verify-suite": {"kind": "verify", "jobs": 1},
    "polys-deep": {"kind": "polys"},
    "sweep-resonant": {"kind": "sweep"},
    "verify-jobs2": {"kind": "verify", "jobs": 2},
}
GENERATORS = {"verify": points.verify_points, "polys": points.polys_points, "sweep": points.sweep_points}
CHECKERS = {"verify": check.check_verify, "polys": check.check_polys, "sweep": check.check_sweep}

# Metrics of single layers, reported by a traced run.  "<function>.calls" and
# "<function>.self_s" come from the trace counters; "<module>.self_s" sums the
# self time of the module's traced functions.
# weight pairings: inclusive time of these spans over traced task time x jobs
PAIRING_SPANS = ("verify.check_bilinear_symmetry", "verify.gram_block")
LAYER_MODULES = ("exact", "linalg", "matpoly", "model", "hyper", "verify", "cli")
TRACED_COUNTS = (
    "verify.gram_block",
    "matpoly.MatPoly.mul",
    "hyper.bracket_seq",
    "linalg.solve_matrix",
    "linalg.matmul",
    "linalg.matvec",
    "hyper.build_column",
    "linalg.nullspace",
    "verify.vec_inner_product",
    "exact.moment_ratio",
)
TRACED_SELF = (
    "verify.check_bilinear_symmetry",
    "verify.gram_block",
    "matpoly.MatPoly.mul",
    "matpoly.DiffOp.apply",
    "verify.check_symmetry_reduced",
    "verify.check_boundary",
    "verify.check_commute",
    "verify.check_eigen",
    "verify.decompose_in_basis",
    "matpoly.DiffOp.compose",
    "hyper.bracket_seq",
    "linalg.solve_matrix",
    "linalg.matmul",
    "linalg.matvec",
    "hyper.build_column",
    "hyper.poly_solution_space",
    "hyper.find_collisions",
    "linalg.nullspace",
    "verify.vec_inner_product",
    "model.weight_core",
    "model.hyper_operator",
    "model.companion_operator",
    "cli.main",
)


def layer_metric_units() -> dict:
    units = {f"{name}.calls": "count" for name in TRACED_COUNTS}
    units.update({f"{name}.self_s": "s" for name in TRACED_SELF})
    units.update({f"{m}.self_s": "s" for m in LAYER_MODULES})
    units.update(
        {
            "hyper.bracket_seq.steps": "count",
            "hyper.bracket_seq.distinct_ratio": "ratio",
            "hyper.build_column.distinct_ratio": "ratio",
            "hyper.orth_column_share": "ratio",
            "verify.run_suite.busy_ratio": "ratio",
            "verify.pairing_share": "ratio",
            "cli.output_bytes": "bytes",
            "exact.coeff_bits_max": "bits",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def _cli_args(pt, command, jobs=None):
    # '=' keeps argparse from reading a negative rational as a flag
    args = [command, f"--alpha={pt['alpha']}", f"--beta={pt['beta']}", f"--k={pt['k']}"]
    args += [f"--ell={pt['ell']}", f"--max-w={pt['max_w']}"]
    if jobs is not None:
        args.append(f"--jobs={jobs}")
    return ["cli", "--"] + args


def make_tasks(spec, pts) -> list:
    """Tasks of one pass: (digest key, child arguments, checker input, jobs)."""
    kind = spec["kind"]
    if kind == "sweep":
        return [("sweep|" + json.dumps(pts, sort_keys=True), ["sweep"], pts, 1)]
    jobs = spec.get("jobs")
    out = []
    for pt in pts:
        # jobs is left out of the key: the output must not depend on it
        key = f"{kind}|" + json.dumps(pt, sort_keys=True)
        out.append((key, _cli_args(pt, kind, jobs), pt, jobs or 1))
    return out


def canary_task(spec):
    """The default seed's first task, alone: its output digest is stored."""
    return make_tasks(spec, GENERATORS[spec["kind"]](DEFAULT_SEED, 0)[:1])[0]


def run_child(args, stdout_path, timeout, trace_path=None) -> dict:
    """Launch child.py, wait for it (killing it after timeout seconds), and
    return wall time, the child's own peak RSS (0 if it died before telling)
    and exit code."""
    cmd = [sys.executable, CHILD] + (["--trace", trace_path] if trace_path else []) + args
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path + ".err", "rb") as err:
        stderr = err.read().decode(errors="replace")
    tagged = [line.split()[1] for line in stderr.splitlines() if line.startswith(PEAK_RSS_TAG + " ")]
    rss_mb = int(tagged[-1]) / 1024 if tagged else 0.0
    return {"wall_s": end - start, "rss_mb": rss_mb, "code": proc.returncode, "stderr": stderr[-400:]}


def launch_time(args) -> float:
    """Seconds from launching child.py with args until it prints the
    monotonic clock, which it shares with this process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {proc.stderr[-400:]}")
    return float(proc.stdout.strip()) - start


def probe(pt, threads, rounds, setup, calib):
    """Per round: one set-up launch, then REFS_PER_ROUND reference launches
    on the workload's number of threads."""
    for _ in range(rounds):
        setup.append(launch_time(["setup", pt["alpha"], pt["beta"], pt["k"], str(pt["ell"])]))
        calib.extend(launch_time(["calib", str(threads)]) for _ in range(REFS_PER_ROUND))


class Run:
    def __init__(self, name, seed):
        self.name = name
        self.spec = WORKLOADS[name]
        self.kind = self.spec["kind"]
        self.seed = seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tasks = []
        self.not_traced = set()  # traced functions the program no longer has
        with open(DIGESTS) as handle:
            self.digests = json.load(handle)

    def pass_points(self, seed, index):
        return GENERATORS[self.kind](seed, index)

    def run_task(self, label, task, trace_path=None) -> tuple:
        key, args, check_input, jobs = task
        stdout_path = os.path.join(OUT, f"{self.name}.{label}.stdout")
        if self.kind == "sweep":
            points_path = os.path.join(OUT, f"{self.name}.{label}.points.json")
            with open(points_path, "w") as handle:
                json.dump(check_input, handle)
            args = args + [points_path]
        timeout = max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.started))
        res = run_child(args, stdout_path, timeout, trace_path)
        with open(stdout_path, "rb") as handle:
            data = handle.read()
        try:
            reason = CHECKERS[self.kind](check_input, res["code"], data.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        digest = hashlib.sha256(data).hexdigest()
        if reason is None and key in self.digests and self.digests[key] != digest:
            reason = "output digest differs from the stored default-seed digest"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append({"task": label, "key": key, "reason": reason, "stderr": res["stderr"]})
        rec = {"label": label, "key": key, "jobs": jobs, "bytes": len(data), "digest": digest, "ok": reason is None}
        rec.update({k: res[k] for k in ("wall_s", "rss_mb", "code")})
        self.tasks.append(rec)
        return rec, data

    def run_pass(self, index, traced=False) -> dict:
        pts = self.pass_points(self.seed, index)
        label = f"p{index}" + ("t" if traced else "")
        load_before = os.getloadavg()[0]
        recs, outputs = [], []
        for n, task in enumerate(make_tasks(self.spec, pts)):
            trace_path = None
            if traced:
                trace_path = os.path.join(OUT, f"{self.name}.{label}.{n}.trace.json")
                if os.path.exists(trace_path):  # left by an earlier run
                    os.remove(trace_path)
            rec, data = self.run_task(f"{label}.{n}", task, trace_path)
            rec["trace"] = trace_path
            recs.append(rec)
            outputs.append(data)
        return {
            "index": index,
            "traced": traced,
            "wall_s": sum(r["wall_s"] for r in recs),
            "load1_before": load_before,
            "load1_after": os.getloadavg()[0],
            "tasks": recs,
            "outputs": outputs,
        }

    def canary(self) -> bool:
        """Run the default seed's first task, whose output digest is stored,
        then check that the checker flags a corrupted copy of its output."""
        task = canary_task(self.spec)
        rec, data = self.run_task("canary", task)
        if not rec["ok"]:
            return False
        if task[0] not in self.digests:
            self.failures.append({"task": "canary", "reason": "no stored digest for the canary"})
            return False
        flagged = CHECKERS[self.kind](task[2], 0, check.corrupt(self.kind, data.decode())) is not None
        if not flagged:
            self.failures.append({"task": "canary", "reason": "negative control was not flagged"})
        return flagged


def layer_metrics(run, plain, traced) -> dict:
    stats: dict = {}
    columns = set()
    bracket_distinct = bracket_steps = 0
    busy = suite = pairing = 0.0
    for rec in traced["tasks"]:
        if not os.path.exists(rec["trace"]):  # the child died before writing it
            continue
        with open(rec["trace"]) as handle:
            tr = json.load(handle)
        for name, (calls, self_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        run.not_traced.update(tr["missing"])
        columns.update(tuple(c) for c in tr["columns"])
        bracket_distinct += tr["bracket_distinct"]
        bracket_steps += tr["bracket_steps"]
        busy += sum(s[3] - s[2] for s in tr["spans"] if s[1] == "verify.check")
        suite += rec["jobs"] * sum(s[3] - s[2] for s in tr["spans"] if s[1] == "verify.run_suite")
        pairing += sum(s[3] - s[2] for s in tr["spans"] if s[1] in PAIRING_SPANS)
    calls_col = stats.get("hyper.build_column", [0])[0]
    calls_br = stats.get("hyper.bracket_seq", [0])[0]
    derived = sum(
        points.collision_derived({"alpha": c[0], "beta": c[1], "k": c[2], "ell": c[3]}, c[4], c[5])
        for c in columns
    )
    values = {f"{name}.calls": stats.get(name, [0, 0.0])[0] for name in TRACED_COUNTS}
    values.update({f"{name}.self_s": stats.get(name, [0, 0.0])[1] for name in TRACED_SELF})
    for module in LAYER_MODULES:
        # run_suite's own time is waiting for its checks when they run on workers
        values[f"{module}.self_s"] = sum(
            v[1] for n, v in stats.items() if n.startswith(module + ".") and n != "verify.run_suite"
        )
    values.update(
        {
            "hyper.bracket_seq.steps": bracket_steps,
            "hyper.bracket_seq.distinct_ratio": bracket_distinct / calls_br if calls_br else 0.0,
            "hyper.build_column.distinct_ratio": len(columns) / calls_col if calls_col else 0.0,
            "hyper.orth_column_share": derived / len(columns) if columns else 0.0,
            "verify.run_suite.busy_ratio": busy / suite if suite else 0.0,
            "verify.pairing_share": pairing / sum(r["wall_s"] * r["jobs"] for r in traced["tasks"]),
            "cli.output_bytes": sum(r["bytes"] for r in traced["tasks"]) if run.kind != "sweep" else 0,
            "exact.coeff_bits_max": max(
                (check.coeff_bits_max(d.decode()) for d, r in zip(traced["outputs"], traced["tasks"]) if r["ok"]),
                default=0,
            ),
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }
    )
    return values


def _source_digest() -> str:
    src = os.path.join(ROOT, "src", "mvop")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):  # an exported checkout
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name, seed, seconds, trace) -> dict:
    run = Run(name, seed)
    start = time.perf_counter()
    first = run.pass_points(seed, 0)[0]
    threads = run.spec.get("jobs", 1)
    probe(first, threads, 1, [], [])  # warms the bytecode cache
    setup, calib = [], []
    canary_ok = run.canary()
    passes = []
    if trace:
        plain = run.run_pass(0)
        traced = run.run_pass(0, traced=True)
        passes = [plain, traced]
        identical = [r["digest"] for r in plain["tasks"]] == [r["digest"] for r in traced["tasks"]]
        if not identical:
            run.failures.append({"task": "trace", "reason": "traced outputs differ from untraced ones"})
        metrics = layer_metrics(run, plain, traced)
        correct = canary_ok and identical and run.failed == 0
        units = layer_metric_units()
    else:
        probe(first, threads, PROBES_FIRST, setup, calib)
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            passes.append(run.run_pass(len(passes)))
            probe(first, threads, PROBES_PER_PASS, setup, calib)
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and now + (now - began) > deadline:
                break
        scale = CALIB_REF_S / statistics.median(calib)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes) * scale,
            "setup_s": statistics.median(setup) * scale,
            "peak_rss_mb": max(t["rss_mb"] for t in run.tasks),
        }
        correct = canary_ok and run.failed == 0
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "setup_s": setup,
        "calib_s": calib,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        "canary_tasks": [t for t in run.tasks if t["label"] == "canary"],
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "not_traced": sorted(run.not_traced),
        "correct": correct,
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - start,
    }
    with open(os.path.join(OUT, f"record.{name}.seed{seed}.trace{trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    record["units"] = units
    return record


def summary_lines(rec) -> list:
    n_pass = sum(1 for p in rec["passes"] if not p["traced"])
    loads = " ".join(f"{p['load1_before']:.2f}->{p['load1_after']:.2f}" for p in rec["passes"])
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} load1 per pass: {loads}"]
    if not rec["trace"]:
        m = rec["metrics"]
        n_tasks = sum(len(p["tasks"]) for p in rec["passes"])
        raw_wall = statistics.median(p["wall_s"] for p in rec["passes"])
        raw_setup = statistics.median(rec["setup_s"])
        calib = statistics.median(rec["calib_s"])
        lines.append(f"#   reference   {calib:.4f} s   median of {len(rec['calib_s'])} launches; scale {CALIB_REF_S / calib:.4f}")
        lines.append(f"#   wall_s      {m['wall_s']:.4f} s   median of {n_pass} passes, {raw_wall:.4f} s unscaled")
        lines.append(f"#   setup_s     {m['setup_s']:.4f} s   median of {len(rec['setup_s'])} launches, {raw_setup:.4f} s unscaled")
        lines.append(f"#   peak_rss_mb {m['peak_rss_mb']:.1f} MB  max over {n_tasks + 1} task processes")
    else:
        for key, value in rec["metrics"].items():
            lines.append(f"#   {key} {value} {rec['units'][key]}")
    if rec["not_traced"]:
        lines.append(f"#   warning: not found, so not traced: {rec['not_traced']}")
    lines.append(f"#   ops_failed  {rec['failed']}/{rec['attempted']}")
    for failure in rec["failures"]:
        lines.append(f"#   FAILED {failure}")
    return lines


def write_digests() -> int:
    """Store output digests of the default seed: the canary and the first passes."""
    digests = {}
    for name in ("verify-suite", "polys-deep", "sweep-resonant"):
        run = Run(name, DEFAULT_SEED)
        run.digests = {}
        tasks = [canary_task(run.spec)]
        for index in range(DIGEST_PASSES):
            tasks += make_tasks(run.spec, run.pass_points(DEFAULT_SEED, index))
        for n, task in enumerate(tasks):
            if task[0] not in digests:
                rec, _ = run.run_task(f"digest.{n}", task)
                digests[task[0]] = rec["digest"]
        if run.failed:
            print(f"error: {name}: {run.failures}", file=sys.stderr)
            return 1
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mvop", "cli.py")):
        print(f"error: no mvop sources under {ROOT}/src; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(summary_lines(rec)), flush=True)
        records.append(rec)
    if len(records) == 1:
        rec = records[0]
        metrics = {k: {"value": v, "unit": rec["units"][k]} for k, v in rec["metrics"].items()}
    else:
        metrics = {
            f"{rec['workload']}.{k}": {"value": v, "unit": rec["units"][k]}
            for rec in records
            for k, v in rec["metrics"].items()
        }
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
