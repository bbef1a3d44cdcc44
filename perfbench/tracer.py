"""Layer tracing for one benchmark child process, installed from outside mvop.

install() wraps the functions in TARGETS in every mvop module namespace that
holds them (cli, for instance, imports build_column, run_suite and gram_block
by name), so calls made through any of those names are seen.  Each wrapped
call keeps a frame on a per-thread stack: its duration minus the time of the
wrapped calls beneath it is its self time.  Every function gets a call count
and self time; the ones marked as spans also record (id, name, start, end,
parent id, thread id).  Hot kernels are counted only, so the trace stays
small.  Everything stays in memory until dump() writes it out.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from fractions import Fraction

# (module, attribute, metric name, record spans)
TARGETS = (
    ("mvop.exact", "MomentFunctional.ratio", "exact.moment_ratio", False),
    ("mvop.linalg", "solve_matrix", "linalg.solve_matrix", False),
    ("mvop.linalg", "matmul", "linalg.matmul", False),
    ("mvop.linalg", "matvec", "linalg.matvec", False),
    ("mvop.linalg", "nullspace", "linalg.nullspace", True),
    ("mvop.matpoly", "MatPoly.__mul__", "matpoly.MatPoly.mul", False),
    ("mvop.matpoly", "DiffOp.apply", "matpoly.DiffOp.apply", False),
    ("mvop.matpoly", "DiffOp.compose", "matpoly.DiffOp.compose", True),
    ("mvop.model", "weight_core", "model.weight_core", True),
    ("mvop.model", "hyper_operator", "model.hyper_operator", True),
    ("mvop.model", "companion_operator", "model.companion_operator", True),
    ("mvop.hyper", "bracket_seq", "hyper.bracket_seq", True),
    ("mvop.hyper", "build_column", "hyper.build_column", True),
    ("mvop.hyper", "find_collisions", "hyper.find_collisions", False),
    ("mvop.hyper", "poly_solution_space", "hyper.poly_solution_space", True),
    ("mvop.verify", "vec_inner_product", "verify.vec_inner_product", False),
    ("mvop.verify", "gram_block", "verify.gram_block", True),
    ("mvop.verify", "check_symmetry_reduced", "verify.check_symmetry_reduced", True),
    ("mvop.verify", "check_boundary", "verify.check_boundary", True),
    ("mvop.verify", "check_bilinear_symmetry", "verify.check_bilinear_symmetry", True),
    ("mvop.verify", "check_eigen", "verify.check_eigen", True),
    ("mvop.verify", "check_commute", "verify.check_commute", True),
    ("mvop.verify", "decompose_in_basis", "verify.decompose_in_basis", True),
    # one call per named check of run_suite, on whichever thread runs it
    ("mvop.verify", "_result", "verify.check", True),
    ("mvop.verify", "run_suite", "verify.run_suite", True),
    ("mvop.cli", "main", "cli.main", True),
)


def _params_key(p):
    return (str(p.alpha), str(p.beta), str(p.k), p.ell)


class _Recorder:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.threads = []
        self.ids = itertools.count(1)
        self.columns = set()  # distinct (params, w, j) passed to build_column
        self.brackets = set()  # distinct (params, lam, m) passed to bracket_seq
        self.bracket_steps = 0
        self.missing = []

    def state(self):
        st = getattr(self.local, "st", None)
        if st is None:
            st = self.local.st = {"tid": threading.get_ident(), "stack": [], "stats": {}, "spans": []}
            with self.lock:
                self.threads.append(st)
        return st

    def note(self, name, args):
        with self.lock:
            if name == "hyper.build_column":
                self.columns.add(_params_key(args[0]) + (args[1], args[2]))
            elif name == "hyper.bracket_seq":
                self.brackets.add((_params_key(args[0]), Fraction(args[1]), args[2]))
                self.bracket_steps += args[2]

    def wrap(self, fn, name, spans):
        clock = time.perf_counter
        noted = name in ("hyper.build_column", "hyper.bracket_seq")

        def wrapper(*args, **kwargs):
            st = self.state()
            stack = st["stack"]
            frame = [0.0, next(self.ids) if spans else None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stat = st["stats"].get(name)
                if stat is None:
                    stat = st["stats"][name] = [0, 0.0]
                stat[0] += 1
                stat[1] += dur - frame[0]
                if spans:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    st["spans"].append((frame[1], name, start, end, parent, st["tid"]))
                if noted:
                    self.note(name, args)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        for modname in dict.fromkeys(t[0] for t in TARGETS):
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items()) if n == "mvop" or n.startswith("mvop.")]
        for modname, attr, name, spans in TARGETS:
            owner = sys.modules.get(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, spans)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path):
        stats: dict = {}
        spans = []
        with self.lock:
            threads = list(self.threads)
        for st in threads:
            for name, (calls, self_s) in st["stats"].items():
                acc = stats.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            spans.extend(st["spans"])
        spans.sort(key=lambda s: s[2])
        payload = {
            "stats": stats,
            "spans": spans,
            "columns": sorted(self.columns),
            "bracket_distinct": len(self.brackets),
            "bracket_steps": self.bracket_steps,
            "missing": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


_RECORDER = _Recorder()
install = _RECORDER.install
dump = _RECORDER.dump
