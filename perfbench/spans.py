"""In-memory span recorder for the traced benchmark run.

The recorder wraps public ybops functions by replacing module (or class)
attributes for the duration of a ``with recorder.installed():`` block and
restores them afterwards.  Names re-bound by importers, such as
``ybops.cli.colored_qybe_residual`` or ``ybops.search.eval_colored_system``,
are found by identity and wrapped too, so every call path is seen.  No file
under ``src/`` is edited.

Each span records its name, start, end, parent span and task id in flat
arrays; nothing is written while the run is measured.  Self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# Span name -> the functions it groups, as "module:attribute" or
# "module:Class.method".  One name per group, as the per-layer metrics use.
SPANS = {
    "algebra.build": ["ybops.algebra:poly_quotient",
                      "ybops.algebra:quadratic_algebra",
                      "ybops.algebra:cubic_algebra"],
    "algebra.validate": ["ybops.algebra:validate",
                         "ybops.algebra:dual_coalgebra"],
    "colored.op": ["ybops.colored:ColoredFamily.op", "ybops.colored:thm1_op",
                   "ybops.colored:thm2_op", "ybops.colored:remark2_op",
                   "ybops.colored:coalgebra_colored_op"],
    "onepar.op": ["ybops.onepar:OneParFamily.op", "ybops.onepar:prop1_op",
                  "ybops.onepar:prop1_coalgebra_op", "ybops.onepar:prop2_op",
                  "ybops.onepar:remark_x_op"],
    "tensorop.embed_leg": ["ybops.tensorop:embed_leg"],
    "tensorop.residual": ["ybops.tensorop:colored_qybe_residual",
                          "ybops.tensorop:onepar_qybe_residual",
                          "ybops.tensorop:yb_commutator",
                          "ybops.tensorop:braid_residual"],
    "tensorop.emit": ["ybops.tensorop:op_to_json", "ybops.tensorop:op_to_csv",
                      "ybops.tensorop:op_to_latex"],
    "frt.rtt_residual": ["ybops.frt:rtt_residual"],
    "frt.relations": ["ybops.frt:claimed_relations",
                      "ybops.frt:pq_limit_relations",
                      "ybops.frt:exchange_closure"],
    "frt.in_span": ["ybops.frt:in_span"],
    "frt.span_membership": ["ybops.frt:span_membership"],
    "frt.uv_symmetry_check": ["ybops.frt:uv_symmetry_check"],
    "funceq.eval": ["ybops.funceq:eval_colored_system",
                    "ybops.funceq:eval_onepar_system"],
    "search": ["ybops.search:search"],
    "compare": ["ybops.compare:okado_rhat", "ybops.compare:twisted_prop1_rhat",
                "ybops.compare:compare_q1", "ybops.compare:BraidFamily.__call__"],
    "ybsystem": ["ybops.ybsystem:thm3_system", "ybops.ybsystem:wxz_residuals"],
    "cli": ["ybops.cli:main"],
}
TASK = "task"  # root span of one benchmark task


class Recorder:
    """Collects spans in flat arrays while its wrappers are installed."""

    def __init__(self, extra=()):
        # extra: (span name, owner object, attribute) triples from the
        # benchmark's own files, e.g. the broken test family's ``op``.
        self.extra = tuple(extra)
        self.names = [TASK] + list(SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self._stack = []
        self._task_id = -1
        self.restarts = 0
        self.iterations = 0
        self.classified = 0

    # -- recording -------------------------------------------------------
    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self._task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def task_span(self, task_id):
        self._task_id = task_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        name_id = self._ids[name]
        counts_search = name == "search"
        stack, names, parents, tasks = (self._stack, self.name, self.parent,
                                        self.task)
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # _open/_close inlined: this runs for every wrapped call
            if stack and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)  # one span per group, outermost
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self._task_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counts_search:
                self.restarts += len(out)
                self.iterations += sum(r.iterations for r in out)
                self.classified += sum(r.classification is not None
                                       for r in out)
            return out
        return wrapper

    # -- installing ------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every listed function and each importer's re-binding."""
        saved = []  # (owner, attribute, original)
        try:
            for name, targets in SPANS.items():
                for target in targets:
                    mod_name, _, qual = target.partition(":")
                    owner = importlib.import_module(mod_name)
                    *path, attr = qual.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(name, original)
                    for o, a in [(owner, attr)] + _rebindings(original,
                                                              owner):
                        saved.append((o, a, o.__dict__[a]))
                        setattr(o, a, wrapper)
            for name, owner, attr in self.extra:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------
    def summary(self):
        """Per span name: (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {nm: (calls[k], self_s[k]) for k, nm in enumerate(self.names)}

    def write(self, path):
        """Write every span, gzipped, as tab-separated name start end parent
        task; a parent is a line index (-1 for a task's root span)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\ttask\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                         f"{self.task[i]}\n")


def _rebindings(original, owner):
    """(module, attribute) pairs other than ``owner`` bound to ``original``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not (mod_name == "ybops"
                                or mod_name.startswith("ybops.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                out.append((mod, attr))
    return out
