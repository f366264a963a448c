"""ybops benchmark: closed loop, one client, one thread, one workload per process.

Run from the root of a ybops checkout:

    python3 perfbench/run.py --workload verify-dims --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --trace 1      # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same tasks untraced for half the time, then the same rounds again
under the span recorder (``spans.py``), and prints the per-layer metrics.
Every task output is checked (see ``workloads.py``).  Each metric is printed
as ``metric <name> <value> <unit>``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# single-threaded numerics; set before anything imports numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNDIR = ROOT / ".perfbench_run"  # scratch space inside the checkout
WORKLOAD_NAMES = ("verify-dims", "campaign-cli", "search-restarts")
SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
CALIBRATE_EVERY_S = 0.05  # task time between two calibration-kernel samples
MAX_ERRORS_SHOWN = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "task_ms.p50": "ms",
    "task_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
FAIL_FRAC = "fail_frac"  # printed; carried by attempted/failed in the JSON
PER_LAYER = (
    "algebra.build.calls", "algebra.build.self_ms", "algebra.validate.self_ms",
    "colored.op.calls", "colored.op.self_ms",
    "onepar.op.calls", "onepar.op.self_ms",
    "tensorop.embed_leg.calls", "tensorop.embed_leg.self_ms",
    "tensorop.residual.calls", "tensorop.residual.self_ms",
    "tensorop.emit.self_ms",
    "frt.rtt_residual.self_ms", "frt.relations.self_ms",
    "frt.in_span.calls", "frt.in_span.self_ms",
    "frt.span_membership.self_ms", "frt.uv_symmetry_check.self_ms",
    "funceq.eval.calls", "funceq.eval.self_ms",
    "search.restarts", "search.iterations", "search.converged_frac",
    "search.self_ms", "compare.self_ms", "ybsystem.self_ms", "cli.self_ms",
    "trace.overhead_frac",
)


def layer_unit(name):
    if name.endswith(".self_ms"):
        return "ms/task"
    if name.endswith("_frac"):
        return "frac"
    return "count/task"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """Machine and library facts recorded with every result."""
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"nproc": os.cpu_count(), "cpu": cpu,
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    env.update({var: os.environ[var] for var in THREAD_VARS})
    return env


# --- measuring ------------------------------------------------------------------

def setup_sample(name, seed, workdir):
    """(raw, scaled) seconds one fresh interpreter needs to import ybops,
    build the workload and finish a warm-up task."""
    probe_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             probe_dir], cwd=ROOT, capture_output=True, text=True,
            timeout=120)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    raw, kernel = (float(x) for x in proc.stdout.split()[-2:])
    return raw, raw * speed.REFERENCE_MS / kernel


class Loop:
    """Runs whole rounds of a workload's tasks and keeps per-task results.

    The calibration kernel (``speed.py``) runs before the first task and
    after every segment of about ``CALIBRATE_EVERY_S`` of task time (and at
    the end of each round); a segment's task times are scaled by the
    reference speed over the mean of the two kernel times around it.
    """

    def __init__(self, workload, recorder=None):
        self.workload = workload
        self.recorder = recorder
        self.latencies = []  # raw seconds
        self.scaled = []  # seconds at the reference speed
        self.kernel_ms = []
        self.failed = 0
        self.rounds = 0
        self.errors = []

    def run(self, seconds=None, rounds=None, between=None):
        """Run whole rounds until ``rounds`` or ``seconds`` of loop time.

        ``between(elapsed)`` is called after each round; its own time is
        not loop time.
        """
        start = perf_counter()
        before = speed.kernel_ms()
        for tasks in self.workload.rounds():
            segment = []
            for i, task in enumerate(tasks):
                segment.append(self._one(task))
                if sum(segment) >= CALIBRATE_EVERY_S or i == len(tasks) - 1:
                    after = speed.kernel_ms()
                    self.kernel_ms.append((before + after) / 2)
                    self.scaled += [x * speed.REFERENCE_MS /
                                    self.kernel_ms[-1] for x in segment]
                    segment, before = [], after
            self.rounds += 1
            if rounds is not None and self.rounds >= rounds:
                break
            elapsed = perf_counter() - start
            if seconds is not None and elapsed >= seconds:
                break
            if between is not None:
                paused = perf_counter()
                between(elapsed)
                start += perf_counter() - paused
                before = speed.kernel_ms()
        return self

    def _one(self, task):
        task_id = len(self.latencies)
        t0 = perf_counter()
        try:
            if self.recorder is None:
                out = task.run()
            else:
                with self.recorder.task_span(task_id):
                    out = task.run()
            elapsed = perf_counter() - t0
            ok = task.check(out)
            if not ok:
                self.errors.append(f"{task.label}: wrong output {out!r}")
        except Exception as exc:  # a raising task is a failed task
            elapsed = perf_counter() - t0
            ok = False
            self.errors.append(f"{task.label}: {type(exc).__name__}: {exc}")
        self.latencies.append(elapsed)
        self.failed += not ok
        return elapsed


def prepared(workload_cls, seed, workdir):
    workload = workload_cls(seed, workdir)
    workload.setup()
    workload.prepare_checks()
    workload.warm_up()
    return workload


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def measure(workload_cls, seed, seconds, workdir):
    """End-to-end metrics, tracing off.  Returns (metrics, notes, loops).

    The set-up samples are spread over the run, between rounds, so that a
    burst of load on a shared machine skews at most a few of them.
    """
    setups = []

    def sample_setup(elapsed):
        if len(setups) < SETUP_SAMPLES and \
                elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_sample(workload_cls.name, seed, workdir))

    workload = prepared(workload_cls, seed, workdir)
    try:
        loop = Loop(workload).run(seconds=seconds, between=sample_setup)
    finally:
        workload.close()
    while len(setups) < SETUP_SAMPLES:
        sample_setup(seconds)
    lat, raw = loop.scaled, loop.latencies
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "tasks_per_s": len(lat) / sum(lat),
        "task_ms.p50": statistics.median(lat) * 1e3,
        "task_ms.p90": _p90(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        FAIL_FRAC: loop.failed / len(lat),
    }
    beyond = sum(x * 1e3 > metrics["task_ms.p90"] for x in lat)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   f"{statistics.median(r for r, _ in setups):.4f} s",
        "tasks_per_s": f"tasks / task time over {loop.rounds} whole rounds; "
                       f"raw {len(raw) / sum(raw):.3f}",
        "task_ms.p50": f"n={len(lat)} tasks; raw "
                       f"{statistics.median(raw) * 1e3:.3f} ms",
        "task_ms.p90": f"n={len(lat)} tasks, {beyond} beyond; raw "
                       f"{_p90(raw) * 1e3:.3f} ms",
        FAIL_FRAC: f"{loop.failed} of {len(lat)} tasks",
        "speed": f"calibration kernel median "
                 f"{statistics.median(loop.kernel_ms):.3f} ms (min "
                 f"{min(loop.kernel_ms):.3f}, max {max(loop.kernel_ms):.3f}) "
                 f"against {speed.REFERENCE_MS} ms reference; times above "
                 "are at reference speed",
    }
    return metrics, notes, [loop]


def measure_traced(workload_cls, seed, seconds, workdir):
    """Per-layer metrics from a traced replay of an untraced run's rounds.

    Self times are raw; ``trace.overhead_frac`` compares speed-scaled task
    time of the two passes.
    """
    from spans import Recorder

    workload = prepared(workload_cls, seed, workdir)
    try:
        plain = Loop(workload).run(seconds=seconds / 2)
        recorder = Recorder(extra=workload.spans)
        with recorder.installed():
            traced = Loop(workload, recorder).run(rounds=plain.rounds)
    finally:
        workload.close()
    tasks = len(traced.latencies)
    summary = recorder.summary()
    metrics = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = summary[span][0] / tasks
        elif stat == "self_ms":
            metrics[name] = summary[span][1] * 1e3 / tasks
    metrics["search.restarts"] = recorder.restarts / tasks
    metrics["search.iterations"] = recorder.iterations / tasks
    metrics["search.converged_frac"] = (
        recorder.classified / recorder.restarts if recorder.restarts else 0.0)
    metrics["trace.overhead_frac"] = sum(traced.scaled) / sum(plain.scaled) - 1
    notes = {
        "search.converged_frac": f"{recorder.classified} classified of "
                                 f"{recorder.restarts} restarts",
        "trace.overhead_frac": f"traced {sum(traced.scaled):.3f} s vs "
                               f"untraced {sum(plain.scaled):.3f} s at "
                               f"reference speed, {plain.rounds} rounds each",
    }
    spans = RUNDIR / f"spans-{workload_cls.name}-seed{seed}.tsv.gz"
    recorder.write(spans)
    notes["spans"] = f"{len(recorder.start)} spans written to {spans.name}"
    return metrics, notes, [plain, traced]


# --- reporting ------------------------------------------------------------------

def run_one(args):
    sys.path[:0] = [str(SRC), str(HERE)]
    import ybops
    if SRC not in Path(ybops.__file__).resolve().parents:
        print(f"error: imported ybops from {ybops.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    RUNDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNDIR)
    try:
        if args.trace:
            metrics, notes, loops = measure_traced(workload_cls, args.seed,
                                                   args.seconds, workdir)
            units = {name: layer_unit(name) for name in PER_LAYER}
        else:
            metrics, notes, loops = measure(workload_cls, args.seed,
                                            args.seconds, workdir)
            units = dict(END_TO_END, **{FAIL_FRAC: "frac"})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [err for loop in loops for err in loop.errors]
    for err in errors[:MAX_ERRORS_SHOWN]:
        print(f"failed task: {err}", file=sys.stderr)
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                            for k, v in environment().items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {sum(loop.rounds for loop in loops)} tasks {attempted} "
          f"mix [{workload_cls.MIX}] closed-loop clients 1")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {metrics[name]!r} {unit}{note}")
    for extra in ("speed", "spans"):
        if extra in notes:
            print(notes[extra])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name != FAIL_FRAC},
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process; a combined result last."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ybops" / "__init__.py").is_file():
        print(f"error: no ybops package under {SRC}; run the benchmark from "
              "the root of a ybops checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
