"""The benchmark workloads: seeded inputs, the task mix and the correctness gate.

Each workload is a closed loop with one client.  Its tasks come in rounds of
a fixed mix; the seed chooses every input and the order inside a round.  A
task is ``run()`` (the timed call into ybops) plus ``check(output)``, the
gate, which runs outside the timed region.  Every call into ybops goes
through a module attribute at call time, so the tracer's wrappers and a
test's monkeypatch both take effect.

``src`` must be on ``sys.path`` before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from fractions import Fraction
from pathlib import Path

from ybops import algebra, cli, colored, onepar, tensorop

from oracle import dense_colored_residual

GOLDEN = Path(__file__).resolve().parent / "golden.json"


class Task:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _rat(rng, num=9, den=5, nonzero=False):
    while True:
        x = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if x or not nonzero:
            return x


def _is_exact_zero(out):
    return isinstance(out, (int, Fraction)) and out == 0


def _deal(rng, pool):
    """Yield pool entries in shuffled passes, so each is used equally often."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


class BrokenFamily:
    """``ansatz_op`` behind ``op(u, v)`` with a triple that solves nothing.

    alpha = u + 2v, beta = uv - 1, gamma = 3 is not a solution of the
    coloured functional system, so the exact QYBE residual is non-zero.
    """

    def __init__(self, carrier):
        self.carrier = carrier

    def op(self, u, v):
        return colored.ansatz_op(self.carrier, u + 2 * v, u * v - 1,
                                 Fraction(3))


class Workload:
    name = ""
    # (span name, owner, attribute) of benchmark-side code the tracer wraps
    spans = (("colored.op", BrokenFamily, "op"),)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def _rng(self, purpose):
        return random.Random(f"{self.name}/{self.seed}/{purpose}")

    def setup(self):
        """Build carriers and families; counted in ``setup_s``."""

    def prepare_checks(self):
        """Draw broken operators and their oracle residuals (not timed)."""
        rng = self._rng("broken")
        self.broken = []
        for carrier in self.broken_carriers():
            fam = BrokenFamily(carrier)
            while True:
                uvw = (_rat(rng), _rat(rng), _rat(rng))
                want = dense_colored_residual(fam, *uvw)
                if want != 0:
                    break
            self.broken.append((fam, uvw, want))

    def broken_carriers(self):
        return ()

    def broken_task(self, i):
        fam, uvw, want = self.broken[i]
        return Task(f"broken-n{fam.carrier.dim}",
                    lambda: tensorop.colored_qybe_residual(fam, *uvw),
                    lambda out: out == want)

    def warm_up(self):
        task = self.warm_up_task()
        if not task.check(task.run()):
            raise RuntimeError(f"{self.name}: warm-up task failed")

    def warm_up_task(self):
        raise NotImplementedError

    def rounds(self):
        """Yield the task lists of successive rounds; same seed, same tasks."""
        raise NotImplementedError

    def close(self):
        pass


# --- verify-dims ---------------------------------------------------------------

class VerifyDims(Workload):
    """Library-API QYBE residuals of all eight families at n = 2..5.

    Per round: 24 tasks at n=2, 3 at n=3, 4 at n=4, 1 at n=5, and one broken
    operator at n=2 and at n=3.  By count the mix sits at n=2 (74% of
    tasks), so the median task is a ~2 ms check where operator build counts;
    by time it sits at n>=4 (15% of tasks, ~90% of the time), where the
    triple product rules and the 90th percentile falls inside the n=4 group
    (82-94% of tasks).
    """

    name = "verify-dims"
    PER_ROUND = {2: 24, 3: 3, 4: 4, 5: 1}
    # Several carriers per n, each with all eight families, so that one run
    # averages over many inputs instead of depending on one draw.  Small
    # coefficients keep the cost of a check set by n, not by the draw.
    CARRIERS_PER_N = 4

    def setup(self):
        rng = self._rng("carriers")
        self.algebras = {}
        self.families = {}
        for n in self.PER_ROUND:
            self.algebras[n] = []
            self.families[n] = []
            for _ in range(self.CARRIERS_PER_N):
                coeffs = [_rat(rng, 2, 2) for _ in range(n)] + [1]
                A = algebra.poly_quotient(coeffs)
                C = algebra.dual_coalgebra(A)
                self.algebras[n].append(A)
                self.families[n] += self._families(rng, A, C)

    @staticmethod
    def _families(rng, A, C):
        def nz():
            return _rat(rng, 3, 2, nonzero=True)
        Col, One = colored.ColoredFamily, onepar.OneParFamily
        return [
            (Col("thm1", A, {"p": nz(), "q": nz()}), "rational"),
            (Col("thm2", A, {"p": nz(), "q": nz(), "s": nz()}), "integer"),
            (Col("remark2", A, {"p": nz(), "q": nz(), "s": nz()}), "integer"),
            (Col("coalgebra_thm1", C, {"p": nz(), "q": nz()}), "rational"),
            (One("prop1", A, {"q": nz()}), "onepar"),
            (One("prop1_coalgebra", C, {"q": nz()}), "onepar"),
            (One("prop2", A), "onepar"),
            (One("remark_x", A), "onepar"),
        ]

    def broken_carriers(self):
        return self.algebras[2][:2] + self.algebras[3][:2]

    @staticmethod
    def _task(n, fam, colours, rng):
        if colours == "onepar":
            x, z = _rat(rng), _rat(rng)
            run = lambda: tensorop.onepar_qybe_residual(fam, x, z)
        else:
            if colours == "integer":
                u, v, w = (Fraction(rng.randint(-3, 3)) for _ in range(3))
            else:
                u, v, w = _rat(rng), _rat(rng), _rat(rng)
            run = lambda: tensorop.colored_qybe_residual(fam, u, v, w)
        return Task(f"n{n}", run, _is_exact_zero)

    def warm_up_task(self):
        fam, colours = self.families[2][0]
        return self._task(2, fam, colours, self._rng("warm-up"))

    def rounds(self):
        rng = self._rng("rounds")
        decks = {n: _deal(rng, fams) for n, fams in self.families.items()}
        r = 0
        while True:
            tasks = [self._task(n, *next(decks[n]), rng)
                     for n, k in self.PER_ROUND.items() for _ in range(k)]
            tasks.append(self.broken_task(r % 2))       # n = 2
            tasks.append(self.broken_task(2 + r % 2))   # n = 3
            rng.shuffle(tasks)
            yield tasks
            r += 1

    MIX = ("n=2:24 n=3:3 n=4:4 n=5:1 genuine (4 carriers x 8 families "
           "per n, dealt evenly), broken n=2:1 n=3:1")


# --- CLI workloads -------------------------------------------------------------

class _CliWorkload(Workload):
    def setup(self):
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.sink = open(os.devnull, "w", encoding="utf-8")
        self.outdir = self.workdir / "reports"
        self.outdir.mkdir(parents=True, exist_ok=True)

    def _main(self, argv):
        with contextlib.redirect_stdout(self.sink):
            return cli.main(argv)

    def close(self):
        if getattr(self, "sink", None) is not None:
            self.sink.close()


class CampaignCli(_CliWorkload):
    """``ybops.cli.main`` on one-task campaign configs, reports to a temp dir.

    Per round: 3 ``frt`` tasks (~0.2 s each: they set tasks_per_s and the
    90th percentile), 4 quadratic ``verify`` and 2 ``ybsystem`` tasks
    (~6 ms: the median falls inside this group), 3 ``matrix`` emissions,
    1 ``compare``, 1 cubic ``verify`` and 1 broken operator at n=2.
    Every report must be byte-identical to the recorded one.
    """

    name = "campaign-cli"
    PER_ROUND = {"frt": 3, "verify_quad": 4, "ybsystem": 2, "matrix": 3,
                 "compare": 1, "verify_cubic": 1}

    def setup(self):
        super().setup()
        cfgdir = self.workdir / "configs"
        cfgdir.mkdir(parents=True, exist_ok=True)
        self.pool = {kind: [] for kind in self.PER_ROUND}
        for i, entry in enumerate(self.golden["campaign"]):
            task = json.loads(json.dumps(entry["task"]))
            if task["command"] == "matrix":
                task["args"]["out"] = str(self.workdir / "matrix.out")
            path = cfgdir / f"{i:03d}.json"
            path.write_text(json.dumps({"seed": 0, "tasks": [task]}),
                            encoding="utf-8")
            self.pool[entry["kind"]].append(
                (str(path), task["command"], entry["sha256"]))
        self.algebra = algebra.quadratic_algebra(
            _rat(self._rng("carrier"), 5, 3))

    def broken_carriers(self):
        return (self.algebra, self.algebra)

    def _task(self, kind, entry):
        path, command, digest = entry
        argv = ["campaign", path, "--outdir", str(self.outdir)]
        report = self.outdir / f"task-000-{command}.json"

        def check(rc):
            return rc == 0 and hashlib.sha256(
                report.read_bytes()).hexdigest() == digest
        return Task(kind, lambda: self._main(argv), check)

    def warm_up_task(self):
        return self._task("verify_quad", self.pool["verify_quad"][0])

    def rounds(self):
        rng = self._rng("rounds")
        decks = {kind: _deal(rng, self.pool[kind]) for kind in self.PER_ROUND}
        r = 0
        while True:
            tasks = [self._task(kind, next(decks[kind]))
                     for kind, k in self.PER_ROUND.items() for _ in range(k)]
            tasks.append(self.broken_task(r % 2))
            rng.shuffle(tasks)
            yield tasks
            r += 1

    MIX = ("frt:3 verify_quad:4 ybsystem:2 matrix:3 compare:1 "
           "verify_cubic:1 broken n=2:1")


class SearchRestarts(_CliWorkload):
    """``ybops search --restarts 1`` through the CLI over five modes.

    Per round: two single-restart searches for each of the linear coloured,
    exponential coloured and one-parameter (phi = xz, z, x) shapes, and one
    broken operator at n=2.  Each restart's classification must match the
    recorded one.
    """

    name = "search-restarts"
    PER_MODE = 2

    def setup(self):
        super().setup()
        self.pool = {}
        for entry in self.golden["search"]:
            mode = (entry["shape"], entry["system"], entry["phi"])
            self.pool.setdefault(mode, []).append(
                (entry["seed"], entry["classification"]))
        self.algebra = algebra.quadratic_algebra(
            _rat(self._rng("carrier"), 5, 3))
        self.out = self.workdir / "search.json"

    def broken_carriers(self):
        return (self.algebra, self.algebra)

    def _task(self, mode, entry):
        shape, system, phi = mode
        seed, want = entry
        argv = ["--seed", str(seed), "search", "--shape", shape,
                "--system", system, "--phi", phi, "--restarts", "1",
                "--out", str(self.out)]

        def check(rc):
            if rc != 0:
                return False
            results = json.loads(self.out.read_text(encoding="utf-8"))
            return [r["classification"] for r in results["results"]] == [want]
        return Task("/".join(mode), lambda: self._main(argv), check)

    def warm_up_task(self):
        mode = next(iter(self.pool))
        return self._task(mode, self.pool[mode][0])

    def rounds(self):
        rng = self._rng("rounds")
        decks = {mode: _deal(rng, entries)
                 for mode, entries in self.pool.items()}
        r = 0
        while True:
            tasks = [self._task(mode, next(deck))
                     for mode, deck in decks.items()
                     for _ in range(self.PER_MODE)]
            tasks.append(self.broken_task(r % 2))
            rng.shuffle(tasks)
            yield tasks
            r += 1

    MIX = ("search restarts=1: 2 each of linear/colored, "
           "exponential/colored, linear/onepar phi=xz,z,x; broken n=2:1")


WORKLOADS = {w.name: w for w in (VerifyDims, CampaignCli, SearchRestarts)}
