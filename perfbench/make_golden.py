"""Record the reference outputs that the CLI workloads are checked against.

Builds the fixed task pools of ``campaign-cli`` and ``search-restarts``,
runs every entry once through ``ybops.cli.main`` and writes
``perfbench/golden.json``: the SHA-256 of each campaign task report and the
classification of each search restart.  The benchmark's seed only chooses
and orders entries of these pools, so every seed is checked against the same
references.  Regenerate only from a commit whose outputs are known good:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ybops import cli  # noqa: E402

COLORED = ("thm1", "thm2", "remark2", "coalgebra_thm1")
ONEPAR = ("prop1", "prop1_coalgebra", "prop2", "remark_x")
EXPONENTIAL = ("thm2", "remark2")
SEARCH_MODES = (("linear", "colored", "xz"), ("exponential", "colored", "xz"),
                ("linear", "onepar", "xz"), ("linear", "onepar", "z"),
                ("linear", "onepar", "x"))
SEARCH_SEEDS = range(24)


def _s(x):
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


def _rat(rng, num=5, den=3, nonzero=True):
    while True:
        x = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if x or not nonzero:
            return x


def _family_args(rng, family):
    args = {"family": family}
    for name in ("p", "q", "s"):
        args[name] = _s(_rat(rng))
    return args


def campaign_pool():
    rng = random.Random(20060701)
    pool = []
    frt = 0
    while frt < 32:
        p, q, u, v = (_rat(rng) for _ in range(4))
        # generic points only: p != q, u != v and off the singular locus
        if p == q or u == v or p * u == q * v or q * u == p * v:
            continue
        args = {"p": _s(p), "q": _s(q), "u": _s(u), "v": _s(v),
                "sigma": _s(_rat(rng, 3, 2, nonzero=False))}
        pool.append(("frt", {"command": "frt", "args": args}))
        frt += 1
    for i in range(32):
        args = _family_args(rng, (COLORED + ONEPAR)[i % 8])
        args.update(sigma=_s(_rat(rng, 3, 2, nonzero=False)), samples=3,
                    seed=rng.randint(0, 10**6))
        pool.append(("verify_quad", {"command": "verify", "args": args}))
    for i in range(16):
        args = _family_args(rng, (COLORED + ONEPAR)[i % 8])
        args.update(eps=_s(_rat(rng, 3, 2, nonzero=False)),
                    rho=_s(_rat(rng, 3, 2, nonzero=False)), samples=1,
                    seed=rng.randint(0, 10**6))
        pool.append(("verify_cubic", {"command": "verify", "args": args}))
    for i in range(24):
        family = (COLORED + ONEPAR)[i % 8]
        args = _family_args(rng, family)
        args["format"] = ("json", "csv", "latex")[i % 3]
        integer = family in EXPONENTIAL
        for name in ("u", "v", "x"):
            args[name] = str(rng.randint(-3, 3)) if integer else _s(_rat(rng))
        if i % 2:
            args.update(eps=_s(_rat(rng, 3, 2, nonzero=False)),
                        rho=_s(_rat(rng, 3, 2, nonzero=False)))
        else:
            args["sigma"] = _s(_rat(rng, 3, 2, nonzero=False))
        pool.append(("matrix", {"command": "matrix", "args": args}))
    for _ in range(8):
        args = {"lam": _s(_rat(rng)), "mu": _s(_rat(rng)),
                "sigma": _s(_rat(rng, 3, 2, nonzero=False))}
        pool.append(("ybsystem", {"command": "ybsystem", "args": args}))
    for _ in range(8):
        args = {"q": _s(_rat(rng)), "x": _s(_rat(rng)), "y": _s(_rat(rng))}
        pool.append(("compare", {"command": "compare", "args": args}))
    return pool


def main():
    out = {"campaign": [], "search": [], "search_excluded": []}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for kind, task in campaign_pool():
            run_task = json.loads(json.dumps(task))
            if task["command"] == "matrix":
                run_task["args"]["out"] = str(tmp / "matrix.out")
            cfg = tmp / "config.json"
            cfg.write_text(json.dumps({"seed": 0, "tasks": [run_task]}),
                           encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["campaign", str(cfg), "--outdir", str(tmp)])
            if rc != 0:
                raise SystemExit(f"campaign task failed (exit {rc}): {task}")
            report = tmp / f"task-000-{task['command']}.json"
            out["campaign"].append({
                "kind": kind, "task": task,
                "sha256": hashlib.sha256(report.read_bytes()).hexdigest()})
        for shape, system, phi in SEARCH_MODES:
            for seed in SEARCH_SEEDS:
                argv = ["--seed", str(seed), "search", "--shape", shape,
                        "--system", system, "--phi", phi, "--restarts", "1",
                        "--out", str(tmp / "search.json")]
                entry = {"shape": shape, "system": system, "phi": phi,
                         "seed": seed}
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(argv)
                except ArithmeticError as exc:
                    # a defect of the search, kept visible here rather than
                    # failing every benchmark run that drew this seed
                    out["search_excluded"].append(
                        dict(entry, error=f"{type(exc).__name__}: {exc}"))
                    continue
                if rc != 0:
                    raise SystemExit(f"search failed (exit {rc}): {argv}")
                payload = json.loads((tmp / "search.json").read_text())
                entry["classification"] = payload["results"][0][
                    "classification"]
                out["search"].append(entry)
    (HERE / "golden.json").write_text(json.dumps(out, indent=1) + "\n",
                                      encoding="utf-8")
    print(f"{len(out['campaign'])} campaign reports, {len(out['search'])} "
          f"search restarts, {len(out['search_excluded'])} excluded")


if __name__ == "__main__":
    main()
