"""Self-check of the benchmark itself, at a tiny size (about a minute):

    python3 -m pytest -q perfbench/selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = {line.split()[1]: line.split()[3]
               for line in lines if line.startswith("metric ")}
    assert printed == (declared if trace else dict(declared, fail_frac="frac"))
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_zero_residual_kernel_raises_fail_frac(workload, monkeypatch,
                                               tmp_path):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads
    from ybops import tensorop

    monkeypatch.setattr(tensorop, "colored_qybe_residual",
                        lambda *args, **kwargs: 0)
    bench = run.prepared(workloads.WORKLOADS[workload], 3, tmp_path)
    try:
        loop = run.Loop(bench).run(rounds=1)
    finally:
        bench.close()
    assert loop.failed / len(loop.latencies) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
