"""CLI surface: subcommands, exit codes, campaign runner."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_reference import parse_task
from conftest import SEARCH_MODES
from ybops import cli, compare, frt, search, tensorop
from ybops.cli import main

# The dense views of the kernel that stay in tensorop, and the braid-family
# dispatcher that stays in compare, never called by a subcommand; the dense
# products the tests check the views against live in
# tests/dense_reference.py, which no ybops module imports.
DENSE_HELPERS = ((tensorop, "yb_commutator"), (tensorop, "embed_leg"),
                 (compare, "BraidFamily"))


class TestVerify:
    @pytest.mark.parametrize("family,extra", [
        ("thm1", ["--p", "1", "--q", "3", "--sigma", "1"]),
        ("thm2", ["--p", "2", "--q", "3", "--s", "5", "--sigma", "0"]),
        ("prop1", ["--q", "3", "--sigma", "1"]),
        ("prop2", []),
        ("remark_x", []),
        ("coalgebra_thm1", ["--p", "1", "--q", "2"]),
        ("prop1_coalgebra", ["--q", "2"]),
    ])
    def test_families_pass(self, family, extra):
        assert main(["verify", "--family", family, "--samples", "4"]
                    + extra) == 0

    def test_cubic_carrier(self):
        assert main(["verify", "--family", "thm1", "--eps", "2", "--rho", "5",
                     "--samples", "3"]) == 0

    def test_unknown_family_usage_error(self):
        assert main(["verify", "--family", "bogus"]) == 2

    def test_non_zero_residual_exits_one(self, monkeypatch):
        monkeypatch.setattr(cli, "colored_qybe_residual",
                            lambda *args: Fraction(1, 3))
        assert main(["verify", "--family", "thm1", "--samples", "2"]) == 1


class TestMatrix:
    def test_json_to_file(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["matrix", "--family", "thm1", "--p", "1", "--q", "2",
                     "--u", "3", "--v", "1", "--sigma", "1",
                     "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["entries"] == [["5", "0", "0", "6"], ["0", "2", "1", "0"],
                                   ["0", "3", "4", "0"], ["0", "0", "0", "-1"]]

    def test_csv_and_latex(self, tmp_path, capsys):
        assert main(["matrix", "--family", "prop2", "--x", "3", "--sigma",
                     "0", "--format", "csv"]) == 0
        assert "3," in capsys.readouterr().out
        assert main(["matrix", "--family", "prop2", "--x", "3", "--sigma",
                     "0", "--format", "latex"]) == 0
        assert "pmatrix" in capsys.readouterr().out


class TestFrt:
    def test_default_sample_passes(self, tmp_path):
        report = tmp_path / "frt.json"
        assert main(["frt", "--p", "1", "--q", "3", "--u", "2", "--v", "1",
                     "--sigma", "0", "--report", str(report)]) == 0
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["all_members"] and data["uv_symmetric"]
        assert data["entry_span_dim"] == data["relation_span_dim"] == 16
        assert len(data["membership"]) == 16

    def test_membership_written_from_integers(self, tmp_path, monkeypatch):
        # the membership texts come from the report's integer combinations:
        # no member coefficient is built as a Fraction, and format_scalar
        # writes the five parameters only, none of the 384 coefficients;
        # the bytes are the pinned ones (test_report_bytes_pinned)
        def refuse(*args):
            raise AssertionError("member Fractions built")
        monkeypatch.setattr(frt, "_coefficients", refuse)
        written = []
        monkeypatch.setattr(cli, "format_scalar",
                            lambda x, real=cli.format_scalar:
                            written.append(x) or real(x))
        report = tmp_path / "frt.json"
        assert main(["frt", "--p", "1", "--q", "3", "--u", "2", "--v", "1",
                     "--sigma", "0", "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "8e2ef0217a9da5e519dc88597e1f7328fb4cf0f5da706efdcae190ad35d5dfc0")
        assert len(written) == 5

    def test_single_pass(self, monkeypatch):
        # the report and uv_symmetric come from one RTT expansion and one
        # elimination of the relations
        calls = Counter()

        def counting(name):
            original = getattr(frt, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("rtt_residual", "span_membership"):
            monkeypatch.setattr(frt, name, counting(name))
        assert main(["frt"]) == 0
        assert calls == {"rtt_residual": 1, "span_membership": 1}

    def test_one_elimination_of_rows_as_stored(self, monkeypatch):
        # relations and RTT entries are built as integers over one
        # denominator and eliminated as stored: one _Echelon, whose entry
        # rank comes from the membership combinations, and no clearing
        calls = Counter()

        def counting(name):
            original = getattr(frt, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("_Echelon", "over_one_denominator"):
            monkeypatch.setattr(frt, name, counting(name))
        assert main(["frt"]) == 0
        assert calls == {"_Echelon": 1}

    @pytest.mark.parametrize("argv,code,digest", [
        (["--sigma", "0"], 0,
         "8e2ef0217a9da5e519dc88597e1f7328fb4cf0f5da706efdcae190ad35d5dfc0"),
        (["--sigma", "2"], 0,
         "034eb54531af8361803de7583e25a9a6857392b795983fb291a4e3eda023090b"),
        (["--p", "-2/3", "--q", "5/7", "--u", "-1/2", "--v", "3/4",
          "--sigma", "-5/3"], 0,
         "c45e7c78c6feaabb1929520b570e0e0f8d98f5e4128e8f705382ce75d6d3e181"),
        (["--p", "2", "--q", "2", "--u", "3", "--v", "1", "--sigma", "1"], 0,
         "6b1de6a945ccf5ea3f29f2323d6a1b2c6337e8e4d96318cbd1fd36d7a10f65dd"),
        (["--u", "2", "--v", "2"], 1,
         "7651134df0587568ed0c779b4d0b7c2a335e44bc321e31739f3242d1e5aedf25"),
        (["--p", "0", "--q", "1", "--sigma", "1/2"], 1,
         "197936dacdc95da5c257fb3feefe1b798ff451647f5e29266de42cfeb1150ded"),
        (["--p", "1", "--q", "3", "--u", "1", "--v", "3"], 2, None),
    ], ids=["sigma0", "sigma2", "negative", "p=q", "u=v", "p=0",
            "singular"])
    def test_report_bytes_pinned(self, tmp_path, argv, code, digest):
        # sha256 of the report file; exit 2 on the singular locus writes none
        report = tmp_path / "frt.json"
        assert main(["frt", *argv, "--report", str(report)]) == code
        if digest is None:
            assert not report.exists()
        else:
            assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestYbsystemAndCompare:
    def test_ybsystem_passes(self):
        assert main(["ybsystem", "--lam", "3", "--mu", "5", "--sigma",
                     "1"]) == 0

    def test_compare_passes(self):
        assert main(["compare", "--q", "2", "--x", "3", "--y", "5"]) == 0


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


class TestReportBytes:
    """sha256 pins of every report kind: the 120 campaign task reports
    recorded in perfbench/golden.json (read, never written), compare's
    stdout and a search --out file; the frt --report pins are in TestFrt."""

    def test_golden_campaign_reports(self, tmp_path):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["campaign"]
        cfg = tmp_path / "campaign.json"
        wrong = []
        for i, entry in enumerate(golden):
            task = entry["task"]
            if task["command"] == "matrix":
                task["args"]["out"] = str(tmp_path / "matrix.out")
            cfg.write_text(json.dumps({"seed": 0, "tasks": [task]}),
                           encoding="utf-8")
            assert main(["campaign", str(cfg), "--outdir",
                         str(tmp_path)]) == 0
            report = tmp_path / f"task-000-{task['command']}.json"
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                wrong.append(f"{i}: {entry['kind']}")
        assert len(golden) == 120 and not wrong, wrong

    def test_compare_stdout(self, capsys):
        assert main(["compare", "--q", "2", "--x", "3", "--y", "5"]) == 0
        assert hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest() == (
            "fd8a9d56da2393dbb84dbefde341e3c53a9b544ee108fdbfe63f3a2560cff444")

    def test_search_out(self, tmp_path):
        out = tmp_path / "search.json"
        assert main(["--seed", "42", "search", "--restarts", "3", "--out",
                     str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d8a464bb742477aaecf827b147163557b1e5d4beae8fb2773376fb4c8f6e385d")


class TestNoDenseHelpers:
    @pytest.fixture
    def trapped(self, monkeypatch):
        """Every binding of a dense helper or of ``BraidFamily``, in its
        module and in each ybops module that imported it, replaced by a
        function that fails."""
        originals = {id(getattr(module, n)): n for module, n in DENSE_HELPERS}
        for name, module in list(sys.modules.items()):
            if name != "ybops" and not name.startswith("ybops."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    def trap(*args, _helper=originals[id(value)], **kwargs):
                        raise AssertionError(f"{_helper} called")
                    monkeypatch.setattr(module, attr, trap)

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "thm1", "--p", "1", "--q", "3", "--sigma", "1"],
        ["matrix", "--family", "thm1", "--p", "1", "--q", "2", "--u", "3",
         "--v", "1", "--sigma", "1", "--format", "json"],
        ["frt", "--p", "1", "--q", "3", "--u", "2", "--v", "1",
         "--sigma", "0"],
        ["ybsystem", "--lam", "3", "--mu", "5"],
        ["compare", "--q", "2", "--x", "3", "--y", "5"],
    ], ids=lambda argv: argv[0])
    def test_subcommands_run_without_them(self, trapped, argv):
        assert main(argv) == 0


class TestSearchCommand:
    def test_search_writes_report(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["--seed", "42", "search", "--restarts", "5", "--out",
                     str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["seed"] == 42 and len(data["results"]) == 5

    def test_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["--seed", "9", "search", "--restarts", "3", "--out",
                  str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_best_objective_ranks_nan_last(self, monkeypatch, capsys):
        # the linear objective is nan at [1e200] * 6, so a restart can end
        # on nan; an earlier nan restart must not hide a later minimum
        assert math.isnan(search._make_objective("linear", "colored", "xz")(
            [1e200] * 6))
        results = [search.SearchResult((0.0,) * 6, f, None, 0, i, 1)
                   for i, f in enumerate([math.nan, 1e-20])]
        monkeypatch.setattr(cli, "run_search", lambda **kwargs: results)
        assert main(["search", "--restarts", "2"]) == 0
        assert capsys.readouterr().out == (
            "best objective 1.000e-20 classification None\n")


class TestCampaign:
    def _config(self, tmp_path, tasks, seed=0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "tasks": tasks}),
                       encoding="utf-8")
        return cfg

    def test_all_pass_exit_zero(self, tmp_path):
        cfg = self._config(tmp_path, [
            {"command": "verify",
             "args": {"family": "thm1", "p": "1", "q": "3", "samples": 3}},
            {"command": "frt", "args": {}},
        ])
        outdir = tmp_path / "out"
        assert main(["campaign", str(cfg), "--outdir", str(outdir)]) == 0
        assert (outdir / "task-000-verify.json").exists()
        assert (outdir / "task-001-frt.json").exists()
        assert (outdir / "campaign-meta.json").exists()

    def test_unexpected_failure_exit_one(self, tmp_path):
        # a compare task at parameters where residuals vanish, but the
        # config expects failure: the mismatch must surface as exit 1
        cfg = self._config(tmp_path, [
            {"command": "compare", "args": {}, "expect": "fail"},
        ])
        assert main(["campaign", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("expect,code", [("fail", 0), ("pass", 1)])
    def test_failing_verify_task(self, expect, code, tmp_path, monkeypatch):
        # every residual 1/3: both samples fail, as an "expect: fail" task
        # wants and an "expect: pass" task does not
        monkeypatch.setattr(cli, "colored_qybe_residual",
                            lambda *args: Fraction(1, 3))
        cfg = self._config(tmp_path, [
            {"command": "verify", "args": {"family": "thm1", "samples": 2},
             "expect": expect},
        ])
        outdir = tmp_path / "o"
        assert main(["campaign", str(cfg), "--outdir", str(outdir)]) == code
        report = json.loads((outdir / "task-000-verify.json").read_text(
            encoding="utf-8"))
        assert report["passed"] is (expect == "fail")
        assert [f["residual"] for f in report["failures"]] == ["1/3", "1/3"]

    def test_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["campaign", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2

    def test_unknown_command_exit_two(self, tmp_path):
        cfg = self._config(tmp_path, [{"command": "bogus"}])
        assert main(["campaign", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2

    def test_reports_diffable(self, tmp_path):
        # d1 is run into twice with a longer report in between; its final
        # report equals the one in the fresh d2, byte for byte
        cfg = self._config(tmp_path, [
            {"command": "search", "args": {"restarts": 2}},
        ], seed=4)
        (tmp_path / "longer").mkdir()
        longer = self._config(tmp_path / "longer", [
            {"command": "search", "args": {"restarts": 4}},
        ], seed=4)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"

        def run(config, outdir):
            assert main(["campaign", str(config), "--outdir",
                         str(outdir)]) == 0
            return (outdir / "task-000-search.json").read_bytes()
        first = run(cfg, d1)
        assert len(run(longer, d1)) > len(first)
        assert run(cfg, d1) == run(cfg, d2) == first


# The five report files the CLI writes: argv, in which {dir} is the
# directory the report goes to and {cfg} a one-task campaign config, and the
# report's name in {dir}.
WRITE_SITES = [
    pytest.param(["matrix", "--family", "thm1", "--out", "{dir}/m.out"],
                 "m.out", id="matrix-out"),
    pytest.param(["search", "--restarts", "1", "--out", "{dir}/s.json"],
                 "s.json", id="search-out"),
    pytest.param(["frt", "--report", "{dir}/frt.json"], "frt.json",
                 id="frt-report"),
    pytest.param(["campaign", "{cfg}", "--outdir", "{dir}"],
                 "task-000-compare.json", id="campaign-task"),
    pytest.param(["campaign", "{cfg}", "--outdir", "{dir}"],
                 "campaign-meta.json", id="campaign-meta"),
]


@pytest.mark.parametrize("argv,name", WRITE_SITES)
class TestReportWriter:
    """Every report is written in place: an overwrite gives the bytes a
    fresh write gives, through a symlink, and a new file has the mode a
    truncating write gives it."""

    JUNK = b"\xff" * 10_000  # longer than any of the reports

    @pytest.fixture(autouse=True)
    def _clock(self, monkeypatch):
        # campaign-meta.json records the time of the run
        monkeypatch.setattr(cli.time, "time", lambda: 1.5)

    def _run(self, argv, name, outdir):
        outdir.mkdir(exist_ok=True)
        cfg = outdir.parent / "cfg.json"
        cfg.write_text('{"tasks": [{"command": "compare"}]}',
                       encoding="utf-8")
        assert main([a.format(dir=outdir, cfg=cfg) for a in argv]) == 0
        return outdir / name

    def test_overwrites_longer_file(self, tmp_path, argv, name):
        fresh = self._run(argv, name, tmp_path / "fresh").read_bytes()
        target = tmp_path / "old" / name
        target.parent.mkdir()
        target.write_bytes(self.JUNK)
        inode = target.stat().st_ino
        assert self._run(argv, name, target.parent) == target
        assert target.read_bytes() == fresh and len(fresh) < len(self.JUNK)
        assert target.stat().st_ino == inode

    def test_writes_through_symlink(self, tmp_path, argv, name):
        fresh = self._run(argv, name, tmp_path / "fresh").read_bytes()
        real = tmp_path / "real"
        real.write_bytes(self.JUNK)
        link = tmp_path / "linked" / name
        link.parent.mkdir()
        link.symlink_to(real)
        self._run(argv, name, link.parent)
        assert link.is_symlink() and real.read_bytes() == fresh

    def test_new_file_mode(self, tmp_path, argv, name):
        umask = os.umask(0)  # so that every permission bit shows
        try:
            mode = self._run(argv, name, tmp_path / "new").stat().st_mode
            (tmp_path / "ref").write_text("x", encoding="utf-8")
        finally:
            os.umask(umask)
        assert mode == (tmp_path / "ref").stat().st_mode


def test_report_to_device():
    # /dev/null is written to but cannot be truncated
    assert main(["matrix", "--family", "thm1", "--out", os.devnull]) == 0


# Bad input exits 2 with a one-line message, never a traceback or a vacuous
# pass.  Rows: argv, campaign config (appended as a file) or None, exit code,
# and the last line of stderr word for word, or None where it may vary (an
# OS or argparse message).  In argv, {tmp} is the test's temporary directory
# and {cfg} the config file.
TASK_ERROR = "error: config error in task 0: "
BAD_RATIONAL = "error: Invalid literal for Fraction: 'abc'"
SEED_ERROR = "error: config error: seed: expected a JSON int, got "
EXIT_CODES = [
    pytest.param(["--field", "float64", "verify", "--family", "thm1"], None,
                 2, None, id="unknown-field-flag"),
    pytest.param(["verify", "--family", "thm1", "--samples", "0"], None, 2,
                 None, id="samples-zero"),
    pytest.param(["verify", "--family", "thm1", "--samples", "-3"], None, 2,
                 None, id="samples-negative"),
    pytest.param(["search", "--restarts", "0"], None, 2, None,
                 id="restarts-zero"),
    pytest.param(["verify", "--family", "thm1", "--p", "1/0"], None, 2,
                 "error: zero denominator in '1/0'", id="zero-denominator"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "p": "1/0"}}]}, 2,
        TASK_ERROR + "zero denominator in '1/0'",
        id="campaign-zero-denominator"),
    pytest.param(["verify", "--family", "thm1", "--sigma", "abc"], None, 2,
                 None, id="bad-rational"),
    # a decimal exponent at the int digit limit is refused before its
    # power of ten is computed, as the power written out is
    pytest.param(["matrix", "--family", "thm1", "--u", "1e999999999"], None,
                 2, "error: decimal exponent out of range in '1e999999999': "
                 f"its magnitude must be below {sys.get_int_max_str_digits()}",
                 id="huge-decimal-exponent"),
    # a rational option is parsed even where the family or algebra
    # ignores it
    pytest.param(["verify", "--family", "thm1", "--sigma", "abc", "--eps",
                  "1"], None, 2, BAD_RATIONAL, id="unused-sigma-cubic"),
    pytest.param(["ybsystem", "--sigma", "abc", "--rho", "1"], None, 2,
                 BAD_RATIONAL, id="ybsystem-unused-sigma"),
    pytest.param(["verify", "--family", "prop2", "--p", "abc"], None, 2,
                 BAD_RATIONAL, id="unused-p"),
    pytest.param(["verify", "--family", "thm1", "--s", "abc"], None, 2,
                 BAD_RATIONAL, id="unused-s"),
    pytest.param(["matrix", "--family", "thm1", "--x", "abc"], None, 2,
                 BAD_RATIONAL, id="unused-x"),
    pytest.param(["matrix", "--family", "prop1", "--u", "abc"], None, 2,
                 BAD_RATIONAL, id="unused-u"),
    pytest.param(["campaign"], {"tasks": [{"command": "matrix", "args": {
        "family": "thm1", "x": "abc"}}]}, 2,
        TASK_ERROR + "Invalid literal for Fraction: 'abc'",
        id="campaign-unused-x"),
    # a dash-led task value is the option's value, as in '--u=-x'; as a
    # separate word, '-x' would read as an option on the command line
    pytest.param(["campaign"], {"tasks": [{"command": "matrix", "args": {
        "family": "thm1", "u": "-x"}}]}, 2,
        TASK_ERROR + "Invalid literal for Fraction: '-x'",
        id="campaign-dash-led-value"),
    # an empty --eps or --rho is a bad rational, not a missing one
    pytest.param(["verify", "--family", "thm1", "--eps="], None, 2,
                 "error: Invalid literal for Fraction: ''", id="empty-eps"),
    pytest.param(["ybsystem", "--rho="], None, 2,
                 "error: Invalid literal for Fraction: ''", id="empty-rho"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "eps": ""}}]}, 2,
        TASK_ERROR + "Invalid literal for Fraction: ''",
        id="campaign-empty-eps"),
    pytest.param(["campaign"], [1, 2], 2,
                 "error: config error: expected an object with a task list",
                 id="campaign-list"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "samples": "3"}}]}, 2,
        TASK_ERROR + "samples: expected a JSON int, got '3'",
        id="campaign-samples-str"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "sampels": 3}}]}, 2,
        TASK_ERROR + "ybops: error: unrecognized arguments: --sampels=3",
        id="campaign-misspelt-key"),
    # argparse accepts an abbreviation and an alias; the task may not
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "sam": 3}}]}, 2, TASK_ERROR + "unknown option 'sam'",
        id="campaign-abbreviated-key"),
    pytest.param(["campaign"], {"tasks": [{"command": "ybsystem", "args": {
        "lambda": "3"}}]}, 2, TASK_ERROR + "unknown option 'lambda'",
        id="campaign-alias-key"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify",
                                           "args": [1]}]}, 2,
                 TASK_ERROR + "task args must be an object",
                 id="campaign-args-list"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "samples": 2}, "expect": "pas"}]}, 2,
        TASK_ERROR + "expect must be 'pass' or 'fail', got 'pas'",
        id="campaign-misspelt-expect"),
    pytest.param(["frt", "--u", "1", "--v", "3", "--p", "1", "--q", "3"],
                 None, 2, None, id="frt-singular"),
    pytest.param(["--seed", "3", "search", "--shape", "exponential",
                  "--restarts", "1"], None, 0, None,
                 id="search-exp-underflow"),
    # the start points' generator rejects a negative seed as numpy does
    pytest.param(["--seed", "-1", "search", "--restarts", "1"], None, 2,
                 "error: expected non-negative integer",
                 id="search-seed-negative"),
    pytest.param(["--seed", "3", "search", "--shape", "exponential",
                  "--system", "onepar"], None, 2,
                 "error: one-parameter search supports the linear shape only",
                 id="search-onepar-exponential"),
    pytest.param(["campaign"], {"seed": -1, "tasks": [
        {"command": "search", "args": {"restarts": 1}}]}, 2,
        TASK_ERROR + "expected non-negative integer",
        id="campaign-search-seed-negative"),
    pytest.param(["matrix", "--family", "thm1", "--out", "{tmp}/no/x.json"],
                 None, 2, None, id="matrix-out-unwritable"),
    pytest.param(["frt", "--report", "{tmp}/no/r.json"], None, 2, None,
                 id="frt-report-unwritable"),
    pytest.param(["search", "--restarts", "1", "--out", "{tmp}/no/s.json"],
                 None, 2, None, id="search-out-unwritable"),
    pytest.param(["campaign", "--outdir", "{cfg}"],
                 {"tasks": [{"command": "compare"}]}, 2, None,
                 id="campaign-outdir-is-file"),
    pytest.param(["campaign"], {"tasks": [{"command": "matrix", "args": {
        "family": "thm1", "out": "{tmp}/no/x.json"}}]}, 2, None,
        id="campaign-task-out-unwritable"),
    pytest.param(["campaign"], {"tasks": []}, 2,
                 "error: config error: the task list is empty",
                 id="campaign-empty"),
    # the config's seed is a JSON int, as a task's is
    pytest.param(["campaign"], {"seed": "7", "tasks": [
        {"command": "compare"}]}, 2, SEED_ERROR + "'7'",
        id="campaign-seed-str"),
    pytest.param(["campaign"], {"seed": True, "tasks": [
        {"command": "compare"}]}, 2, SEED_ERROR + "True",
        id="campaign-seed-bool"),
    pytest.param(["campaign"], {"seed": 1.5, "tasks": [
        {"command": "compare"}]}, 2, SEED_ERROR + "1.5",
        id="campaign-seed-float"),
    pytest.param(["campaign"], {"tasks": [{"command": "campaign"}]}, 2,
                 TASK_ERROR + "unknown command 'campaign'",
                 id="campaign-nested"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {}}]},
                 2, TASK_ERROR + "ybops verify: error: the following "
                 "arguments are required: --family",
                 id="campaign-missing-family"),
    # a task's JSON type is checked before argparse reads its text, and
    # every key that is not an option name is judged by one prefix rule
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "samples": True}}]}, 2,
        TASK_ERROR + "samples: expected a JSON int, got True",
        id="campaign-samples-bool"),
    pytest.param(["campaign"], {"tasks": [{"command": "verify", "args": {
        "family": "thm1", "samples": 3.0}}]}, 2,
        TASK_ERROR + "samples: expected a JSON int, got 3.0",
        id="campaign-samples-float"),
    pytest.param(["campaign"], {"tasks": [{"command": "compare", "args": {
        "seed": True}}]}, 2, TASK_ERROR + "seed: expected a JSON int, got True",
        id="campaign-task-seed-bool"),
    pytest.param(["campaign"], {"tasks": [{"command": "compare", "args": {
        "help": "x"}}]}, 2, TASK_ERROR + "unknown option 'help'",
        id="campaign-help-key"),
    pytest.param(["campaign"], {"tasks": [{"command": "compare", "args": {
        "h": "x"}}]}, 2, TASK_ERROR + "unknown option 'h'",
        id="campaign-h-key"),
    pytest.param(["campaign"], {"tasks": [{"command": "ybsystem", "args": {
        "l": "3"}}]}, 2, TASK_ERROR + "unknown option 'l'",
        id="campaign-prefix-of-option-and-alias"),
    pytest.param(["campaign"], {"tasks": [{"command": "matrix", "args": {
        "family": "thm1", "u=1": "2"}}]}, 2,
        TASK_ERROR + "ybops: error: unrecognized arguments: --u=1=2",
        id="campaign-key-with-equals"),
    # an option value of exactly "--" is converted and checked as it is;
    # the invalid-choice text quotes its choices differently by version
    pytest.param(["compare", "--q=--"], None, 2,
                 "error: Invalid literal for Fraction: '--'", id="q-dashdash"),
    pytest.param(["verify", "--family=--"], None, 2, None,
                 id="family-dashdash"),
    pytest.param(["verify", "--family", "thm1", "--samples=--"], None, 2,
                 "ybops verify: error: argument --samples: expected a "
                 "positive integer, got '--'", id="samples-dashdash"),
    pytest.param(["campaign"], {"tasks": [{"command": "compare", "args": {
        "q": "--"}}]}, 2, TASK_ERROR + "Invalid literal for Fraction: '--'",
        id="campaign-q-dashdash"),
]


@pytest.mark.parametrize("argv,config,code,message", EXIT_CODES)
def test_exit_codes(argv, config, code, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    argv = [a.format(tmp=tmp_path, cfg=cfg) for a in argv]
    if config is not None:
        cfg.write_text(json.dumps(config).replace("{tmp}", str(tmp_path)),
                       encoding="utf-8")
        argv.append(str(cfg))
        if "--outdir" not in argv:
            argv += ["--outdir", str(tmp_path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        last = err.strip().splitlines()[-1]
        assert "error:" in last
        assert message is None or last == message


def _task_actions(command):
    # the options a task may set: the subcommand's, help left out
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [a for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


# rational text as a task may give it: dash-led, holding '=', or empty
_TASK_TEXT = st.one_of(
    st.sampled_from(["-2/3", "--v", "a=b", "", "-x", "--", "1/0", "3",
                     "-1e-3", "thm9"]),
    st.text(alphabet="-=/.0123456789abx ", max_size=6))


def _task_value(action):
    if action.type is not None:
        return st.integers(-3, 60)
    if action.choices is not None:
        return st.one_of(st.sampled_from(tuple(action.choices)), _TASK_TEXT)
    return _TASK_TEXT


@st.composite
def _tasks(draw):
    command = draw(st.sampled_from(("verify", "matrix", "search", "frt",
                                    "ybsystem", "compare")))
    chosen = draw(st.lists(st.sampled_from(_task_actions(command)),
                           unique_by=lambda a: a.dest))
    args = {a.dest: draw(_task_value(a)) for a in chosen}
    if draw(st.booleans()):
        args["seed"] = draw(st.integers(-5, 2 ** 40))
    return {"command": command, "args": args}


def _parsed(parse, task):
    try:
        return vars(parse(task, 7))
    except ValueError as exc:
        return str(exc)


class TestTaskParser:
    @settings(max_examples=150, deadline=None)
    @given(task=_tasks())
    @example(task={"command": "verify", "args": {"family": "thm9"}})
    @example(task={"command": "verify", "args": {"family": "thm1",
                                                 "samples": 0}})
    @example(task={"command": "verify", "args": {"samples": 3}})
    def test_matches_the_argv_parse(self, task):
        # budget: under 1 s.  The same Namespace, or the same message,
        # as the whole argparse tree gives on the joined argv
        assert _parsed(cli._parse_task, task) == _parsed(parse_task, task)

    def test_every_task_is_checked_before_any_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tasks": [
            {"command": "verify", "args": {"family": "thm1", "samples": 2}},
            {"command": "verify", "args": {"family": "thm9"}}]}),
            encoding="utf-8")
        assert main(["campaign", str(cfg), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: config error in task 1: ybops verify: error: "
            "argument --family: invalid choice")
        assert not list(tmp_path.glob("task-*.json"))

    def test_a_handler_error_comes_when_its_task_runs(self, tmp_path,
                                                      capsys):
        # a bad rational is a handler's finding, so task 0 has run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tasks": [
            {"command": "compare"},
            {"command": "compare", "args": {"q": "abc"}}]}),
            encoding="utf-8")
        assert main(["campaign", str(cfg), "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "error: config error in task 1: Invalid literal for Fraction: "
            "'abc'")
        assert [p.name for p in tmp_path.glob("task-*.json")] == [
            "task-000-compare.json"]


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_env_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("YBOPS_OUTDIR", str(tmp_path / "envout"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tasks": [
            {"command": "compare", "args": {}}]}), encoding="utf-8")
        assert main(["campaign", str(cfg)]) == 0
        assert (tmp_path / "envout" / "task-000-compare.json").exists()


def _rational_options():
    # (subcommand, first spelling) of every option that takes a rational:
    # no type, no choices, not the help action and not a path
    return [(sub, a.option_strings[0])
            for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
            for sub, parser in action.choices.items()
            for a in parser._actions
            if a.type is None and a.choices is None
            and not isinstance(a, argparse._HelpAction)
            and a.dest not in ("out", "report", "outdir", "config")]


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        builds = Counter()
        build = cli.build_parser

        def counting():
            builds["parser"] += 1
            return build()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert main(["compare"]) == 0
            assert main(["matrix", "--family", "prop2", "--format", "csv"]) == 0
        finally:
            cli._parser.cache_clear()
        assert builds["parser"] == 1

    @pytest.mark.parametrize("argv", [
        ["matrix", "--family", "thm1", "--u", "-2/3", "--v", "1/2",
         "--format", "csv"],
        ["matrix", "--family", "prop1", "--q", "-5/2", "--x", "-1/3"],
        ["ybsystem", "--lam", "-1/2", "--mu", "-3"],
        ["compare", "--q", "-1/2", "--x", "-7/3", "--y", "2"],
        ["matrix", "--family", "thm1", "--u", "-1e-3", "--v", "-2.", "--p",
         "-1E2", "--format", "csv"],
    ])
    def test_negative_rational_as_separate_word(self, argv, capsys):
        # '--u -2/3' reads -2/3 as the value, as '--u=-2/3' does
        joined = []
        for word in argv:
            if word.startswith("-") and not word.startswith("--"):
                joined[-1] += "=" + word
            else:
                joined.append(word)
        outputs = []
        for words in (argv, joined):
            code = main(words)
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][2] == ""

    @pytest.mark.parametrize("sub,option", _rational_options())
    def test_every_rational_option_is_parsed(self, sub, option, capsys):
        # even one the family, the colours or the algebra leave unused
        family = ["--family", "thm1"] if sub in ("verify", "matrix") else []
        assert main([sub, *family, f"{option}=abc"]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == BAD_RATIONAL


# --- the CLI in a fresh interpreter -------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def _ybops(argv, stdout):
    return subprocess.run([sys.executable, "-m", "ybops.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=_ENV,
                          timeout=120)


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["compare", "--q", "2", "--x", "3", "--y", "5"],
        ["matrix", "--family", "thm1", "--format", "csv"],
        ["campaign", "{cfg}", "--outdir", "{tmp}"],
    ])
    def test_closed_pipe_exits_141_quietly(self, argv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tasks": [
            {"command": "matrix", "args": {"family": "thm1"}}]}),
            encoding="utf-8")
        argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            proc = _ybops(argv, write)
        finally:
            os.close(write)
        assert proc.returncode == 141 and proc.stderr == b""

    @pytest.mark.parametrize("argv", [
        ["matrix", "--family", "thm1", "--out", "{tmp}/missing/m.json"],
        ["frt", "--report", "{tmp}/missing/frt.json"],
    ])
    def test_unwritable_output_still_exits_2(self, argv, tmp_path):
        argv = [a.format(tmp=tmp_path) for a in argv]
        proc = _ybops(argv, subprocess.DEVNULL)
        err = proc.stderr.decode().strip().splitlines()
        assert proc.returncode == 2 and len(err) == 1
        assert err[0].startswith("error:")


def test_deeply_nested_config_exits_2(tmp_path):
    # deeper than the JSON parser recurses: a config error, not a traceback
    cfg = tmp_path / "deep.json"
    depth = 200_000
    cfg.write_text('{"tasks": ' + "[" * depth + "]" * depth + "}",
                   encoding="utf-8")
    proc = _ybops(["campaign", str(cfg), "--outdir", str(tmp_path)],
                  subprocess.DEVNULL)
    err = proc.stderr.decode().strip().splitlines()
    assert proc.returncode == 2 and len(err) == 1
    assert err[0].startswith("error: config error: ")
    assert "Traceback" not in proc.stderr.decode()


def test_import_loads_no_numerics():
    # numpy and scipy are test references only
    code = ("import sys, ybops, ybops.cli; print(sorted({m.split('.')[0] "
            "for m in sys.modules} & {'numpy', 'scipy'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_search_loads_no_scipy():
    # the search's Nelder-Mead is its own; scipy is a test reference only
    code = ("import sys, ybops; ybops.search.search(restarts=1); "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_tie_free_search_loads_no_numpy(tmp_path):
    # the search orders its simplex in Python, ties and nan included: the
    # linear coloured search, the README's seed-42 run included, and
    # exponential seed 3, which ends on its 0.0 plateau of tied vertices,
    # leave numpy unloaded
    code = ("import sys, ybops, ybops.cli; ybops.search.search(restarts=1); "
            "ybops.cli.main(['--seed', '42', 'search', '--restarts', '50', "
            "'--out', sys.argv[1]]); print('numpy' in sys.modules); "
            "ybops.search.search('exponential', seed=3); "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s")],
                          capture_output=True, text=True, env=_ENV,
                          timeout=120, check=True)
    assert proc.stdout.splitlines()[-2:] == ["False", "False"]


def test_runs_with_numpy_blocked(tmp_path):
    # ybops has no runtime dependency: with numpy unimportable every
    # subcommand runs, a campaign and each search mode included
    # (exponential seed 3 ends on its plateau of tied vertices)
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"tasks": [
        {"command": "verify", "args": {"family": "thm1", "samples": 2}}]}),
        encoding="utf-8")
    runs = [
        ["verify", "--family", "thm1", "--samples", "2"],
        ["matrix", "--family", "thm1"],
        ["frt", "--p", "1", "--q", "3", "--u", "2", "--v", "1", "--sigma", "0"],
        ["ybsystem", "--lam", "3", "--mu", "5"],
        ["compare", "--q", "2", "--x", "3", "--y", "5"],
        ["campaign", str(cfg), "--outdir", str(tmp_path / "reports")],
        *(["--seed", "3", "search", "--shape", shape, "--system", system,
           "--phi", phi, "--restarts", "3"]
          for shape, system, phi in SEARCH_MODES)]
    code = ("import json, sys; sys.modules['numpy'] = None; "
            "from ybops.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps(codes))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True, env=_ENV,
                          timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs)


def test_search_attribute_is_the_module():
    # the package exports its submodules, not their names, so after a bare
    # import every one of them but the CLI is an attribute, with its
    # module-level names reachable
    code = ("import pkgutil, sys, ybops; names = [m.name for m in "
            "pkgutil.iter_modules(ybops.__path__) if m.name != 'cli']; "
            "assert all(getattr(ybops, n) is sys.modules['ybops.' + n] "
            "for n in names), names; print(len(names), "
            "ybops.search.MAX_ITER)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120, check=True)
    count, max_iter = map(int, proc.stdout.split())
    assert count == 11 and max_iter > 0


def test_frt_tables_compile_on_first_use():
    # importing the CLI compiles no relation evaluator: the evaluator cache
    # is empty; the first claimed list compiles its twelve, and its
    # exchange closure the twelve partners
    code = ("import ybops.cli; from ybops import frt; "
            "size = lambda: print(frt._evaluator.cache_info().currsize); "
            "size(); rels = frt.claimed_relations(2, 1, 1, 3, 0); size(); "
            "frt.exchange_closure(rels); size()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120, check=True)
    assert proc.stdout.split() == ["0", "12", "24"]


def test_qybe_kernels_compile_on_first_use():
    # importing the CLI compiles no QYBE kernel: the pattern cache is empty;
    # Okado's braid check compiles its generic pattern once, another q
    # reuses it, and q = 1, where q^2 - 1 = 0 drops entries, compiles a
    # second pattern
    code = ("import contextlib, io, ybops.cli\n"
            "from ybops import cli, tensorop\n"
            "sizes = [tensorop._compiled.cache_info().currsize]\n"
            "for q in ('2', '-3/2', '1'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(['compare', '--q', q, '--x', '3', '--y', '5'])\n"
            "    sizes.append(tensorop._compiled.cache_info().currsize)\n"
            "print(*sizes)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120, check=True)
    assert proc.stdout.split() == ["0", "1", "1", "2"]


def test_search_objectives_compile_on_first_use():
    # importing the CLI compiles no objective and no Nelder-Mead step; a
    # search compiles its mode's objective and the step for n = 6 only
    code = ("import ybops.cli; from ybops import search; "
            "sizes = lambda: print(search._compile_objective.cache_info()"
            ".currsize, search._compile_step.cache_info().currsize); "
            "sizes(); search.search(restarts=1); sizes(); "
            "search._compile_step(6); sizes()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120, check=True)
    assert proc.stdout.split() == ["0", "0", "1", "1", "1", "1"]
