"""Command-line surface: verification campaigns, matrix emission, FRT reports,
numerical searches and braid-matrix comparisons.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage/config error,
141 stdout was closed by its reader.
Reports are deterministic given the seed; timestamps live in a separate
metadata file so result payloads stay diffable.  Every JSON report is UTF-8
with a two-space indent, non-ASCII left unescaped and NaN/Infinity as json
writes them, all encoded by :func:`_report_json`.  Every report file is
written by :func:`_write`: an existing file is rewritten in place and then
cut to length, never truncated to zero first, because on ext4 closing a file
that was truncated to zero starts writeback of its new blocks, which can
cost more than the rest of a short campaign task.  Reports are never
fsynced, and an interrupted overwrite can leave the old file's trailing
bytes after the new text, where a truncating write would have left a short
file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import random
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path

from . import compare as compare_mod
from . import frt as frt_mod
from .algebra import cubic_algebra, dual_coalgebra, quadratic_algebra
from .colored import ColoredFamily
from .errors import YbopsError
from .funceq import FAMILIES
from .onepar import OneParFamily
from .scalars import format_scalar, parse_scalar
from .search import _PHI_SHAPES, search as run_search
from .tensorop import (braid_residual, colored_qybe_residual,
                       onepar_qybe_residual, op_to_csv, op_to_json,
                       op_to_latex, tensor_basis_labels)
from .ybsystem import thm3_residuals, thm3_system

# What a command raises for bad input: exit 2 with a one-line message.
_USAGE_ERRORS = (YbopsError, ValueError, ZeroDivisionError, OSError)


def _report_json(value, indent="\n"):
    """``json.dumps(value, indent=2, ensure_ascii=False)`` on dicts with str
    keys, lists and tuples; str, bool, None and int are written here, and
    any other scalar is json's own text, NaN, Infinity and the TypeError
    for a non-JSON value included."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        ends = "{}"
        items = [f"{encode_basestring(k)}: {_report_json(v, inner)}"
                 for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends = "[]"
        try:  # a list of str only, in one call per item
            items = list(map(encode_basestring, value))
        except TypeError:
            items = [_report_json(x, inner) for x in value]
    else:
        return json.dumps(value)
    if not value:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


# the options _algebra reads, with their defaults
_ALGEBRA_OPTIONS = (("sigma", "1"), ("eps", None), ("rho", None))


def _algebra(args):
    # every rational option given is parsed, even one the algebra ignores
    sigma = parse_scalar(args.sigma)
    if args.eps is None and args.rho is None:
        return quadratic_algebra(sigma)
    return cubic_algebra(*(parse_scalar("0" if x is None else x)
                           for x in (args.eps, args.rho)))


def _family(args):
    F = FAMILIES[args.family]
    A = _algebra(args)
    values = {name: parse_scalar(getattr(args, name))
              for name in ("p", "q", "s")}
    params = {name: values[name] for name in F.params}
    carrier = dual_coalgebra(A) if F.coalgebra else A
    cls = ColoredFamily if F.phi is None else OneParFamily
    return F, cls(kind=args.family, carrier=carrier, params=params)


def _random_scalar(rng, integer=False):
    if integer:
        return Fraction(rng.randint(-4, 4))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _write(path, text):
    """Write ``text`` to ``path`` as UTF-8, in place.

    The bytes, the mode of a new file, the inode and a symlink's target are
    what a truncating text write gives; only an existing file is cut to the
    new length after the write instead of to zero before it.  Nothing is
    cut when the file is no longer than the text: a new file, or a device
    such as ``/dev/null``, which cannot be truncated."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.flush()
        if os.fstat(fh.fileno()).st_size > len(data):
            os.ftruncate(fh.fileno(), len(data))


def _emitter(fmt):
    # looked up per call, so a rebound module attribute is the one used
    return {"json": op_to_json, "csv": op_to_csv, "latex": op_to_latex}[fmt]


def cmd_verify(args):
    F, fam = _family(args)
    names, residual = ((("u", "v", "w"), colored_qybe_residual)
                       if F.phi is None else
                       (("x", "z"), onepar_qybe_residual))
    rng = random.Random(args.seed)
    failures = []
    samples = []
    for _ in range(args.samples):
        colours = [_random_scalar(rng, F.integer_colours) for _ in names]
        res = residual(fam, *colours)
        sample = {n: format_scalar(c) for n, c in zip(names, colours)}
        sample["residual"] = format_scalar(res)
        samples.append(sample)
        if res != 0:
            failures.append(sample)
    report = {"command": "verify", "family": args.family,
              "samples": samples, "failures": failures}
    return not failures, report


def cmd_matrix(args):
    F, fam = _family(args)
    values = {c: parse_scalar(getattr(args, c)) for c in ("u", "v", "x")}
    colours = [values[c] for c in F.colours]
    op = fam.op(*colours)
    basis = tensor_basis_labels(op.n)
    shorthand = ({} if F.shorthand is None else
                 {k: format_scalar(v) for k, v in
                  F.shorthand(*F.args(fam.params), *colours).items()})
    text = _emitter(args.format)(op)
    report = {"command": "matrix", "family": args.family, "format": args.format,
              "basis": basis, "shorthand": shorthand, "text": text}
    if args.out:
        _write(args.out, text)
    else:
        print(text)
    return True, report


def cmd_search(args):
    results = run_search(shape=args.shape, system=args.system, seed=args.seed,
                         restarts=args.restarts, phi_shape=args.phi)
    payload = {"command": "search", "shape": args.shape, "system": args.system,
               "phi": args.phi, "seed": args.seed, "restarts": args.restarts,
               "results": [dataclasses.asdict(r) for r in results]}
    if args.out:
        _write(args.out, _report_json(payload))
    # a nan objective ranks last, as it does in the simplex
    best = min(results, key=lambda r: (math.isnan(r.objective), r.objective))
    print(f"best objective {best.objective:.3e} "
          f"classification {best.classification}")
    return True, payload


def cmd_frt(args):
    names = ("u", "v", "p", "q", "sigma")
    values = [parse_scalar(getattr(args, n)) for n in names]
    rels = frt_mod.claimed_relations(*values)
    # raises SingularParameterError on the singular locus
    rep = frt_mod.rtt_span_report(rels)
    report = {
        "command": "frt",
        "params": {n: format_scalar(x) for n, x in zip(names, values)},
        "all_members": rep.all_members,
        "entry_span_dim": rep.entry_span_dim,
        "relation_span_dim": rep.relation_span_dim,
        "uv_symmetric": rep.same_span,
        "membership": [None if rest else _member_texts(rep.size, s, y)
                       for s, rest, y in rep.reduced],
    }
    if args.report:
        _write(args.report, _report_json(report))
    return rep.same_span, report


def _member_texts(size, scale, comb):
    """The member -comb/scale on ``size`` relations as ``format_scalar``
    writes its Fractions, from the integers (:class:`ybops.frt.SpanReport`)."""
    texts = ["0"] * size
    for j, c in comb.items():
        g = math.gcd(c, scale) if scale > 0 else -math.gcd(c, scale)
        texts[j] = str(-c // g) if g == scale else f"{-c // g}/{scale // g}"
    return texts


def cmd_ybsystem(args):
    A = _algebra(args)
    lam, mu = parse_scalar(args.lam), parse_scalar(args.mu)
    S, residuals = thm3_system(A, lam, mu), thm3_residuals(A, lam, mu)
    emit = _emitter(args.emit)
    report = {"command": "ybsystem",
              "lambda": args.lam, "mu": args.mu,
              "residuals": [format_scalar(r) for r in residuals],
              "W": emit(S.W), "X": emit(S.X), "Z": emit(S.Z)}
    print("\n".join(f"{k}:\n{report[k]}" for k in ("W", "X", "Z")))
    return all(r == 0 for r in residuals), report


def cmd_compare(args):
    q, x, y = (parse_scalar(getattr(args, n)) for n in ("q", "x", "y"))
    res_ok = braid_residual(functools.partial(compare_mod.okado_rhat, q), x, y)
    # tau times prop1 at sigma = 0 solves the braid equation at (x, y) where
    # prop1 solves the QYBE at (y, x*y, x) (tensorop.braid_residual): its
    # five equations decide that, and no operator is built
    res_tw = onepar_qybe_residual(
        OneParFamily("prop1", quadratic_algebra(0), {"q": q}), y, x)
    report = {"command": "compare", "q": args.q, "x": args.x, "y": args.y,
              "okado_braid_residual": format_scalar(res_ok),
              "twisted_prop1_braid_residual": format_scalar(res_tw),
              "q1_reduction": compare_mod.compare_q1()}
    print(_report_json(report))
    return res_ok == 0 and res_tw == 0, report


@functools.cache
def _task_options(command):
    """A subcommand's parser, its task options by dest, its option strings."""
    sub = _parser()._subparsers._group_actions[0].choices[command]
    options = {a.dest: a for a in sub._actions if a.dest != "help"}
    options["seed"] = _parser()._option_string_actions["--seed"]
    return sub, options, list(sub._option_string_actions)


def _parse_task(task, seed):
    """Check a campaign task against its subcommand's option table: option
    names in full (``lam``, not ``lambda``), a JSON int where the option
    takes one (not ``true`` or ``3.0``) and a string otherwise, converted
    and checked by argparse.  ``expect`` is "pass" or "fail"."""
    command = task.get("command") if isinstance(task, dict) else None
    if (not isinstance(command, str) or command not in _HANDLERS
            or command == "campaign"):
        raise ValueError(f"unknown command {command!r}")
    args = task.get("args", {})
    if not isinstance(args, dict):
        raise ValueError("task args must be an object")
    if task.get("expect", "pass") not in ("pass", "fail"):
        raise ValueError(f"expect must be 'pass' or 'fail', "
                         f"got {task['expect']!r}")
    sub, options, strings = _task_options(command)
    ns = argparse.Namespace(command=command,
                            **{k: a.default for k, a in options.items()})
    # the seed first, as the global option is
    for key, val in ({"seed": seed} | args).items():
        if (action := options.get(key)) is None:
            if any(s.startswith(f"--{key}") for s in strings):
                raise ValueError(f"unknown option {key!r}")
            raise ValueError(f"{_parser().prog}: error: unrecognized "
                             f"arguments: --{key}={val}")
        # only the integer options convert their text
        if type(val) is not (want := int if action.type else str):
            raise ValueError(f"{key}: expected a JSON {want.__name__}, "
                             f"got {val!r}")
        try:
            setattr(ns, key, sub._get_values(action, [str(val)]))
        except argparse.ArgumentError as exc:
            raise ValueError(f"{sub.prog}: error: {exc}") from None
    missing = [argparse._get_action_name(a) for a in options.values()
               if a.required and a.dest not in args]
    if missing:
        raise ValueError(f"{sub.prog}: error: the following arguments are "
                         f"required: {', '.join(missing)}")
    return ns


def _in_task(i, call, *args):
    # a usage error names the task it came from
    try:
        return call(*args)
    except BrokenPipeError:
        raise
    except _USAGE_ERRORS as exc:
        raise ValueError(f"config error in task {i}: {exc}") from None


def cmd_campaign(args):
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser can follow
        raise ValueError(f"config error: {exc}") from None
    if not isinstance(config, dict) or not isinstance(config.get("tasks"),
                                                      list):
        raise ValueError("config error: expected an object with a task list")
    tasks = config["tasks"]
    if not tasks:
        raise ValueError("config error: the task list is empty")
    seed = config.get("seed", args.seed)
    if type(seed) is not int:
        raise ValueError(f"config error: seed: expected a JSON int, "
                         f"got {seed!r}")
    outdir = Path(args.outdir or os.environ.get("YBOPS_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    # every task is checked before the first one runs
    parsed = [_in_task(i, _parse_task, task, seed)
              for i, task in enumerate(tasks)]
    overall_ok = True
    for i, (task, task_args) in enumerate(zip(tasks, parsed)):
        ok, report = _in_task(i, _HANDLERS[task_args.command], task_args)
        expect = task.get("expect", "pass")
        matched = ok if expect == "pass" else not ok
        overall_ok &= matched
        report.update(expect=expect, passed=matched)
        _write(outdir / f"task-{i:03d}-{task_args.command}.json",
               _report_json(report))
    _write(outdir / "campaign-meta.json",
           json.dumps({"timestamp": time.time(), "tasks": len(tasks)}))
    return overall_ok, {"command": "campaign"}


_HANDLERS = {
    "verify": cmd_verify,
    "matrix": cmd_matrix,
    "search": cmd_search,
    "frt": cmd_frt,
    "ybsystem": cmd_ybsystem,
    "compare": cmd_compare,
    "campaign": cmd_campaign,
}


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _family_args(p):
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name, default in (("p", "1"), ("q", "2"), ("s", "3"),
                          *_ALGEBRA_OPTIONS):
        p.add_argument(f"--{name}", default=default)


class _Parser(argparse.ArgumentParser):
    """A word that starts with ``-`` and a digit, or ``-.`` and a digit, is a
    value, judged by ``parse_scalar``: ``--u -2/3`` means ``--u=-2/3``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option of the parser looks like that
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def _get_values(self, action, arg_strings):
        # an option's value "--" (`--q=--`) is converted and checked as
        # 3.13 does; argparse 3.10 to 3.12.1 drops it and returns []
        if (action.option_strings and action.nargs is None
                and arg_strings == ["--"]):
            self._check_value(action, value := self._get_value(action, "--"))
            return value
        return super()._get_values(action, arg_strings)


def build_parser():
    parser = _Parser(
        prog="ybops",
        description="Construct and verify Yang-Baxter operators from algebras")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check QYBE residuals at random colours")
    _family_args(p)
    p.add_argument("--samples", type=_positive_int, default=10)

    p = sub.add_parser("matrix", help="emit an operator matrix")
    _family_args(p)
    p.add_argument("--u", default="3")
    p.add_argument("--v", default="1")
    p.add_argument("--x", default="3")
    p.add_argument("--format", choices=("json", "csv", "latex"),
                   default="json")
    p.add_argument("--out")

    p = sub.add_parser("search", help="numerical search over ansatz shapes")
    p.add_argument("--shape", choices=("linear", "exponential"),
                   default="linear")
    p.add_argument("--system", choices=("colored", "onepar"),
                   default="colored")
    p.add_argument("--phi", choices=tuple(_PHI_SHAPES), default="xz")
    p.add_argument("--restarts", type=_positive_int, default=50)
    p.add_argument("--out")

    p = sub.add_parser("frt", help="RTT residual span-membership report")
    p.add_argument("--p", default="1")
    p.add_argument("--q", default="3")
    p.add_argument("--u", default="2")
    p.add_argument("--v", default="1")
    p.add_argument("--sigma", default="0")
    p.add_argument("--report")

    p = sub.add_parser("ybsystem", help="build and check a WXZ system")
    p.add_argument("--lam", "--lambda", dest="lam", default="3")
    p.add_argument("--mu", default="5")
    for name, default in _ALGEBRA_OPTIONS:
        p.add_argument(f"--{name}", default=default)
    p.add_argument("--emit", choices=("json", "latex"), default="json")

    p = sub.add_parser("compare", help="braid residuals and q=1 comparison")
    p.add_argument("--q", default="2")
    p.add_argument("--x", default="3")
    p.add_argument("--y", default="5")

    p = sub.add_parser("campaign", help="run a declarative task file")
    p.add_argument("config")
    p.add_argument("--outdir")
    return parser


@functools.cache
def _parser():
    # built once per process: a campaign runner calls main once per task
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ok, _report = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout pipe shows here, not at exit
    except BrokenPipeError:
        # the reader went away (`ybops ... | head -1`): not a usage error;
        # point stdout at devnull so the final flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
