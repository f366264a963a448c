"""The campaign task parser as it was before the option table: the task's
args joined into a second argv and parsed by the whole argparse tree, the
message scraped from stderr.  The tests' reference for ``cli._parse_task``.
Tests only."""

import contextlib
import io

from ybops.cli import _HANDLERS, _parser


def parse_task(task, seed):
    """Parse one campaign task through the subcommand parsers.

    ``args`` keys are the subcommand's option names (``lam``, not
    ``lambda``).  A value must be a JSON integer where the option takes an
    integer and a string otherwise.  ``expect`` must be "pass" or "fail".
    """
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
    # '--key=value': a separate dash-led value that is not a number, such
    # as '-x', would be read as an option and leave '--key' without one
    argv = [f"--seed={args.get('seed', seed)}", command]
    argv += [f"--{k}={v}" for k, v in args.items() if k != "seed"]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            ns = _parser().parse_args(argv)
    except SystemExit:
        lines = err.getvalue().strip().splitlines() or ["invalid arguments"]
        raise ValueError(lines[-1]) from None
    for key, val in args.items():
        if not hasattr(ns, key):  # an abbreviation argparse accepted
            raise ValueError(f"unknown option {key!r}")
        want = int if isinstance(getattr(ns, key), int) else str
        if type(val) is not want:
            raise ValueError(f"{key}: expected a JSON {want.__name__}, "
                             f"got {val!r}")
    return ns
