"""Source rules of src/ybops, checked on the syntax trees of the repository.

Every import of a module is read in it and sits at the module head, every
top-level name is named somewhere outside its own definition, every private
top-level name is named in src/ybops itself, every file ybops writes goes
through ``cli._write``, indented JSON text comes only from
``cli._report_json`` (no call passes ``indent=`` to a ``json`` function),
only ``colored.py`` builds the ansatz, and every function that
``perfbench/spans.py`` traces is where its recorder looks for it.
"""

import ast
import functools
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ybops"


@functools.cache
def _trees():
    # each module of src/, tests/ and perfbench/ parsed once; this one is
    # left out, since its strings name what the rules look for, not uses
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))
             if p != Path(__file__).resolve()]
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}


def _src():
    return {p: t for p, t in _trees().items() if p.parent == SRC}


def _where(path, node):
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def _named(node):
    """The names a subtree reads: loaded names, attributes, imported names
    and the words of string constants that are not docstrings."""
    out = Counter()
    docs = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)
            and isinstance(n.value, ast.Constant)}
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                and id(n) not in docs):
            out.update(re.findall(r"\w+", n.value))
    return out


@functools.cache
def _total():
    return sum((_named(t) for t in _trees().values()), Counter())


def test_no_unused_imports():
    # the package's __init__ imports its submodules only to export them
    unused = []
    for path, tree in _src().items():
        if path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{_where(path, node)}: {name}" for name in
                           (a.asname or a.name.split(".")[0]
                            for a in node.names) if name not in read]
    assert not unused, "\n".join(unused)


def test_imports_at_module_head():
    # an import is a statement of the module itself, never of a function,
    # class or branch body, so every import edge shows at the top of a file
    bad = []
    for path, tree in _src().items():
        top = {id(n) for n in tree.body}
        bad += [_where(path, n) for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                and id(n) not in top]
    assert not bad, "\n".join(bad)


def _unread(read):
    """``(name, "path:line: name")`` for each top-level name of src/ybops,
    dunders left out, that the Counter ``read`` counts no more often than
    its own definition names it."""
    out = []
    for path, tree in _src().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            own = _named(node)
            out += [(name, f"{_where(path, node)}: {name}") for name in names
                    if not name.startswith("__") and read[name] == own[name]]
    return out


def test_every_top_level_name_is_read():
    # read as a name or attribute, imported, or in a string that is not a
    # docstring (perfbench/spans.py names what it wraps as
    # "module:attribute"), somewhere in src/, tests/ or perfbench/
    unused = [where for _, where in _unread(_total())]
    assert not unused, "\n".join(unused)


def test_private_names_are_read_in_src():
    # a private top-level name is read in src/ybops outside its own
    # definition: one that only the tests or perfbench read belongs to them
    read = sum((_named(t) for t in _src().values()), Counter())
    unused = [where for name, where in _unread(read) if name.startswith("_")]
    assert not unused, "\n".join(unused)


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _writes(call):
    f = ast.unparse(call.func)
    if f.endswith((".write_text", ".write_bytes")):
        return True
    if f == "os.open":
        return ast.unparse(call.args[0]) != "os.devnull" and any(
            getattr(n, "attr", None) in _WRITE_FLAGS
            for a in call.args[1:] for n in ast.walk(a))
    # open(), io.open, Path.open, gzip.open...: a mode string
    return (f == "open" or f.endswith(".open")) and any(
        isinstance(a, ast.Constant) and isinstance(a.value, str)
        and re.fullmatch(r"[rbt]*[wax+][rwxabt+]*", a.value)
        for a in [*call.args, *(k.value for k in call.keywords)])


def test_one_report_writer():
    # cli._write rewrites in place: no .write_text/.write_bytes, no open()
    # with a write mode and no os.open with a write flag anywhere else
    # (stdout's redirect to os.devnull writes no file)
    bad = []
    for path, tree in _src().items():
        allowed = {id(n) for f in tree.body if path.name == "cli.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "_write"
                   for n in ast.walk(f)}
        bad += [f"{_where(path, n)}: {ast.unparse(n)}" for n in ast.walk(tree)
                if isinstance(n, ast.Call) and id(n) not in allowed
                and _writes(n)]
    assert not bad, "\n".join(bad)


def test_one_indented_encoder():
    # no call passes indent= to a json function, called or handed on (as
    # to functools.partial): cli._report_json writes every indented report
    bad = []
    for path, tree in _src().items():
        json_names = {"json"} | {a.asname or a.name for n in ast.walk(tree)
                                 if isinstance(n, ast.ImportFrom)
                                 and (n.module or "").split(".")[0] == "json"
                                 for a in n.names}
        bad += [f"{_where(path, n)}: {ast.unparse(n)}" for n in ast.walk(tree)
                if isinstance(n, ast.Call)
                and any(k.arg == "indent" for k in n.keywords)
                and any(ast.unparse(f).split(".")[0] in json_names
                        for f in (n.func, *n.args))]
    assert not bad, "\n".join(bad)


def test_one_ansatz_builder():
    # every operator of the ansatz is built in colored.py, through its
    # family classes: no other module calls, imports or reads the builder
    builders = {"ansatz_op"}
    bad = []
    for path, tree in _src().items():
        if path.name == "colored.py":
            continue
        for n in ast.walk(tree):
            name = (n.id if isinstance(n, ast.Name) else
                    n.attr if isinstance(n, ast.Attribute) else
                    n.name.split(".")[-1] if isinstance(n, ast.alias)
                    else None)
            if name in builders:
                bad.append(f"{_where(path, n)}: {name}")
    assert not bad, "\n".join(bad)


def test_traced_names_resolve():
    # every SPANS target, read off the syntax tree of perfbench/spans.py,
    # is an attribute in its owner's own __dict__, where
    # Recorder.installed reads it: deleting or moving a traced function
    # fails here, not only in the benchmark's traced run and self-check
    spans = next(ast.literal_eval(n.value)
                 for n in _trees()[ROOT / "perfbench" / "spans.py"].body
                 if isinstance(n, ast.Assign)
                 and [ast.unparse(t) for t in n.targets] == ["SPANS"])
    bad = []
    for target in (t for targets in spans.values() for t in targets):
        mod_name, _, qual = target.partition(":")
        owner = importlib.import_module(mod_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            bad.append(target)
    assert spans and not bad, "\n".join(bad)
