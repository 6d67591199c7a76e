"""List the function-body statements of ``src/meanfield_sgd`` that a set of
``mfsgd`` runs never executes.

    python3 tools/command_traffic.py train=tiny.cfg meanfield=tiny.cfg ...

Each ``command=config`` pair runs in this process, one after another, as
``mfsgd <command> --config <config> --quiet`` into a fresh temporary output
directory, under the standard library's ``trace`` line counter; an empty
config (``train=``) runs the defaults.  The tool prints each run's exit code,
then, for every module, one "<line>  <function>  <source>" line per
statement that no run reached.  Only the outermost statement of a block that
never ran is listed, an ``except`` clause that never ran as one line, and a
function no run entered as one "never called" line.  A run with
``workers=`` > 1 trains in child processes, which the trace does not see.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import trace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "meanfield_sgd"
COMMANDS = ("train", "meanfield", "verify", "mnist-hist")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _blocks(node: ast.AST) -> list[list[ast.AST]]:
    """The statement blocks nested in ``node``, an ``except`` clause counted
    as a statement of its own; a nested ``def`` or ``class`` runs when it is
    defined, and its functions are listed on their own."""
    if isinstance(node, (*_FUNCS, ast.ClassDef)):
        return []
    blocks = [getattr(node, name, []) for name in ("body", "handlers",
                                                   "orelse", "finalbody")]
    return [block for block in blocks if block]


def _ran(node: ast.AST, hit: set[int]) -> bool:
    """Whether a line of ``node``'s own (its header, for a compound
    statement) or any statement nested in it executed."""
    blocks = _blocks(node)
    last = min(b[0].lineno for b in blocks) - 1 if blocks else node.end_lineno
    return (any(n in hit for n in range(node.lineno, last + 1))
            or any(_ran(s, hit) for block in blocks for s in block))


def _unrun(block: list[ast.AST], hit: set[int]):
    """The outermost statements of ``block`` and of the blocks in it that
    never ran."""
    for node in block:
        if not _ran(node, hit):
            yield node
        else:
            for inner in _blocks(node):
                yield from _unrun(inner, hit)


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, body without its docstring) of every function in
    ``tree``, methods and nested functions included."""
    for node in ast.iter_child_nodes(tree):
        name = f"{prefix}{getattr(node, 'name', '')}"
        if isinstance(node, _FUNCS):
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if body:
                yield name, body
        if isinstance(node, (*_FUNCS, ast.ClassDef)):
            yield from _functions(node, f"{name}.")
        else:
            yield from _functions(node, prefix)


def unrun_statements(path: Path, hit: set[int]) -> list[tuple[int, str, str]]:
    """(line, function, source line) of each statement of ``path``'s
    functions that no line of ``hit`` reached."""
    source = path.read_text()
    lines = source.splitlines()
    found = []
    for name, body in _functions(ast.parse(source)):
        if not any(_ran(node, hit) for node in body):
            found.append((body[0].lineno, name, "never called"))
            continue
        found.extend((node.lineno, name, lines[node.lineno - 1].strip())
                     for node in _unrun(body, hit))
    return sorted(found)


def traffic(runs: list[tuple[str, str]]) -> tuple[list[int], dict]:
    """Run each (command, config path or "") under one line counter.
    Returns the exit codes and, per module path relative to ``src``, the
    statements no run reached."""
    from meanfield_sgd.cli import main

    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    codes = []
    for command, config in runs:
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--out", str(Path(tmp) / "out"), "--quiet"]
            codes.append(tracer.runfunc(
                main, argv + (["--config", config] if config else [])))
    hits: dict[str, set[int]] = {}
    for filename, lineno in tracer.results().counts:
        hits.setdefault(str(Path(filename).resolve()), set()).add(lineno)
    return codes, {str(path.relative_to(SRC)):
                   unrun_statements(path, hits.get(str(path.resolve()), set()))
                   for path in sorted(PACKAGE.glob("*.py"))}


def main(argv: list[str]) -> int:
    runs = [arg.partition("=")[::2] for arg in argv]
    if not runs or any(command not in COMMANDS for command, _ in runs):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    codes, report = traffic(runs)
    for arg, code in zip(argv, codes):
        print(f"{arg} -> exit {code}")
    for module, statements in report.items():
        print(module)
        for lineno, name, text in statements:
            print(f"  {lineno:5d}  {name}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
