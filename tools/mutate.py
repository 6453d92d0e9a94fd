"""Flip one comparison at a time and see whether a test selection notices.

    python tools/mutate.py src/spintomo/general_inversion.py -- tests
    python tools/mutate.py src/spintomo/cli.py -- tests/test_cli.py tests/test_golden_corpus.py

Each comparison operator of each named module is flipped, one at a time,
to its boundary twin: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``, ``is`` and ``is not``.  For each such mutant the script rewrites
the module, runs ``python -m pytest -x -q`` on the selection after ``--``
from the repository root, and restores the module in a ``finally``, also
when the run is interrupted or terminated.  Each pytest runs with
``OPENBLAS_NUM_THREADS=1`` unless the caller has set it: OpenBLAS threads
busy-wait, and beside another numpy process on a 2-CPU machine they made
``tests/test_general_inversion.py`` take 195 s instead of 9 s.  A mutant
is killed when pytest fails, or runs more than five times as long as on
the unmutated code plus 10 s, and survives when it passes.  The
selection must pass on the unmutated code first.

A survivor named in ``tools/equivalent_mutants.txt`` is reported as
equivalent; any other survivor makes the script exit with status 1.  That
file holds one mutant a line, as this script prints it, then two spaces,
``#`` and the reason it changes no result.

The modules are rewritten while the script runs, so run it in a copy of
the repository or a clean checkout.  It uses the standard library only, is
run by hand, and is not part of the tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "equivalent_mutants.txt"

# Each operator, the pattern of its token in the text between its operands,
# and its boundary twin.
_TWINS = {
    ast.Lt: (r"<(?!=)", "<="),
    ast.LtE: (r"<=", "<"),
    ast.Gt: (r">(?!=)", ">="),
    ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="),
    ast.NotEq: (r"!=", "=="),
    ast.Is: (r"\bis\b(?!\s+not\b)", "is not"),
    ast.IsNot: (r"\bis\s+not\b", "is"),
}


@dataclass(frozen=True)
class Mutant:
    line: int
    # The mutated module's text, as UTF-8
    source: bytes
    # "file::function: comparison -> mutant", the name in the list of
    # equivalent mutants
    name: str


def _offsets(source: bytes) -> list:
    """The byte offset of the start of each line; ast columns count bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _scopes(tree: ast.AST):
    """Each Compare node with the qualified name of the function or class
    around it, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare):
            found.append((node, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found, key=lambda item: (item[0].lineno, item[0].col_offset))


def mutants(path: Path) -> list:
    """Every single-comparison mutant of the module at ``path``."""
    source = path.read_bytes()
    starts = _offsets(source)

    def at(lineno, col):
        return starts[lineno - 1] + col

    out = []
    seen = {}
    for node, scope in _scopes(ast.parse(source)):
        start, end = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
        operands = [node.left, *node.comparators]
        for k, op in enumerate(node.ops):
            if type(op) not in _TWINS:
                continue
            pattern, twin = _TWINS[type(op)]
            left, right = operands[k], operands[k + 1]
            gap_start = at(left.end_lineno, left.end_col_offset)
            gap_end = at(right.lineno, right.col_offset)
            gap = source[gap_start:gap_end].decode()
            # The operator, parentheses, white space and nothing else.
            if len(re.findall(pattern, gap)) != 1 or "#" in gap:
                raise ValueError(f"{path}:{node.lineno}: cannot place the operator in {gap!r}")
            mutated = source[:gap_start] + re.sub(pattern, twin, gap).encode() + source[gap_end:]
            # The comparison before and after, on one line.
            before = " ".join(source[start:end].decode().split())
            after = " ".join(mutated[start : end + len(mutated) - len(source)].decode().split())
            name = f"{path.name}::{scope}: {before} -> {after}"
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:
                name += f" ({seen[name]})"
            out.append(Mutant(node.lineno, mutated, name))
    return out


def _equivalent() -> set:
    """The names on the list of equivalent mutants, without their reasons."""
    lines = EQUIVALENT.read_text(encoding="utf-8").splitlines() if EQUIVALENT.exists() else []
    return {line.partition("  # ")[0] for line in lines if line.strip() and not line.startswith("#")}


def _run_tests(selection, timeout: float) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    try:
        result = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files to mutate")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        parser.error("give the test selection after --")
    split = argv.index("--")
    args, selection = parser.parse_args(argv[:split]), argv[split + 1 :]
    modules = [path.resolve() for path in args.modules]
    plan = [(path, mutants(path)) for path in modules]

    # A terminated run unwinds through the finally that restores a module.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.monotonic()
    if _run_tests(selection, None) != "survived":
        print("the selection fails on the unmutated code", file=sys.stderr)
        return 2
    # A mutant that makes a test run for ever counts as killed.
    timeout = 5 * (time.monotonic() - began) + 10
    listed = _equivalent()
    unlisted = 0
    for path, found in plan:
        original = path.read_bytes()
        counts = {"killed": 0, "timeout": 0, "equivalent": 0, "unlisted": 0}
        try:
            for mutant in found:
                path.write_bytes(mutant.source)
                outcome = _run_tests(selection, timeout)
                if outcome == "survived":
                    outcome = "equivalent" if mutant.name in listed else "unlisted"
                counts[outcome] += 1
                print(f"{outcome:10} {path.name}:{mutant.line} {mutant.name}", flush=True)
        finally:
            path.write_bytes(original)
        unlisted += counts["unlisted"]
        print(
            f"{path.name}: {len(found)} mutants, {counts['killed'] + counts['timeout']} killed "
            f"({counts['timeout']} by timeout), {counts['equivalent'] + counts['unlisted']} "
            f"survived ({counts['equivalent']} listed as equivalent, {counts['unlisted']} not)",
            flush=True,
        )
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
