"""Mutation sample: how many one-token faults in chosen functions the tests catch.

    python scripts/mutation_sample.py src/cicdec/cli.py _tokens _parse_chunk \
        --tests tests/test_cli.py [--list] [--pick 3 7] [--workdir DIR]

Each mutant changes one token inside the named functions (methods too): a
comparison moved across its boundary (``<`` and ``<=``, ``>`` and ``>=``,
``==`` and ``!=``), ``+``/``-`` or ``&``/``|`` swapped (augmented
assignments included), ``**`` made ``*``, a unary minus dropped (made
``+``), or one of the integer constants 0, 1, 4, 10, 18, 63 and 64 moved by
one either way.  The module is rewritten with `ast.unparse` into a
copy of ``src``, ``tests`` and ``pyproject.toml``, never into this tree, and
the tests run there with ``--hypothesis-seed=0``, stopping at the first
failure.  A mutant that no test fails is printed as SURVIVED; the unmutated
rewrite runs first and must pass.  Expect 5-30 s per mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Pow: ast.Mult, ast.USub: ast.UAdd}
CONSTANTS = {0, 1, 4, 10, 18, 63, 64}


def sites(tree: ast.Module, functions: set[str]):
    """(line, description, apply) of every mutant, in a fixed order."""
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for node in (n for statement in fn.body for n in ast.walk(statement)):
            ops = node.ops if isinstance(node, ast.Compare) else (
                [node.op] if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)) else [])
            for i, op in enumerate(ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]()
                    yield (fn.name, node.lineno, f"{type(op).__name__} -> {type(new).__name__}",
                           lambda node=node, i=i, new=new: _set_op(node, i, new))
            if (isinstance(node, ast.Constant) and type(node.value) is int
                    and node.value in CONSTANTS):
                for step in (-1, 1):
                    yield (fn.name, node.lineno, f"{node.value} -> {node.value + step}",
                           lambda node=node, step=step: setattr(node, "value", node.value + step))


def _set_op(node, i, new):
    if isinstance(node, ast.Compare):
        node.ops[i] = new
    else:
        node.op = new


def run_tests(work: Path, tests: list[str]) -> bool:
    """Whether the copy's tests pass."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("module", help="path of the module, from the repository root")
    p.add_argument("functions", nargs="+", help="functions or methods to mutate")
    p.add_argument("--tests", nargs="+", required=True, help="test files the mutants face")
    p.add_argument("--list", action="store_true", help="list the mutants and run nothing")
    p.add_argument("--pick", type=int, nargs="+", help="run only these mutant numbers")
    p.add_argument("--workdir", help="where the copy goes (default: a new temporary directory)")
    args = p.parse_args()
    source = (ROOT / args.module).read_text()
    mutants = list(sites(ast.parse(source), set(args.functions)))
    picked = args.pick if args.pick is not None else range(len(mutants))
    if args.list:
        for k in picked:
            print(k, *mutants[k][:3])
        return 0
    work = Path(tempfile.mkdtemp(dir=args.workdir))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)
    target = work / args.module
    target.write_text(ast.unparse(ast.parse(source)))
    if not run_tests(work, args.tests):
        print("the unmutated rewrite fails its tests", file=sys.stderr)
        return 1
    survived = 0
    for k in picked:
        tree = ast.parse(source)
        fn, line, what, apply = list(sites(tree, set(args.functions)))[k]
        apply()
        target.write_text(ast.unparse(tree))
        killed = not run_tests(work, args.tests)
        survived += not killed
        print(f"{k} {'killed' if killed else 'SURVIVED'} {fn}:{line} {what}", flush=True)
    print(f"{len(picked)} mutants, {survived} survived")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
