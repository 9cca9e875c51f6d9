"""Mutation sweep of latticemix modules against the tier-1 suite.

    PYTHONPATH=src python tests/mutate.py spectral oscsums [--jobs 2] [--list]

Each mutant changes one site of one module: it flips a comparison
(< and <=, > and >=, == and !=), swaps + and -, or * and / (in augmented
assignments too), swaps `and` and `or`, or adds 1 to a numeric constant.
The module is parsed with the stdlib ast module, the one site is changed and
the tree is written back with ast.unparse into a copy of src/, tests/,
bench/ (the golden test reads its environment record) and pyproject.toml in
a temporary directory, where tier-1 runs with -x.  A mutant that the suite
passes survives.  Survivors listed in tests/mutate_equivalent.json are known
equivalent mutants, each with the reason it cannot change a result; the
others are reported as new.  A site's name is its module, enclosing
function and source text before and after, so the list does not depend on
line numbers.  A mutant that runs five times as long as the unmutated suite
is stopped and reported as a timeout.  --list prints the sites without
running anything.  Each worker (--jobs) runs one pytest process at a time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).with_name("mutate_equivalent.json")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]

_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
          ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}


def _mutate(node: ast.AST):
    """Apply each mutation of this node alone in turn, yielding while it is applied."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                node.ops[i] = _SWAPS[type(op)]()
                yield
                node.ops[i] = op
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        op = node.op
        node.op = _SWAPS[type(op)]()
        yield
        node.op = op
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):   # not bool
        value = node.value
        node.value = value + 1
        yield
        node.value = value


def _scopes(tree: ast.AST):
    """Each node with the dotted name of the function, class or module constant around it."""
    stack = [(tree, "<module>")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        for child in reversed(list(ast.iter_child_nodes(node))):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif (scope == "<module>" and isinstance(child, ast.Assign)
                  and isinstance(child.targets[0], ast.Name)):
                inner = child.targets[0].id
            stack.append((child, inner))


def sites(module: str) -> list[tuple[str, str]]:
    """(name, mutated source) of every mutant of src/latticemix/<module>.py."""
    source = (ROOT / "src" / "latticemix" / f"{module}.py").read_text()
    tree = ast.parse(source)
    out, seen = [], {}
    for node, scope in _scopes(tree):
        before = " ".join((ast.get_source_segment(source, node) or ast.unparse(node)).split())
        for _ in _mutate(node):
            name = f"{module}:{scope}: {before} -> {ast.unparse(node)}"
            mutated = ast.unparse(tree)
            seen[name] = seen.get(name, 0) + 1
            out.append((name if seen[name] == 1 else f"{name} #{seen[name]}", mutated))
    return out


def _run(work: Path, module: str, mutated: str, timeout: float | None) -> str:
    target = work / "src" / "latticemix" / f"{module}.py"
    original = target.read_text()
    target.write_text(mutated)
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(PYTEST + [str(work / "tests")], cwd=work, env=env,
                              capture_output=True, timeout=timeout)
        return "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_text(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/latticemix")
    parser.add_argument("--jobs", type=int, default=1, help="pytest processes at a time")
    parser.add_argument("--list", action="store_true", help="print the sites and stop")
    args = parser.parse_args(argv)
    known = json.loads(EQUIVALENT.read_text())
    mutants = [(module, *site) for module in args.modules for site in sites(module)]
    if args.list:
        print("\n".join(name for _, name, _ in mutants))
        return 0
    workdirs = []
    for _ in range(max(1, args.jobs)):
        work = Path(tempfile.mkdtemp(prefix="mutate-"))
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)     # tier-1's options
        workdirs.append(work)
    free, start, tally = queue.Queue(), time.perf_counter(), {}
    for work in workdirs:
        free.put(work)

    def one(mutant, timeout):
        module, name, mutated = mutant
        work = free.get()
        try:
            return module, name, _run(work, module, mutated, timeout)
        finally:
            free.put(work)

    try:
        # the unmutated modules, written back the same way, must pass; a
        # mutant that takes five times as long is stopped (a timeout)
        for module in args.modules:
            source = (ROOT / "src" / "latticemix" / f"{module}.py").read_text()
            if _run(workdirs[0], module, ast.unparse(ast.parse(source)), None) != "survived":
                print(f"tier-1 fails on the unmutated {module}; no sweep run", file=sys.stderr)
                return 1
        timeout = 5.0 * (time.perf_counter() - start) / len(args.modules)
        with ThreadPoolExecutor(len(workdirs)) as pool:
            futures = [pool.submit(one, mutant, timeout) for mutant in mutants]
            for done, future in enumerate(as_completed(futures), 1):
                module, name, status = future.result()
                if status == "survived" and name in known:
                    status = "equivalent"
                if status != "killed":
                    note = f"  ({known[name]})" if name in known else ""
                    print(f"{status}: {name}{note}", flush=True)
                counts = tally.setdefault(module, {})
                counts[status] = counts.get(status, 0) + 1
                if done % 25 == 0:
                    print(f"{done} of {len(mutants)} mutants run", file=sys.stderr, flush=True)
    finally:
        for work in workdirs:
            shutil.rmtree(work, ignore_errors=True)
    for module, counts in tally.items():
        print(f"{module}: {sum(counts.values())} mutants, "
              + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    print(f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
