"""Mutation harness: each kernel below, mutated one operator at a time, must
fail the tests that reach it.

    python tools/mutants.py

Each mutant makes one change inside one kernel's function body: it swaps a
`+` for `-` (or back), turns `*` into `//`, moves one comparison across its
boundary (`<` and `<=`, `>` and `>=`, `==` and `!=`), or adds 1 to one integer
constant.  The mutated module is written into a scratch copy of `src/` and
`tests/`, and the kernel's fixed list of test node ids runs there with
`-x --hypothesis-seed=0` and a fresh Hypothesis database, so a kill does not
depend on luck or on an earlier run.  A mutant that the tests fail, or that
outlives its time limit, is killed.

The run fails when the unmutated tests fail, when a mutant survives that
`EQUIVALENT` does not list, or when an `EQUIVALENT` entry names no mutant any
more.  Standard library only; the tests need pytest and hypothesis.
"""
from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# kernel -> (module file under src/lieconf, function name, test node ids)
KERNELS = {
    "reps.decompose_weight_system": (
        "reps.py",
        "decompose_weight_system",
        [
            "tests/test_reps.py::TestProductSystems",
            "tests/test_reps.py::TestFractionOracle::test_peel_matches_fraction_peel_on_dual_pair_grid",
            "tests/test_reps.py::TestSquares",
            "tests/test_embed.py::TestVerifyAdjointBranching",
        ],
    ),
    "conformal._real_roots": (
        "conformal.py",
        "_real_roots",
        [
            "tests/test_conformal.py::TestRealRootsAgainstDivisorSearch",
            "tests/test_conformal.py::TestRationalRoots",
            "tests/test_conformal.py::TestSolveLevels",
            "tests/test_conformal.py::TestLevelPolynomial",
        ],
    ),
}

# (kernel, source line, mutated line) -> why no input can tell them apart
EQUIVALENT = {
    (
        "conformal._real_roots",
        "s = isqrt(max(disc, 0))",
        "s = isqrt(max(disc, 1))",
    ): "disc = 0 then gives d = 0, which QuadraticNumber reads as rational; disc < 0 adds no root",
    (
        "reps.decompose_weight_system",
        "if m < 0:",
        "if m <= 0:",
    ): "remaining never holds a zero: zeros are dropped on entry and deleted when reached",
    (
        "reps.decompose_weight_system",
        "if m < 0:",
        "if m < 1:",
    ): "m is a nonzero integer, so m < 1 is m < 0",
}

# operator -> (its spelling, the mutant's)
SWAPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
}


class Mutant(NamedTuple):
    start: int  # byte offsets of the replaced text in the module source
    end: int
    text: bytes
    line: int


def mutants(source: bytes, function: str) -> list[Mutant]:
    """Every single-operator mutant of `function`'s body, in source order."""
    tree = ast.parse(source)
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def mutant(lo: int, hi: int, text: str) -> Mutant:
        return Mutant(lo, hi, text.encode(), bisect_right(starts, lo))

    def swap(op: ast.AST, left: ast.expr, right: ast.expr) -> Mutant:
        # the operator is the first spelling of it between the operands that
        # is not part of a longer operator (`*` of `**`, `<` of `<=`)
        symbol, text = SWAPS[type(op)]
        lo = starts[left.end_lineno - 1] + left.end_col_offset
        gap = source[lo:starts[right.lineno - 1] + right.col_offset].decode()
        i = next(i for i in range(len(gap))
                 if gap.startswith(symbol, i) and gap[i + len(symbol):][:1] not in "=*/<>")
        return mutant(lo + i, lo + i + len(symbol), text)

    found = []
    for node in ast.walk(ast.Module(body=func.body, type_ignores=[])):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(swap(node.op, node.left, node.right))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            found += [swap(op, a, b) for op, a, b in zip(node.ops, sides, sides[1:]) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo = starts[node.lineno - 1] + node.col_offset
            found.append(mutant(lo, starts[node.end_lineno - 1] + node.end_col_offset, str(node.value + 1)))
    return sorted(found)


def apply(source: bytes, m: Mutant) -> bytes:
    return source[:m.start] + m.text + source[m.end:]


def describe(source: bytes, m: Mutant) -> tuple[str, str]:
    """(source line, mutated line), stripped."""
    before = source.splitlines()[m.line - 1].decode().strip()
    after = apply(source, m).splitlines()[m.line - 1].decode().strip()
    return before, after


def run_tests(work: Path, nodes: list[str], timeout: float) -> tuple[str, float]:
    """("passed", "failed" or "timeout", seconds) for the node ids in the
    scratch copy, with a fresh Hypothesis database."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *nodes]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return "passed" if done.returncode == 0 else "failed", time.perf_counter() - start


def check_kernel(name: str, works: "queue.Queue[Path]", jobs: int) -> list[str]:
    """Run one kernel's mutants, `jobs` at a time; return its failures."""
    module, function, nodes = KERNELS[name]
    relative = Path("src", "lieconf", module)
    work = works.get()
    source = (work / relative).read_bytes()
    status, base = run_tests(work, nodes, timeout=600)
    works.put(work)
    if status != "passed":
        return [f"{name}: the unmutated tests fail ({status})"]
    found = mutants(source, function)
    keys = [(name, *describe(source, m)) for m in found]
    # a mutant may loop (a peel that never empties); allow it well above the
    # clean run before counting it killed
    limit = max(30.0, 5 * base)

    def run_one(m: Mutant) -> tuple[str, float]:
        work = works.get()
        try:
            (work / relative).write_bytes(apply(source, m))
            return run_tests(work, nodes, limit)
        finally:
            (work / relative).write_bytes(source)
            works.put(work)

    failures = []
    with ThreadPoolExecutor(jobs) as pool:
        for m, key, (status, seconds) in zip(found, keys, pool.map(run_one, found)):
            verdict = {"failed": "killed", "timeout": "timed out"}.get(status, "survived")
            if status == "passed" and key in EQUIVALENT:
                verdict = "equivalent"
            elif status == "passed":
                failures.append(f"{name}:{m.line}: unlisted survivor  {key[1]}  ->  {key[2]}")
            print(f"  {verdict:10} {seconds:5.1f} s  {name}:{m.line}: {key[1]}  ->  {key[2]}",
                  flush=True)
    print(f"{name}: {len(found)} mutants, {len(failures)} unlisted survivors "
          f"(clean run {base:.1f} s)", flush=True)
    stale = [k for k in EQUIVALENT if k[0] == name and k not in keys]
    failures += [f"{name}: EQUIVALENT names no mutant: {k[1]}  ->  {k[2]}" for k in stale]
    return failures


def main() -> int:
    # each job is one pytest process in its own scratch copy
    jobs = min(2, os.cpu_count() or 1)
    failures = []
    with tempfile.TemporaryDirectory(prefix="lieconf-mutants-") as tmp:
        works: "queue.Queue[Path]" = queue.Queue()
        for i in range(jobs):
            work = Path(tmp, str(i))
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
            works.put(work)
        for name in KERNELS:
            failures += check_kernel(name, works, jobs)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
