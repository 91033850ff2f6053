"""Single mutants of `nogosuper` modules against the tier-1 suite.

    python tools/mutants.py text pipeline [--sample N] [--seed S] [--jobs J]
                            [--match TEXT]

Each mutant changes one node of one module's source:
  - a comparison moved across its boundary: < and <=, > and >=, == and !=;
  - + and - swapped, * and / swapped (augmented assignments too);
  - a numeric constant nudged: 0 to 1e-3 (0 to 1 for an int), an int n to
    n + 1, any other float x to 1.5 x;
  - a `not` or a unary minus dropped.
Every other byte of the module stays as it is. `--sample N` draws N of the
named modules' mutants, seeded, in source order; by default all of them run.
`--match TEXT` (repeatable) keeps those whose printed line, such as
`text.py:184  < -> <=`, contains one of the texts, to run survivors again.

The repository, without `.git` and `bench/`, is copied once per job into a
temporary directory, removed when the run ends, and the suite runs there on
an unmutated copy first. Each mutant is then written into a copy and the
suite runs with `-x` under `TIMEOUT` seconds: the mutant is killed when the
suite fails, hung when it times out, and it survives when the suite passes.
The script prints a line per mutant, then the survivors and the hung
mutants, and exits 1 if there are any. The repository itself is never
written.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "nogosuper")
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult}
TIMEOUT = 120.0  # seconds per suite run; the unmutated suite takes about 12
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


@dataclass(frozen=True)
class Mutant:
    module: str
    line: int
    start: int  # byte offsets of the replaced span in the module's source
    end: int
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line}  {self.old} -> {self.new}"

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.new.encode() + source[self.end:]


def mutants(module: str, source: bytes) -> list[Mutant]:
    """Every single mutant of one module's source, in source order."""
    tree = ast.parse(source)
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return line_starts[line - 1] + col

    def start(node):
        return offset(node.lineno, node.col_offset)

    def end(node):
        return offset(node.end_lineno, node.end_col_offset)

    def operator(op, gap_start: int, gap_end: int, line: int) -> Mutant:
        """The swap of `op`, found as its symbol between two operands."""
        gap, symbol = source[gap_start:gap_end].decode(), SYMBOLS[type(op)]
        code = "\n".join(row[:row.find("#")].ljust(len(row)) if "#" in row else row
                         for row in gap.split("\n"))  # comments blanked, offsets kept
        at = gap_start + len(gap[:code.index(symbol)].encode())
        return Mutant(module, line, at, at + len(symbol), symbol, SYMBOLS[SWAPS[type(op)]])

    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(operator(node.op, end(node.left), start(node.right), node.lineno))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            found.append(operator(node.op, end(node.target), start(node.value), node.lineno))
        elif isinstance(node, ast.Compare):
            for op, left, right in zip(node.ops, [node.left, *node.comparators],
                                       node.comparators):
                if type(op) in SWAPS:
                    found.append(operator(op, end(left), start(right), left.end_lineno))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            keep = source[start(node.operand):end(node.operand)].decode()
            found.append(Mutant(module, node.lineno, start(node), end(node),
                                source[start(node):end(node)].decode(), keep))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = node.value
            nudged = (1e-3 if value == 0 else 1.5 * value) if type(value) is float else value + 1
            found.append(Mutant(module, node.lineno, start(node), end(node),
                                source[start(node):end(node)].decode(), repr(nudged)))
    return sorted(found, key=lambda m: (m.start, m.end))


def run_suite(copy: Path) -> tuple[str, float]:
    """The outcome, "killed", "survived" or "hung", and the suite's seconds."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    began = time.monotonic()
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung", time.monotonic() - began
    return ("survived" if code == 0 else "killed"), time.monotonic() - began


def run_all(chosen: list[Mutant], sources: dict[str, bytes], workdir: Path,
            jobs: int) -> list[tuple[Mutant, str]] | None:
    """Each mutant's outcome, or None when the unmutated copy does not pass."""
    copies: Queue[Path] = Queue()
    for job in range(jobs):
        copy = workdir / f"copy{job}"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "bench", "__pycache__", ".hypothesis", ".pytest_cache", "*.csv"))
        copies.put(copy)
    baseline, seconds = run_suite(workdir / "copy0")
    if baseline != "survived":
        print(f"the unmutated copy does not pass ({baseline}); no mutant run", file=sys.stderr)
        return None
    print(f"unmutated suite: {seconds:.1f} s", flush=True)

    def run(mutant: Mutant) -> tuple[Mutant, str]:
        copy = copies.get()
        target = copy / PACKAGE / f"{mutant.module}.py"
        try:
            target.write_bytes(mutant.apply(sources[mutant.module]))
            outcome, seconds = run_suite(copy)
        finally:
            target.write_bytes(sources[mutant.module])
            copies.put(copy)
        print(f"{outcome:8}  {seconds:5.1f} s  {mutant}", flush=True)
        return mutant, outcome

    with ThreadPoolExecutor(jobs) as executor:
        return list(executor.map(run, chosen))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/nogosuper")
    parser.add_argument("--sample", type=int, default=None, help="mutants to draw (default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1, help="suites run at once, one copy each")
    parser.add_argument("--match", action="append", help="keep mutants whose line has TEXT")
    args = parser.parse_args(argv)

    sources = {m: (ROOT / PACKAGE / f"{m}.py").read_bytes() for m in args.modules}
    pool = [m for name, source in sources.items() for m in mutants(name, source)
            if not args.match or any(text in str(m) for text in args.match)]
    chosen = pool
    if args.sample is not None and args.sample < len(pool):
        picked = set(random.Random(args.seed).sample(range(len(pool)), args.sample))
        chosen = [m for i, m in enumerate(pool) if i in picked]
    print(f"{len(chosen)} of {len(pool)} mutants of {', '.join(args.modules)}", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        results = run_all(chosen, sources, Path(workdir), max(1, args.jobs))
    if results is None:
        return 2
    for outcome in ("survived", "hung"):
        listed = [m for m, o in results if o == outcome]
        print(f"\n{outcome}: {len(listed)}" + "".join(f"\n  {m}" for m in listed))
    killed = sum(o == "killed" for _, o in results)
    print(f"\nkilled {killed} of {len(results)}")
    return 1 if killed < len(results) else 0


if __name__ == "__main__":
    sys.exit(main())
