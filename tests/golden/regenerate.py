"""Rewrite the golden-report fixture, `reports.json`, from the current tree.

Each case is one `nogo` command line with `--deterministic` and an explicit
`--seed`, run in process through `nogosuper.cli.main` in an empty directory.
Its states file and scan CSV have relative names, so the paths in `config`
and `result` do not depend on where it runs. The fixture stores each case's
argv and input files with what it produced: the exit code, the parsed JSON
report and, for a scan, the CSV's row count, a fixed sample of its rows and
every row of rank below 3.
`tests/test_golden.py` replays the stored cases against that record.

A change that moves report floats on purpose reruns this script and says so,
with the diff summary it prints. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite the fixture
    PYTHONPATH=src python tests/golden/regenerate.py --check  # exit 1 if a case moved

`--check` runs every case and prints the same summary, "no change" when
nothing moved, but writes nothing. A case that only gained report keys
reads "NAME: only added keys: /report/result/diagnostics, ...", so a
change that should only add keys can be told from one that moved a value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from nogosuper.cli import main

FIXTURE = Path(__file__).with_name("reports.json")
CSV_SAMPLE_STEP = 97  # every 97th data row, and the last one

_LOCUS = ["--a", "0.6", "--b", "0.8", "--theta2", repr(math.pi / 2),
          "--theta3", repr(math.atan2(0.8, 0.6))]
_PIPELINE = ["--a", "-0.6", "--b", "0.8", "--alpha-mod", "0.8", "--alpha-arg", "0.3",
             "--beta-mod", "0.6", "--beta-arg", "-1.1"]


def _random_states(seed: int, n: int, dim: int) -> list:
    """n generic complex states in C^dim as [re, im] pairs, not normalized."""
    z = np.random.default_rng(seed).standard_normal((n, dim, 2))
    return z.tolist()


def _cases() -> dict[str, dict]:
    """name -> {"argv": [...], "files": {relative name: contents}}."""
    cases = {}
    for policy in ("constant", "overlap_arg", "canonical_hash"):
        cases[f"verify-d3-{policy}"] = ["verify", *_PIPELINE, "--phase-policy", policy,
                                        "--theta0", "0.4"]
    cases["verify-d16-canonical_hash"] = ["verify", *_PIPELINE, "--dim", "16",
                                          "--phase-policy", "canonical_hash"]
    cases["verify-locus"] = ["verify", *_LOCUS]
    for dim, phase in (("3", "constant"), ("4", "canonical_hash")):
        for success in ("always", "constant", "overlap_scaled"):
            cases[f"demo-d{dim}-{success}"] = [
                "demo", *_PIPELINE, "--dim", dim, "--phase-policy", phase, "--theta0", "1.3",
                "--success-policy", success, "--success-p", "0.7", "--trials", "5000"]
    cases["demo-locus"] = ["demo", *_LOCUS, "--trials", "1000"]
    cases["scan-step-0.1"] = ["scan", *_PIPELINE, "--grid-step", "0.1", "--csv", "grid.csv"]
    # (a, b) = (cos, sin)(pi/3): the 1 degree grid holds both analytic pairs
    cases["scan-locus"] = ["scan", "--a", "0.5", "--b", "0.8660254037844386", "--csv", "grid.csv"]
    # a = 1e-7: the closure w3 = a + b w2 stays within the rank tolerance along
    # the whole diagonal theta31 = theta21, so all 63 of its points are detected
    cases["scan-thick-locus"] = ["scan", "--a", "1e-7", "--b", "1", "--grid-step", "0.1",
                                 "--csv", "grid.csv"]
    cases = {name: {"argv": argv, "files": {}} for name, argv in cases.items()}

    sq2 = 1.0 / math.sqrt(2.0)
    cases["usd-zero-plus"] = {
        "argv": ["usd", "states.json", "--truth-index", "1", "--trials", "5000"],
        "files": {"states.json": json.dumps([[[1, 0], [0, 0]], [[sq2, 0], [sq2, 0]]])}}
    cases["usd-n4-d6"] = {
        "argv": ["usd", "states.json", "--truth-index", "2", "--trials", "5000"],
        "files": {"states.json": json.dumps(_random_states(6, 4, 6))}}
    cases["usd-n8-d16"] = {  # the largest usd op the benchmark runs
        "argv": ["usd", "states.json", "--truth-index", "5", "--trials", "5000"],
        "files": {"states.json": json.dumps(_random_states(8, 8, 16))}}
    for case in cases.values():
        case["argv"] += ["--seed", "7", "--deterministic"]
    return cases


def run_case(case: dict, workdir: str | Path) -> dict:
    """Run one case in `workdir`, which should be empty, and return its
    record: exit code, report (None when none was written) and, when the
    case writes a CSV, its row count, sampled rows and rows of rank below 3."""
    workdir = Path(workdir)
    for name, text in case["files"].items():
        (workdir / name).write_text(text)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        code = main([*case["argv"], "--output", "report.json"])
    finally:
        os.chdir(here)
    report = workdir / "report.json"
    record = {"exit_code": code,
              "report": json.loads(report.read_text()) if report.exists() else None}
    csv = workdir / "grid.csv"
    if csv.exists():
        lines = csv.read_text().splitlines()
        rows = lines[1::CSV_SAMPLE_STEP] + lines[-1:]
        record["csv"] = {"header": lines[0], "row_count": len(lines) - 1, "sample": rows,
                         "deficient": [row for row in lines[1:] if not row.endswith(",3")]}
    return record


def regenerate() -> dict:
    golden = {}
    for name, case in _cases().items():
        with tempfile.TemporaryDirectory() as workdir:
            golden[name] = {**case, **run_case(case, workdir)}
    return golden


def _split(x, path="", floats=None):
    """(x with every float replaced by None, {path: float}). A stored CSV
    row is split into its fields: theta21 and theta31 stay text, so they
    must match exactly, the sigma is a float and the rank an int."""
    floats = {} if floats is None else floats
    if path in ("/csv/sample", "/csv/deficient"):
        x = [[t21, t31, float(sigma), int(rank)]
             for t21, t31, sigma, rank in (row.split(",") for row in x)]
    if isinstance(x, dict):
        return {k: _split(v, f"{path}/{k}", floats)[0] for k, v in x.items()}, floats
    if isinstance(x, list):
        return [_split(v, f"{path}/{i}", floats)[0] for i, v in enumerate(x)], floats
    if isinstance(x, float):
        floats[path] = x
        return None, floats
    return x, floats


def _differing_paths(a, b, path=""):
    """The paths at which the float-free records a and b differ, in order: each
    leaf that differs as its path, then each key that only b holds as "added
    PATH" and each that only a holds as "removed PATH". A list whose length
    differs counts as one leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        return ([p for k in a if k in b for p in _differing_paths(a[k], b[k], f"{path}/{k}")]
                + [f"added {path}/{k}" for k in b if k not in a]
                + [f"removed {path}/{k}" for k in a if k not in b])
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _differing_paths(x, y, f"{path}/{i}")]
    return [] if type(a) is type(b) and a == b else [path]


def _shown(paths: list[str]) -> str:
    return ", ".join(paths[:4]) + (", ..." if len(paths) > 4 else "")


def _summary(old: dict, new: dict) -> str:
    """Which cases changed, the largest absolute, relative and ulp float move
    in each, and the first few other paths that differ; "only added keys" for
    a case whose every difference is a key that only the new record holds."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) == new.get(name):
            continue
        if name not in old or name not in new:
            lines.append(f"{name}: {'added' if name in new else 'removed'}")
            continue
        (rest_old, before), (rest_new, after) = _split(old[name]), _split(new[name])
        moved = [k for k in before.keys() & after.keys() if after[k] != before[k]]
        differ = _differing_paths(rest_old, rest_new)
        added = [p.removeprefix("added ") for p in differ if p.startswith("added ")]
        if differ and not moved and len(added) == len(differ):
            lines.append(f"{name}: only added keys: {_shown(added)}")
            continue
        absolute = max((abs(after[k] - before[k]) for k in moved), default=0.0)
        relative = max((abs(after[k] - before[k]) / abs(before[k]) if before[k] else math.inf
                        for k in moved), default=0.0)
        ulps = max((abs(after[k] - before[k]) / math.ulp(before[k]) for k in moved), default=0.0)
        lines.append(f"{name}: {len(moved)} floats moved, largest {absolute:.3g} "
                     f"(relative {relative:.3g}, {ulps:.3g} ulps); everything else "
                     + (f"DIFFERS at {len(differ)} paths: {_shown(differ)}" if differ
                        else "equal"))
    return "\n".join(lines) or "no change"


def run_script(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or check the golden reports.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the fixture and write nothing; exit 1 if a case moved")
    args = parser.parse_args(argv)
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    new = regenerate()
    summary = _summary(old, new)
    print(summary)
    if args.check:
        return 0 if summary == "no change" else 1
    FIXTURE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(run_script())
