#!/usr/bin/env python3
"""Benchmark of the ``nogo`` command line, one workload per process.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run is a closed loop with one client: each op is one in-process call to
``nogosuper.cli.main(argv)`` writing its report (and scan CSV) to a scratch
directory under ``bench/out``. Inputs are generated from the seed before
timing starts; every op is checked against a numpy oracle after it returns,
outside the timed region. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` times the same ops untraced and then traced and prints the
per-layer metrics. The last stdout line is one JSON object; a full record
with the environment goes to ``bench/out``. ``--workload all`` runs every
workload both ways in fresh processes and writes ``bench/out/BENCH_<id>.json``.
"""

import os

# Every matrix is at most 16 x 16 (or a batch of 3 x 3), where BLAS threads
# only add synchronisation, so one thread; set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 15
# stop starting ops after this long, so a run ends well within 180 s
DEADLINE_S = 140.0
EXIT_USAGE = 2


@dataclass
class OpResult:
    latency_s: float
    problems: list[str]
    facts: dict = field(default_factory=dict)


def load_cli():
    """Import nogosuper.cli from this checkout's src/, not from an installed copy."""
    sys.path.insert(0, str(SRC))
    import nogosuper.cli

    if not Path(nogosuper.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported nogosuper from {nogosuper.cli.__file__}, not {SRC}")
    return nogosuper.cli


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing nogosuper and its CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nogosuper, nogosuper.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _quiesce() -> None:
    """Collect, then freeze what survives, so that garbage collections inside
    timed calls walk the program's objects, not the runner's plan and results."""
    gc.collect()
    gc.freeze()


def _invoke(cli, argv: list[str]) -> tuple[object, str]:
    """Exit code of one CLI call and what it wrote to stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(list(argv)), err.getvalue()
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code, err.getvalue()
    except Exception:  # an escaped exception fails the op, not the run
        return None, traceback.format_exc(limit=3)


FACT_KEYS = ("work", "out_bytes", "grid_points", "demo_trials", "superposer_failures",
             "conclusive", "conclusive_attempts")


def _facts(kind: str, result: dict, out_bytes: int) -> dict:
    """What one checked report says about the work done, for the metrics."""
    f = dict.fromkeys(FACT_KEYS, 0)
    f.update(work=1, out_bytes=out_bytes)
    if kind == "usd":
        f["conclusive"] = result["trials"] - result["inconclusive_count"]
        f["conclusive_attempts"] = result["trials"]
    elif kind == "scan":
        f["work"] = f["grid_points"] = result["grid_points"]
    elif kind == "demo":
        f["work"] = f["demo_trials"] = result["trials"]
        f["superposer_failures"] = result["superposer_failures"]
        f["conclusive"] = sum(result["conclusive_counts"])
        f["conclusive_attempts"] = result["trials"] - result["superposer_failures"]
    return f


def run_ops(cli, plan: workloads.Plan, ops: list, started: float) -> list[OpResult]:
    """Run `ops` in order, timing each call and checking its outputs."""
    results = []
    for op in ops:
        if time.perf_counter() - started > DEADLINE_S:
            break
        for path in (plan.report, plan.csv):
            if os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        code, error = _invoke(cli, op.argv)
        latency = time.perf_counter() - start
        if code != 0:
            results.append(OpResult(latency, [f"exit code {code} {error}".strip()]))
            continue
        try:
            with open(plan.report) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            results.append(OpResult(latency, [f"unreadable report: {exc}"]))
            continue
        problems = checks.check(op, report, plan.csv)
        out_bytes = os.path.getsize(plan.report)
        if op.kind == "scan" and os.path.exists(plan.csv):
            out_bytes += os.path.getsize(plan.csv)
        facts = {} if problems else _facts(op.kind, report["result"], out_bytes)
        results.append(OpResult(latency, problems, facts))
    return results


def run_traced(cli, plan: workloads.Plan, started: float):
    """Run every op once untraced and once traced, back to back in alternating
    order, so that drift in machine speed cancels out of the tracing overhead."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    for i, op in enumerate(plan.ops):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                untraced += run_ops(cli, plan, [op], started)
                continue
            tracer.op = i
            tracer.install()
            try:
                traced += run_ops(cli, plan, [op], started)
            finally:
                tracer.uninstall()
    return untraced, traced, tracer


def end_to_end(results: list[OpResult], setup_s: float) -> tuple[dict, dict]:
    lat_ms = sorted(r.latency_s * 1e3 for r in results)
    n = len(lat_ms)
    ok = [r for r in results if not r.problems]
    tail_rank = max(n - 11, 0)  # the highest rank with at least 10 ops above it
    metrics = {
        "setup_s": setup_s,
        "work_per_s": sum(r.facts["work"] for r in ok) / sum(r.latency_s for r in results),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": lat_ms[tail_rank],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / n,
    }
    extra = {"ops": n, "op_tail_percentile": 100.0 * (tail_rank + 1) / n,
             "failed_frac": 1.0 - len(ok) / n}
    return metrics, extra


def summed_facts(results: list[OpResult]) -> dict:
    return {key: sum(r.facts.get(key, 0) for r in results) for key in FACT_KEYS}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nogosuper").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_requested": BLAS_THREADS, "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def _failures(ops, results) -> list[dict]:
    return [{"op": i, "argv": op.argv, "problems": r.problems}
            for i, (op, r) in enumerate(zip(ops, results)) if r.problems][:20]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    cli = load_cli()
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    round_s = workloads.ROUND_S[workload] * (2 if trace else 1)
    rounds = max(1, round(seconds / round_s))
    workdir = OUT / f"tmp-{workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        plan = workloads.build(workload, seed, rounds, workdir)
        for path, text in plan.inputs.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)
        measure_setup()  # the first start also compiles bytecode
        run_ops(cli, plan, plan.warmup, started)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "rounds": rounds, "planned_ops": len(plan.ops)}
        if trace:
            _quiesce()
            results, traced, tracer = run_traced(cli, plan, started)
            paired = min(len(results), len(traced))
            metrics, absent = spans.layer_metrics(
                tracer, summed_facts(traced), sum(r.latency_s for r in traced[:paired]),
                sum(r.latency_s for r in results[:paired]))
            span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(str(span_file))
            record.update(absent=absent, span_file=str(span_file.relative_to(ROOT)),
                          spans=len(tracer.spans))
            failures = _failures(plan.ops, results) + _failures(plan.ops, traced)
            results = results + traced
        else:
            # set-up samples spread over the run, so a slow spell of the
            # machine touches few of them
            setup, results = [], []
            for chunk in np.array_split(np.arange(len(plan.ops)), SETUP_SAMPLES):
                setup.append(measure_setup())
                _quiesce()
                results += run_ops(cli, plan, [plan.ops[i] for i in chunk], started)
            metrics, extra = end_to_end(results, statistics.median(setup))
            record.update(extra, latencies_ms=[r.latency_s * 1e3 for r in results])
            failures = _failures(plan.ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           "do not match BENCHMARK.json")
    failed = sum(1 for r in results if r.problems)
    record.update(environment=environment(seed), failures=failures,
                  wall_s=time.perf_counter() - started)
    line = {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared.items()}}
    record["result"] = line
    return record


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    combined = {"environment": environment(seed), "seed": seed, "seconds": seconds,
                "workloads": {}}
    for workload in workloads.WORKLOADS:
        entry = combined["workloads"][workload] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"error: {workload} --trace {trace} failed:\n{proc.stderr}")
            print("\n".join(lines[:-1]))
            entry["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
    label = (combined["environment"]["git_commit"]
             or combined["environment"]["src_sha256"])[:12]
    path = OUT / f"BENCH_{label}.json"
    path.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nogosuper" / "cli.py").is_file():
        print(f"error: {SRC / 'nogosuper'} not found; run from a full checkout", file=sys.stderr)
        return EXIT_USAGE
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        combined = run_all(args.seed, args.seconds)
        lines = [e[k] for e in combined["workloads"].values() for k in e]
        failed = sum(line["failed"] for line in lines)
        attempted = sum(line["attempted"] for line in lines)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    line = record["result"]
    print_table(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
                f"{line['attempted']} ops, {line['failed']} failed", line["metrics"])
    for failure in record["failures"][:5]:
        print(f"  FAILED op {failure['op']}: {'; '.join(failure['problems'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
