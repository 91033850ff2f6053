"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import re
import shutil

import pytest

import checks
import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture
def workdir(request):
    path = run.OUT / f"test-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _plan(workload, workdir, seed=3, rounds=1):
    plan = workloads.build(workload, seed, rounds, workdir)
    for path, text in plan.inputs.items():
        run.Path(path).parent.mkdir(parents=True, exist_ok=True)
        run.Path(path).write_text(text)
    return plan


def test_metric_names_are_well_formed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_emits_every_metric(cli, workdir, workload):
    plan = _plan(workload, workdir)
    started = run.time.perf_counter()
    results = run.run_ops(cli, plan, plan.warmup, started)
    assert all(not r.problems for r in results), [r.problems for r in results]
    metrics, _ = run.end_to_end(results, setup_s=0.2)
    assert set(metrics) == set(run.declared_metrics()["end_to_end"])

    original_main = cli.main
    plan.ops = plan.warmup
    untraced, traced, tracer = run.run_traced(cli, plan, started)
    assert cli.main is original_main
    assert len(untraced) == len(traced) == len(plan.warmup)
    layer, absent = spans.layer_metrics(tracer, run.summed_facts(traced), 1.0, 1.0)
    assert set(layer) == set(run.declared_metrics()["per_layer"])
    assert absent == []
    assert layer["cli.calls"] >= len(plan.warmup)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_fixes_argv_and_inputs(workload):
    a = workloads.build(workload, 11, 2, "w")
    b = workloads.build(workload, 11, 2, "w")
    c = workloads.build(workload, 12, 2, "w")
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert a.inputs == b.inputs
    assert [op.argv for op in a.ops] != [op.argv for op in c.ops]


def _run_one(cli, plan, op):
    code, err = run._invoke(cli, op.argv)
    assert code == 0, err
    with open(plan.report) as fh:
        return json.load(fh)


def test_checker_flags_perturbed_usd_element(cli, workdir):
    plan = _plan("certify", workdir)
    op = next(op for op in plan.ops if op.kind == "usd")
    report = _run_one(cli, plan, op)
    assert checks.check(op, report, plan.csv) == []
    report["result"]["elements"][0][1][0] += 1e-3
    assert checks.check(op, report, plan.csv)


def test_checker_flags_dropped_csv_row(cli, workdir):
    plan = _plan("scan", workdir)
    op = plan.warmup[0]
    report = _run_one(cli, plan, op)
    assert checks.check(op, report, plan.csv) == []
    with open(plan.csv) as fh:
        lines = fh.readlines()
    with open(plan.csv, "w") as fh:
        fh.writelines(lines[:5] + lines[6:])
    assert any("rows" in p for p in checks.check(op, report, plan.csv))
