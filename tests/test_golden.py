"""Golden reports: one deterministic run per op class, replayed against the
record in `tests/golden/reports.json`.

Keys, ints, strings, bools, nulls and exit codes must match exactly; floats
within rtol=1e-12 plus atol=1e-13, the atol for round-off-level values such
as a dependent set's residual (about 1e-16). Bytes depend on the numpy and
BLAS build, so they are not compared with the record; each report's text is
held to `json.dumps(indent=2, sort_keys=True)` of its own parse instead, and
each stored CSV row to the `repr` of its own parsed fields.
`tests/golden/regenerate.py` rewrites the record.
"""

import json
from pathlib import Path

import pytest

from golden.regenerate import FIXTURE, _summary, run_case

RTOL = 1e-12
ATOL = 1e-13
GOLDEN = json.loads(Path(FIXTURE).read_text())


def assert_matches(got, want, path):
    if isinstance(want, float):
        assert type(got) is float, path
        assert abs(got - want) <= ATOL + RTOL * abs(want), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert type(got) is dict and got.keys() == want.keys(), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), path
        for i, (x, y) in enumerate(zip(got, want)):
            assert_matches(x, y, f"{path}/{i}")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def csv_fields(row):
    *floats, rank = row.split(",")
    return [float(x) for x in floats] + [int(rank)]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_the_golden_record(name, tmp_path, capsys):
    want = GOLDEN[name]
    got = run_case(want, tmp_path)
    assert got["exit_code"] == want["exit_code"]
    # the report text is json.dumps' own rendering of what it parses to
    report = tmp_path / "report.json"
    assert report.exists() == (want["report"] is not None)
    if report.exists():
        text = report.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert_matches(got["report"], want["report"], name)
    assert ("csv" in got) == ("csv" in want)
    if "csv" in want:
        assert got["csv"]["header"] == want["csv"]["header"]
        assert got["csv"]["row_count"] == want["csv"]["row_count"]
        # a float within rtol can still be the wrong text of its own double
        for rows in ("sample", "deficient"):
            for row in got["csv"][rows]:
                t21, t31, sigma, rank = csv_fields(row)
                assert row == f"{t21!r},{t31!r},{sigma!r},{rank}", f"{name}/csv: {row}"
            assert_matches([csv_fields(r) for r in got["csv"][rows]],
                           [csv_fields(r) for r in want["csv"][rows]], f"{name}/csv/{rows}")


def test_check_summary_names_the_other_paths_that_differ():
    old = {"a": {"report": {"counts": [1, 2, 3], "rate": 0.5, "ok": True}}}
    new = {"a": {"report": {"counts": [1, 2, 4], "rate": 0.25, "ok": 1}}}
    assert _summary(old, new) == ("a: 1 floats moved, largest 0.25 (relative 0.5, 2.25e+15 "
                                  "ulps); everything else DIFFERS at 2 paths: /report/counts/2, "
                                  "/report/ok")
    assert _summary(old, old) == "no change"


def test_check_summary_names_an_added_key_beside_a_moved_int():
    old = {"a": {"report": {"result": {"rank": 2, "rate": 0.5}}}}
    new = {"a": {"report": {"result": {"rank": 3, "rate": 0.5, "diagnostics": {"margin": 1.0}}}}}
    assert _summary(old, new) == ("a: 0 floats moved, largest 0 (relative 0, 0 ulps); everything "
                                  "else DIFFERS at 2 paths: /report/result/rank, "
                                  "added /report/result/diagnostics")
    assert _summary(new, old) == ("a: 0 floats moved, largest 0 (relative 0, 0 ulps); everything "
                                  "else DIFFERS at 2 paths: /report/result/rank, "
                                  "removed /report/result/diagnostics")


def test_check_summary_of_an_added_key_alone():
    old = {"a": {"report": {"result": {"rank": 2}}}, "b": {"report": {"x": 1.0}}}
    new = {"a": {"report": {"result": {"rank": 2, "diagnostics": {"margin": 1.0}}}},
           "b": {"report": {"x": 1.0}}}
    assert _summary(old, new) == "a: only added keys: /report/result/diagnostics"
