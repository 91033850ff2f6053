import contextlib
import dataclasses
import importlib
import io
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nogosuper
from nogosuper import cli, linalg, pipeline, states, text
from nogosuper.cli import _config_dict, build_parser, main

SQ2 = 1.0 / math.sqrt(2.0)
SCAN_DROPPED_KEYS = {"phase_policy", "theta0", "theta1", "theta2", "theta3",
                     "success_policy", "success_p", "tol"}
ZERO_PLUS = [[[1, 0], [0, 0]], [[SQ2, 0], [SQ2, 0]]]  # {|0>, |+>} as a states file


def quick_argvs(tmp_path):
    """One short run of each subcommand; scan's CSV and usd's states file
    live in tmp_path."""
    states = tmp_path / "states.json"
    states.write_text(json.dumps(ZERO_PLUS))
    return [
        ["verify"],
        ["scan", "--grid-step", "0.1", "--csv", str(tmp_path / "grid.csv")],
        ["demo", "--trials", "1000"],
        ["usd", str(states), "--trials", "1000"],
    ]


def field_names(record) -> set[str]:
    return {f.name for f in dataclasses.fields(record)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestVerify:
    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["result"]["input_rank"] == 2
        assert report["result"]["output_rank"] == 3
        assert report["config"]["seed"] == 42
        assert not {"success_policy", "success_p"} & set(report["config"])

    @pytest.mark.parametrize("flag", [["--success-policy", "constant"], ["--success-p", "0.3"]])
    def test_success_flags_rejected(self, capsys, tmp_path, flag):
        # verify certifies the outputs and never draws the oracle's success
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flag, "-o", str(tmp_path / "report.json")])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_zero_a_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "--a", "0")
        assert code == 2
        assert "nonzero" in err

    def test_dim_two_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "--dim", "2")
        assert code == 2

    def test_dependent_phases_still_exit_zero(self, capsys, tmp_path):
        # the finding is the payload: a dependent certificate is a success
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--theta2", str(math.pi / 2),
            "--theta3", str(math.pi / 4), "--deterministic", "-o", str(out_path),
        )
        assert code == 0
        report = load_report(out_path)
        assert report["result"]["output_rank"] == 2
        assert not report["result"]["certificate"]["independent"]

    def test_output_rank_honours_tol(self, capsys):
        for tol in ("1e-9", "0.05", "0.3", "0.6"):
            code, out, _ = run(capsys, "verify", "--tol", tol, "--deterministic")
            assert code == 0
            result = json.loads(out)["result"]
            z = np.asarray(result["output_states"], dtype=float)
            a = (z[..., 0] + 1j * z[..., 1]).T
            sigma = np.linalg.svd(a, compute_uv=False)
            assert result["output_rank"] == np.sum(sigma > float(tol) * sigma[0])
            cert = result["certificate"]
            assert cert["singular_values"] == pytest.approx(sigma)
            assert cert["independent"] == (result["output_rank"] == 3)

    @pytest.mark.parametrize("policy", ["constant", "overlap_arg", "canonical_hash"])
    def test_reported_phases_reproduce_outputs(self, capsys, policy):
        # a < 0: the third input's canonical form is -psi3, so the policy's
        # phase differs from the reported given-frame phase by pi
        common = ["verify", "--a", "-0.6", "--b", "0.8", "--deterministic"]
        code, out, _ = run(capsys, *common, "--phase-policy", policy, "--theta0", "0.4")
        assert code == 0
        first = json.loads(out)["result"]
        thetas = [repr(first["phases"][f"theta{k}"]) for k in (1, 2, 3)]
        code, out, _ = run(capsys, *common, "--theta1", thetas[0],
                           "--theta2", thetas[1], "--theta3", thetas[2])
        assert code == 0
        second = json.loads(out)["result"]
        assert second["phases"] == first["phases"]
        for x, y in zip(first["output_states"], second["output_states"]):
            u, v = (np.asarray(z, dtype=float) @ [1, 1j] for z in (x, y))
            np.testing.assert_allclose(np.outer(u, u.conj()), np.outer(v, v.conj()),
                                       atol=1e-15)


@pytest.mark.parametrize("argv", [
    ["verify", "--dim", "2"],
    ["verify", "--a", "0"],
    ["verify", "--a", "0.5", "--b", "0.5"],
    ["verify", "--alpha-mod", "0"],
    ["verify", "--alpha-mod", "1", "--beta-mod", "1"],
    ["scan", "--grid-step", "0.2"],
    ["demo", "--trials", "-1"],
    ["demo", "--success-policy", "constant", "--success-p", "0"],
    ["demo", "--success-policy", "constant", "--success-p", "1.5"],
    ["demo", "--trials", "100000000000000000000"],
    ["usd", "STATES", "--trials", "100000000000000000000"],
    ["usd", "STATES", "--trials", "0"],
    ["usd", "STATES=[[[1, 0], [0, 0]], [[2, 0], [0, 0]]]", "--trials", "0"],  # dependent
    ["verify", "--tol", "2"],
    ["verify", "--tol", "0"],
    ["verify", "--tol", "nan"],
    ["demo", "--tol", "1"],
    ["verify", "--dim", "17"],
    ["verify", "--dim", "1000"],
    ["verify", "--seed", "-1"],
    ["scan", "--seed", "-1"],
    ["demo", "--seed", "-1", "--trials", "10"],
    ["verify", "--theta2", "nan"],
    ["verify", "--theta0", "inf"],
    ["verify", "--theta1", "inf", "--theta3", "1"],
    ["verify", "--theta3", "nan"],
    ["demo", "--theta0", "nan", "--trials", "10"],
    ["verify", "--alpha-arg", "inf"],
    ["verify", "--beta-arg", "nan"],
    ["scan", "--alpha-arg", "nan"],
    ["scan", "--grid-step", "0.004"],
    ["scan", "--grid-step", "1e-6"],
    ["usd", "STATES=[]"],
    ["usd", "STATES=[[[1, 0]]]"],
    ["usd", "STATES=[[[0, 0], [0, 0]]]"],
    ["usd", "STATES=[[[1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]]"],
    ["usd", "STATES=" + json.dumps([[[1, 0]] + [[0, 0]] * 16])],
    ["usd", "STATES=" + json.dumps([[[1, 0], [0, 0]]] * 17)],
    ["usd", "STATES=[[[NaN, 0], [0, 0]], [[1, 0], [1, 0]]]"],
    ["usd", "STATES=[[[1, 0], [0, 0]], [[0, 0], [0, Infinity]]]"],
    ["verify", "--a", "1e200"],
    ["verify", "--alpha-mod", "1e200"],
    ["scan", "--b", "1e200"],
    ["demo", "--beta-mod", "1e300"],
    ["usd", "STATES=[[[1" + "0" * 400 + ", 0], [0, 0]], [[0, 0], [1, 0]]]"],  # beyond float
    ["usd", "STATES=[[[1" + "0" * 4400 + ", 0], [0, 0]], [[0, 0], [1, 0]]]"],  # > 4300 digits
    ["usd", "STATES=[[[true, 0], [0, 0]], [[0, 0], [1, 0]]]"],
    ["usd", "STATES", "--truth-index", "2"],
    ["usd", "STATES", "--truth-index", "-1"],
])
def test_invalid_parameters_exit_two(capsys, monkeypatch, tmp_path, tmp_path_factory, argv):
    # STATES stands for a file holding ZERO_PLUS, STATES=<json> for one holding <json>
    monkeypatch.chdir(tmp_path)  # where scan would write its default CSV

    def states_file(arg):
        if not arg.startswith("STATES"):
            return arg
        path = tmp_path_factory.mktemp("usd") / "states.json"
        path.write_text(arg.partition("=")[2] or json.dumps(ZERO_PLUS))
        return str(path)

    code, _, err = run(capsys, *map(states_file, argv))
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name, value", [
    (["demo"], "success_p", 0.5),
    (["demo"], "trials", 100_000),
    (["usd", "states.json"], "truth_index", 0),
    (["usd", "states.json"], "trials", 10_000),
])
def test_flag_defaults(argv, name, value):
    assert getattr(build_parser().parse_args(argv), name) == value


def test_unit_pair_drift_within_contract_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--a", "0.6", "--b", "0.8000000001",
                       "--deterministic")
    assert code == 0
    assert json.loads(out)["result"]["output_rank"] == 3


def test_negative_value_in_exponent_notation_is_a_value(capsys):
    # reports echo flag values as `repr`, exponent included
    code, out, err = run(capsys, "verify", "--alpha-arg", "-1e-3", "--deterministic")
    assert code == 0, err
    assert '"alpha_arg": -0.001' in out


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha-arg", "-1e-3"],
    ["demo", "--beta-arg", "-2.5e-1", "--trials", "10"],
])
def test_negative_exponent_values_exit_zero(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # where scan writes its CSV
    code, _, err = run(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("value", ["-inf", "-nan"])
def test_negative_non_numbers_stay_options(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--alpha-arg", value])
    assert exc.value.code == 2


@settings(deadline=None)
@given(value=st.floats(max_value=-math.ulp(0.0), allow_infinity=False))
def test_negative_float_repr_comes_back_in_the_space_form(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--alpha-arg", repr(value), "--deterministic"]) == 0
    assert json.loads(out.getvalue())["config"]["alpha_arg"] == value


class TestScan:
    def test_summary_deviation_within_grid_step(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        out_path = tmp_path / "scan.json"
        code, _, _ = run(
            capsys, "scan", "--csv", str(csv_path), "-o", str(out_path),
            "--deterministic",
        )
        assert code == 0
        result = load_report(out_path)["result"]
        step = math.pi / 180.0
        assert result["max_deviation_detected_to_analytic"] <= step
        assert result["max_deviation_analytic_to_detected"] <= step
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "theta21,theta31,min_singular_value,rank"
        assert len(lines) == 1 + 360 * 360

    @pytest.mark.parametrize("ab", [[], ["--a", "0.6", "--b", "0.8"]])
    def test_report_is_strict_json(self, capsys, tmp_path, ab):
        # 1 degree steps reach the balanced locus (pi/2, pi/4) and miss the
        # locus of (0.6, 0.8), whose theta31 = atan2(0.8, 0.6) is 53.13 degrees
        out_path = tmp_path / "scan.json"
        code, _, _ = run(capsys, "scan", *ab, "--csv", str(tmp_path / "grid.csv"),
                         "-o", str(out_path), "--deterministic")
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out_path.read_text(), parse_constant=refuse)
        result = report["result"]
        if ab:
            assert result["detected_pairs"] == []
            assert result["max_deviation_detected_to_analytic"] is None
            assert result["max_deviation_analytic_to_detected"] is None
        else:
            assert result["max_deviation_analytic_to_detected"] <= math.pi / 180.0
        assert not SCAN_DROPPED_KEYS & set(report["config"])

    @pytest.mark.parametrize("flag", [
        ["--tol", "1e-3"], ["--phase-policy", "overlap_arg"], ["--theta0", "0.1"],
        ["--theta1", "0.1"], ["--theta2", "0.1"], ["--theta3", "0.1"],
        ["--success-policy", "constant"], ["--success-p", "0.5"],
    ])
    def test_oracle_flags_rejected(self, capsys, tmp_path, flag):
        # the scan sets its own phases and rank tolerance and draws nothing
        with pytest.raises(SystemExit) as exc:
            main(["scan", *flag, "--csv", str(tmp_path / "grid.csv")])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_underflowing_alpha_writes_no_nan(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        code, _, err = run(capsys, "scan", "--alpha-mod", "1e-200", "--beta-mod", "1",
                           "--grid-step", "0.1", "--csv", str(csv_path),
                           "-o", str(tmp_path / "scan.json"), "--deterministic")
        assert code == 0 and err == ""
        grid = csv_path.read_text()
        assert "nan" not in grid
        assert all(row.endswith(",0.0,1") for row in grid.splitlines()[1:])

    def test_locus_deviations_match_the_pairwise_rule(self, rng):
        # the distance matrix gives, bit for bit, the max over pairs of the
        # min over targets of the larger torus distance of the two angles
        def gap(x, y):
            d = abs(x - y) % (2.0 * math.pi)
            return min(d, 2.0 * math.pi - d)

        def deviation(pairs, targets):
            return max(min(max(gap(p[0], q[0]), gap(p[1], q[1])) for q in targets)
                       for p in pairs)

        centres = [0.0, math.pi / 2, math.pi, 2 * math.pi]
        for _ in range(300):
            k, m = (int(x) for x in rng.integers(1, 6, size=2))
            points = (rng.choice(centres, size=(k + m, 2))
                      + rng.choice([-1, 1], size=(k + m, 2))
                      * 10.0 ** rng.uniform(-12, 0, size=(k + m, 2)))
            points = [tuple(pair) for pair in (points % (2 * math.pi)).tolist()]
            detected, analytic = points[:k], points[k:]
            assert cli._locus_deviations(np.array(detected), analytic) == (
                deviation(detected, analytic), deviation(analytic, detected))
        assert cli._locus_deviations(np.empty((0, 2)), analytic) == (None, None)
        assert cli._locus_deviations(np.array(detected), []) == (None, None)

    def test_oversized_grid_step_rejected(self, capsys):
        code, _, _ = run(capsys, "scan", "--grid-step", "0.2")
        assert code == 2

    def test_unwritable_csv_path(self, capsys, tmp_path):
        code, _, _ = run(capsys, "scan", "--csv", "/nonexistent/dir/x.csv")
        assert code == 3


class TestDemo:
    def test_defaults_statistics(self, capsys, tmp_path):
        out_path = tmp_path / "demo.json"
        code, _, _ = run(
            capsys, "demo", "--trials", "100000", "--seed", "7",
            "--deterministic", "-o", str(out_path),
        )
        assert code == 0
        result = load_report(out_path)["result"]
        assert result["misidentifications"] == 0
        pred = result["predicted_conclusive_rate"]
        sigma3 = 3.0 * math.sqrt(pred * (1 - pred) / 100_000)
        assert abs(result["empirical_conclusive_rate"] - pred) < sigma3

    def test_on_locus_exit_four(self, capsys):
        code, _, err = run(
            capsys, "demo", "--phase-policy", "constant",
            "--theta2", "1.5707963267948966", "--theta3", "0.7853981633974483",
        )
        assert code == 4

    def test_certificate_honours_tol(self, capsys):
        # output sigma ratios are (1, 0.449, 0.083): rank 3 at 0.05, 2 at 0.3
        code, out, _ = run(capsys, "demo", "--trials", "0", "--tol", "0.05",
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["result"]["certificate"]["gram_rank"] == 3
        code, _, _ = run(capsys, "demo", "--trials", "0", "--tol", "0.3")
        assert code == 4

    def test_usd_build_honours_tol(self, capsys):
        # 1e-11 off the locus the smallest output sigma ratio is ~2e-12:
        # independent at --tol 1e-13, so the USD must be built at that tol too
        code, out, err = run(
            capsys, "demo", "--trials", "1000", "--theta2", "1.5707963267948966",
            "--theta3", repr(math.pi / 4 + 1e-11), "--tol", "1e-13", "--deterministic",
        )
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["certificate"]["independent"]
        assert result["misidentifications"] == 0

    def test_predicted_usd_probabilities_non_negative_near_locus(self, capsys):
        # 1e-9 off the locus Tr(E_j rho_j) is ~1e-19; formed as a quadratic
        # form it came out as round-off of either sign
        code, out, err = run(
            capsys, "demo", "--trials", "1000", "--theta2", "1.5707963267948966",
            "--theta3", repr(math.pi / 4 + 1e-9), "--tol", "1e-13", "--deterministic",
        )
        assert code == 0, err
        result = json.loads(out)["result"]
        assert min(result["predicted_usd_probabilities"]) >= 0.0
        assert result["predicted_conclusive_rate"] >= 0.0
        assert result["misidentifications"] == 0

    def test_trillion_trials(self, capsys):
        # counts are sampled, so 10^12 trials cost what 10^3 do
        code, out, err = run(capsys, "demo", "--trials", "1000000000000", "--deterministic")
        assert code == 0, err
        result = json.loads(out)["result"]
        assert sum(result["secret_counts"]) == 10**12
        assert result["misidentifications"] == 0
        assert result["clone_successes"] == sum(result["conclusive_counts"])

    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, "demo", "--trials", "0", "--deterministic")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["trials"] == 0
        assert result["conclusive_counts"] == [0, 0, 0]
        assert result["empirical_conclusive_rate"] == 0.0

    def test_report_keys_are_the_record_fields(self, capsys):
        # each report prints its records' fields under their names, and nothing else
        for command in ("verify", "demo"):
            code, out, err = run(capsys, command, "--deterministic")
            assert code == 0, err
            result = json.loads(out)["result"]
            assert set(result["phases"]) == field_names(pipeline.PhaseTriple)
            if command == "demo":
                assert set(result) == field_names(pipeline.DemoReport)

    def test_deterministic_runs_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys, "demo", "--trials", "5000", "--seed", "11",
                "--deterministic", "-o", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestUSD:
    def write_states(self, tmp_path, states):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(states))
        return str(path)

    def test_zero_plus_pair(self, capsys, tmp_path):
        path = self.write_states(
            tmp_path, [[[1, 0], [0, 0]], [[SQ2, 0], [SQ2, 0]]]
        )
        code, out, _ = run(capsys, "usd", path, "--trials", "20000",
                           "--deterministic")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["success_probabilities"] == pytest.approx(
            [1 - SQ2, 1 - SQ2], abs=1e-9
        )
        assert result["misidentifications"] == 0

    def test_dependent_states_numerical_error(self, capsys, tmp_path):
        path = self.write_states(
            tmp_path,
            [[[1, 0], [0, 0], [0, 0]],
             [[0, 0], [1, 0], [0, 0]],
             [[SQ2, 0], [SQ2, 0], [0, 0]]],
        )
        code, _, _ = run(capsys, "usd", path)
        assert code == 3

    def test_truth_index_out_of_range_names_the_range(self, capsys, tmp_path):
        path = self.write_states(tmp_path, ZERO_PLUS)
        code, out, err = run(capsys, "usd", path, "--truth-index", "2")
        assert (code, out) == (2, "")
        assert err == "config error: --truth-index out of range 0..1\n"

    def test_one_trial_accepted(self, capsys, tmp_path):
        path = self.write_states(tmp_path, ZERO_PLUS)
        code, out, err = run(capsys, "usd", path, "--trials", "1", "--deterministic")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert sum(result["per_label_counts"]) + result["inconclusive_count"] == 1

    def test_non_finite_amplitude_config_error(self, capsys, tmp_path):
        path = self.write_states(tmp_path, [[[float("nan"), 0], [0, 0]], [[SQ2, 0], [SQ2, 0]]])
        code, _, err = run(capsys, "usd", path)
        assert code == 2
        assert "non-finite" in err

    def test_huge_finite_amplitudes_accepted(self, capsys, tmp_path):
        # |1e200|^2 overflows a double; the state is still |0>
        path = self.write_states(tmp_path, [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]])
        code, out, err = run(capsys, "usd", path, "--trials", "1000", "--deterministic")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["success_probabilities"] == [1.0, 1.0]

    def test_zero_vector_config_error_prints_a_plain_float(self, capsys, tmp_path):
        path = self.write_states(tmp_path, [[[0, 0], [0, 0]]])
        code, _, err = run(capsys, "usd", path)
        assert code == 2
        assert err == "config error: states file: vector 0 has norm 0.0, below 1e-10\n"

    @pytest.mark.parametrize("tiny", [1e-200, 1e-160])
    def test_tiny_vector_error_prints_its_true_norm(self, capsys, tmp_path, tiny):
        # the squared norm underflows here, so the printed norm is not sqrt(|v|^2)
        path = self.write_states(tmp_path, [[[tiny, 0], [0, 0]], [[0, 0], [1, 0]]])
        code, _, err = run(capsys, "usd", path)
        assert code == 2
        assert err == f"config error: states file: vector 0 has norm {tiny!r}, below 1e-10\n"

    @pytest.mark.parametrize("raw", [
        b"{not json",
        b"[[[1, 0], [0, 0]], [[0, 0], [1, 0]]] \xff",  # not UTF-8
        b"[" * 100_000,  # nested past the recursion limit
    ], ids=["not-json", "not-utf8", "deep"])
    def test_malformed_file_config_error(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, _, err = run(capsys, "usd", str(path))
        assert code == 2
        assert err.startswith("config error: cannot read states file:")


class TestSeedResolution:
    # each test runs every subcommand: `main` resolves the seed and writes
    # the report for all of them
    def test_env_overrides_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("NOGO_SEED", "123")
        for argv in quick_argvs(tmp_path):
            code, out, err = run(capsys, *argv, "--deterministic")
            assert code == 0, err
            assert json.loads(out)["config"]["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("NOGO_SEED", "123")
        for argv in quick_argvs(tmp_path):
            code, out, err = run(capsys, *argv, "--seed", "9", "--deterministic")
            assert code == 0, err
            assert json.loads(out)["config"]["seed"] == 9

    def test_bad_env_seed_rejected(self, capsys, monkeypatch, tmp_path):
        for env in ("not-a-number", "-5"):
            monkeypatch.setenv("NOGO_SEED", env)
            for argv in quick_argvs(tmp_path):
                code, out, err = run(capsys, *argv)
                assert code == 2
                assert err.startswith("config error:") and out == ""
        assert not (tmp_path / "grid.csv").exists()

    def test_seed_zero_accepted(self, capsys, monkeypatch, tmp_path):
        for env, flag in (("0", []), ("123", ["--seed", "0"])):
            monkeypatch.setenv("NOGO_SEED", env)
            for argv in quick_argvs(tmp_path):
                code, out, err = run(capsys, *argv, *flag, "--deterministic")
                assert code == 0, err
                assert json.loads(out)["config"]["seed"] == 0

    def test_output_file_matches_stdout(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("NOGO_SEED", raising=False)
        report = tmp_path / "report.json"
        for argv in quick_argvs(tmp_path):
            code, out, err = run(capsys, *argv, "--deterministic")
            assert code == 0, err
            code, to_file, err = run(capsys, *argv, "--deterministic", "-o", str(report))
            assert code == 0, err
            assert to_file == ""
            assert report.read_bytes() == out.encode()


def test_parser_is_built_once_and_leaks_nothing_between_calls(capsys, monkeypatch, tmp_path):
    # a non-default success policy first, then the defaults it must not leave behind
    monkeypatch.delenv("NOGO_SEED", raising=False)
    assert build_parser() is build_parser()
    report = tmp_path / "report.json"
    for argv in (["demo", "--success-policy", "constant", "--success-p", "0.7", "--trials", "100"],
                 ["demo", "--trials", "100"],
                 ["verify"]):
        argv = [*argv, "--deterministic", "-o", str(report)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        fresh = build_parser.__wrapped__().parse_args(argv)
        assert load_report(report)["config"] == _config_dict(fresh, 42)


def test_each_state_set_is_checked_once(capsys, monkeypatch, tmp_path):
    # one pure-state check per set an op builds: verify and demo check the
    # frame, the input triple and the outputs; scan the frame and the inputs;
    # usd the states file, whose Born table gives both its probabilities and
    # the row its counts are drawn from
    checked = []
    check_rows = states._check_rows
    monkeypatch.setattr(states, "_check_rows", lambda rows: checked.append(1) or check_rows(rows))
    usd_states = tmp_path / "states.json"
    usd_states.write_text(json.dumps(np.random.default_rng(8).standard_normal((8, 8, 2)).tolist()))
    counts = {}
    for argv in (["verify"], ["demo", "--trials", "1000"],
                 ["scan", "--grid-step", "0.1", "--csv", str(tmp_path / "grid.csv")],
                 ["usd", str(usd_states), "--trials", "1000"]):
        checked.clear()
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / "report.json"))
        assert code == 0, err
        counts[argv[0]] = len(checked)
    assert counts == {"verify": 3, "demo": 3, "scan": 2, "usd": 1}


def test_each_svd_is_a_factorize(capsys, monkeypatch, tmp_path):
    # every rank an op reports comes from one `linalg.factorize`, and no op
    # runs an SVD of its own: verify factors the inputs and the outputs, demo
    # and usd the set they discriminate; the scan has its own 3x3 kernel
    svds, factorizations = [], []
    svd, factorize = np.linalg.svd, linalg.factorize
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(linalg, "factorize",
                        lambda *a, **k: factorizations.append(1) or factorize(*a, **k))
    usd_states = tmp_path / "states.json"
    usd_states.write_text(json.dumps(np.random.default_rng(8).standard_normal((8, 8, 2)).tolist()))
    counts = {}
    for argv in (["verify"], ["demo", "--trials", "1000"],
                 ["scan", "--grid-step", "0.1", "--csv", str(tmp_path / "grid.csv")],
                 ["usd", str(usd_states), "--trials", "1000"]):
        svds.clear()
        factorizations.clear()
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / "report.json"))
        assert code == 0, err
        counts[argv[0]] = (len(svds), len(factorizations))
    assert counts == {"verify": (2, 2), "demo": (1, 1), "scan": (0, 0), "usd": (1, 1)}


def test_digit_kernel_calls_per_op(capsys, monkeypatch, tmp_path):
    # a report calls the digit kernel once if it holds enough list floats in
    # the kernel's range and never otherwise, so verify and demo reports pay
    # nothing for it; the scan CSV calls it once per block of theta21 rows
    calls = []
    kernel = text._shortest_digits
    monkeypatch.setattr(text, "_shortest_digits", lambda x: calls.append(1) or kernel(x))
    usd_states = tmp_path / "states.json"
    usd_states.write_text(json.dumps(np.random.default_rng(8).standard_normal((8, 8, 2)).tolist()))
    ops = {"verify": ["verify"], "verify16": ["verify", "--dim", "16"],
           "demo": ["demo", "--trials", "1000"],
           "scan": ["scan", "--grid-step", "0.1", "--csv", str(tmp_path / "grid.csv")],
           "usd": ["usd", str(usd_states), "--trials", "1000"]}
    counts = {}
    for name, argv in ops.items():
        calls.clear()
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / "report.json"))
        assert code == 0, err
        counts[name] = len(calls)
    rows = math.isqrt(len((tmp_path / "grid.csv").read_text().splitlines()) - 1)
    assert rows == 63  # two blocks, the second one short
    # verify --dim 16 holds 102 list floats, but 93 are outside the kernel's
    # range, most of them the zeros of the 13 unused coordinates
    assert counts == {"verify": 0, "verify16": 0, "demo": 0, "usd": 1,
                      "scan": -(-rows // text._BLOCK_ROWS)}


COUNTEREXAMPLE_SETTINGS = {
    "defaults": [],
    "real-dim8": ["--a", "-0.6", "--b", "0.8", "--dim", "8"],
    "complex-dim5": ["--alpha-arg", "0.7", "--beta-arg", "2.1", "--dim", "5"],
}


@pytest.mark.parametrize("setting", COUNTEREXAMPLE_SETTINGS)
@pytest.mark.parametrize("overlap_policy, constant_policy", [
    (["demo", "--trials", "10000", "--success-policy", "overlap_scaled"],
     ["demo", "--trials", "10000", "--success-policy", "constant", "--success-p", "0.5"]),
    (["verify", "--phase-policy", "overlap_arg"],
     ["verify", "--phase-policy", "constant", "--theta0", "0"]),
], ids=["overlap_scaled", "overlap_arg"])
def test_overlap_policies_are_constants_on_every_counterexample(
        capsys, setting, overlap_policy, constant_policy):
    # phi is orthogonal to every input state, so <psi_j|phi> = 0: overlap_arg
    # always gives theta = 0 and overlap_scaled always gives p = 1/2
    results = []
    for argv in (overlap_policy, constant_policy):
        code, out, err = run(capsys, *argv, *COUNTEREXAMPLE_SETTINGS[setting],
                             "--seed", "7", "--deterministic")
        assert code == 0, err
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]


def test_public_names_are_pinned():
    # the package root re-exports nothing: each name comes from its module
    public = [name for name, value in vars(nogosuper).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert public == []
    assert nogosuper.__version__ == "0.1.0"


def test_readme_names_every_public_name():
    # each public class and function defined in a library module (every
    # module but `cli`) is a word of some `code` span of the README
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`\n]*)`", readme)
    package = Path(nogosuper.__file__).parent
    modules = [importlib.import_module(f"nogosuper.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem not in ("__init__", "cli")]
    public = [(module.__name__, name) for module in modules
              for name, value in vars(module).items()
              if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
              and value.__module__ == module.__name__]
    assert public
    assert [(module, name) for module, name in public
            if not any(re.search(rf"\b{name}\b", span) for span in spans)] == []
