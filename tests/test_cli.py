import json
import math

import numpy as np
import pytest

from nogosuper.cli import main

SQ2 = 1.0 / math.sqrt(2.0)
SCAN_DROPPED_KEYS = {"phase_policy", "theta0", "theta1", "theta2", "theta3",
                     "success_policy", "success_p", "tol"}


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
])
def test_invalid_parameters_exit_two(capsys, monkeypatch, tmp_path, tmp_path_factory, argv):
    monkeypatch.chdir(tmp_path)  # where scan would write its default CSV
    states = tmp_path_factory.mktemp("usd") / "states.json"  # a valid {|0>, |+>} file
    states.write_text(json.dumps([[[1, 0], [0, 0]], [[SQ2, 0], [SQ2, 0]]]))
    code, _, err = run(capsys, *(str(states) if a == "STATES" else a for a in argv))
    assert code == 2
    assert err.startswith("config error:")
    assert not list(tmp_path.iterdir())


def test_unit_pair_drift_within_contract_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--a", "0.6", "--b", "0.8000000001",
                       "--deterministic")
    assert code == 0
    assert json.loads(out)["result"]["output_rank"] == 3


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

    def test_non_finite_amplitude_numerical_error(self, capsys, tmp_path):
        path = self.write_states(tmp_path, [[[float("nan"), 0], [0, 0]], [[SQ2, 0], [SQ2, 0]]])
        code, _, err = run(capsys, "usd", path)
        assert code == 3
        assert "non-finite" in err

    def test_malformed_file_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "usd", str(path))
        assert code == 2


class TestSeedResolution:
    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NOGO_SEED", "123")
        _, out, _ = run(capsys, "verify", "--deterministic")
        assert json.loads(out)["config"]["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NOGO_SEED", "123")
        _, out, _ = run(capsys, "verify", "--seed", "9", "--deterministic")
        assert json.loads(out)["config"]["seed"] == 9

    def test_bad_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("NOGO_SEED", "not-a-number")
        code, _, _ = run(capsys, "verify")
        assert code == 2
