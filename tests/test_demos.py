"""Smoke test: every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nogosuper import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    # demos write their files (degeneracy_grid.csv) into the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script.stem == "02_degeneracy_locus":
        grid = (tmp_path / "degeneracy_grid.csv").read_bytes()
        lines = grid.decode().splitlines()
        assert lines[0] == "theta21,theta31,min_singular_value,rank"
        assert len(lines) == 1 + 360 * 360
        # the demo's parameters are the `nogo scan` defaults
        assert cli.main(["scan", "--csv", str(tmp_path / "scan.csv"),
                         "-o", str(tmp_path / "scan.json")]) == 0
        assert grid == (tmp_path / "scan.csv").read_bytes()
