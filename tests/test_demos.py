"""Smoke test: every narrative script under demos/ runs to completion."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        lines = (tmp_path / "degeneracy_grid.csv").read_text().splitlines()
        assert lines[0] == "theta21,theta31,min_singular_value,rank"
        assert len(lines) == 1 + 360 * 360
        for line in lines[1:]:
            *floats, rank = line.split(",")
            assert len(floats) == 3
            assert all(math.isfinite(float(x)) for x in floats)
            int(rank)
