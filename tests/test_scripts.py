"""The experiment scripts run end to end as a user would start them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


def test_run_experiment_desk():
    r = run_script("run_experiment.py", "--geometry", "desk")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["payload_recovered"] is True
    assert report["geometry"] == "desk"


def test_aperture_sweep():
    r = run_script("aperture_sweep.py", "--size", "16", "--trials", "1")
    assert r.returncode == 0, r.stderr
    header, *rows = r.stdout.splitlines()
    assert header.split() == ["radius", "mean", "corr", "min", "corr"]
    radii = [float(row.split()[0]) for row in rows]
    assert radii == [0.0625, 0.125, 0.1875, 0.25, 0.3, 0.35, 0.4, 0.45]
    # The default radius keeps the correlation above 0.99, as the script's docstring says.
    assert float(rows[-1].split()[1]) > 0.99
