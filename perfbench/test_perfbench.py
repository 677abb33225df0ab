"""Self-tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dmdstego.stego  # noqa: E402
from metrics import END_TO_END, NAME, PER_LAYER  # noqa: E402
from run import load_spec  # noqa: E402
from tracer import Installed, Recorder  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_GRID = (36, 64)
pytestmark = pytest.mark.filterwarnings("ignore::dmdstego.optics.AliasingGuardWarning")


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)


def test_generators_are_deterministic_per_seed(tmp_path):
    for make in (lambda s: workloads.FullFrame(s, grid=SMALL_GRID),
                 lambda s: workloads.DeskCli(s, tmp_path)):
        first, again, other = make(3), make(3), make(4)
        try:
            assert _same(first.inputs(), again.inputs())
            assert not _same(first.inputs(), other.inputs())
        finally:
            for wl in (first, again, other):
                wl.close()


def test_metric_names_match_benchmark_json():
    spec = load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(NAME.match(name) for name in [*END_TO_END, *PER_LAYER])
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "full_frame",
                               "--seconds", "0.1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(expected)
        assert all(m["unit"] == expected[name] for name, m in result["metrics"].items())


def test_corrupted_pass_is_counted_as_failed():
    wl = workloads.FullFrame(5, grid=SMALL_GRID)
    result = worker.run(wl, seconds=0.5, trace=False, corrupt={1})
    assert result["attempted"] >= 3
    assert result["failed"] == 1
    assert "mirrors differs from the first pass" in result["problems"][0]


def test_failed_cli_process_is_counted(tmp_path):
    wl = workloads.DeskCli(5, tmp_path)
    try:
        procs = {c: {"returncode": 0, "stdout": "", "stderr": ""} for _, c in workloads.DESK_STEPS}
        procs["extract"] = {"returncode": 1, "stdout": "", "stderr": "error: bad header"}
        problems = wl.check({"procs": procs}, None)
        assert any("extract exited 1" in p for p in problems)
        assert any("extract wrote to stderr" in p for p in problems)
    finally:
        wl.close()


def test_missing_wrapped_name_is_reported_absent():
    original = dmdstego.stego.permutation
    rec = Recorder()
    wraps = (("dmdstego.rng", "permutation", "rng.permutation", None),
             ("dmdstego.stego", "InvalidEmbeddedPatternCheck", "stego.gone", None))
    installed = Installed(rec, wraps)
    try:
        assert installed.absent == ["dmdstego.stego.InvalidEmbeddedPatternCheck"]
        assert dmdstego.stego.permutation is not original
        dmdstego.stego.permute_bits(np.ones(8, dtype=np.uint8), dmdstego.stego.StegoKey(1))
    finally:
        installed.restore()
    assert dmdstego.stego.permutation is original
    assert [span[0] for span in rec.spans] == ["rng.permutation"]


class _SleepyPass:
    """Two 20 ms stages with a pause before each, inside the frame."""

    def run_pass(self, rec, pause=None):
        with rec.span("bench.frame"):
            for stage in ("bench.encode", "bench.decode"):
                if pause:
                    pause()
                with rec.span(stage):
                    time.sleep(0.02)
        return {}

    def check(self, out, first):
        return []

    def quality(self, out):
        return {}


def test_pauses_are_left_out_and_times_are_host_scaled(monkeypatch):
    monkeypatch.setattr(worker, "SETUP_SHARE", 0.0)
    monkeypatch.setattr(worker, "SETUP_MIN", 0)
    samples = worker.Samples("full_frame")
    result = worker.run(_SleepyPass(), seconds=0.5, trace=False, samples=samples)
    wall, scaled = result["wall_s"], result["timings"]
    assert result["passes"]["untraced"] >= 2 and len(samples.host) >= 3 * result["passes"]["untraced"]
    assert wall["frame_s"] == pytest.approx(wall["encode_s"] + wall["decode_s"], abs=0.005)
    assert 0.04 <= wall["frame_s"] < 0.06
    assert scaled["frame_s"] / wall["frame_s"] == pytest.approx(result["host_scale"], rel=0.2)


def test_host_scale_uses_the_kernel_samples_near_a_time():
    samples = worker.Samples("full_frame")
    samples.host = [(0.0, 0.1), (1.0, 0.1), (10.0, 0.05), (11.0, 0.05), (12.0, 0.05)]
    assert samples.scale(10.5, 11.5) == pytest.approx(worker.HOST_REF_S / 0.05)
    assert samples.scale(0.2, 0.4) == pytest.approx(worker.HOST_REF_S / 0.1)
    assert samples.scale(100.0, 101.0) == pytest.approx(worker.HOST_REF_S / 0.05)
