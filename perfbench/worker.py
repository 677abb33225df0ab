"""Run one benchmark workload in this (fresh) process and print its figures as JSON.

Started by run.py, one process per workload, so that caches, import state
and peak RSS do not leak between workloads.  Untraced passes give the
end-to-end figures.  Between them the worker times fresh interpreters until
they are set up, so that set-up is sampled over the whole run like the
passes are, and a fixed kernel that gives the host's speed (see Samples).
With --trace 1 traced and untraced passes alternate: the traced ones give
the per-layer figures and the difference between the two medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from metrics import PER_LAYER, median_or_zero, pass_layers
from tracer import Installed, Recorder, parse_importtime
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Set-up of a fresh interpreter: imports, the codebook and its kd-tree.  It
# prints the monotonic clock when ready; the spawn is timed on the same clock.
IN_PROCESS_SETUP = """\
import time
import numpy as np
from dmdstego import codebook, modulator, optics, rng, stego, superpixel
cb = codebook.build_codebook()
cb.nearest_values(np.zeros(1, dtype=np.complex128))
print(time.perf_counter_ns())
"""
CLI_SETUP = "import time\nimport dmdstego.cli\nprint(time.perf_counter_ns())\n"
SETUP_SHARE = 0.2       # share of an untraced run spent on set-up samples
SETUP_MIN = 5           # set-up samples of an untraced run, at least
HOST_REF_S = 0.07       # times are reported as if host_kernel() took this long
HOST_WINDOW_S = 0.5     # a span is scaled by the kernel samples this near to it, or the 2 nearest
_HOST_FIELD = np.exp(2j * np.pi * np.random.default_rng(0).random((512, 1024)))
_HOST_WORK = np.empty_like(_HOST_FIELD)
_HOST_MAG = np.empty(_HOST_FIELD.shape)


def make_workload(name: str, seed: int, traced: bool):
    if name == "full_frame":
        return workloads.FullFrame(seed)
    if name == "desk_cli":
        return workloads.DeskCli(seed, ROOT, traced=traced)
    raise ValueError(f"unknown workload {name!r}")


def import_probe() -> dict:
    """Import times of a fresh interpreter loading the CLI, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dmdstego.cli"],
                          capture_output=True, text=True, timeout=60, check=True)
    return parse_importtime(proc.stderr)[0]


def host_kernel() -> None:
    """Fixed work, about 40% interpreter loop and 60% FFT, that runs no dmdstego code.

    It allocates nothing, so the program's memory use cannot change its time.
    """
    total = 0
    for i in range(300_000):
        total += i * i
    np.fft.fft2(_HOST_FIELD, out=_HOST_WORK)
    np.multiply(_HOST_WORK, _HOST_FIELD, out=_HOST_WORK)
    np.fft.ifft2(_HOST_WORK, out=_HOST_WORK)
    np.abs(_HOST_WORK, out=_HOST_MAG)


class Samples:
    """Host-speed and set-up samples taken around the untraced passes of a run.

    A shared host changes speed by tens of percent, in phases of seconds to
    minutes.  host_kernel() is timed before and after every pass, between
    the steps of a desk_cli pass and around every set-up sample.  Each
    stage of a pass and each set-up time is then scaled by HOST_REF_S over
    the median kernel time next to it: that takes out the host's changes
    and keeps the program's own changes whole.
    """

    def __init__(self, workload: str):
        self.code = CLI_SETUP if workload == "desk_cli" else IN_PROCESS_SETUP
        self.host = []           # (midpoint s, kernel s)
        self.setup = []          # (spawn s, ready s)

    def host_sample(self) -> None:
        # Bring the kernel's arrays back into cache first, so that how much
        # of it the pass before evicted does not show in the kernel's time.
        np.copyto(_HOST_WORK, _HOST_FIELD)
        _HOST_MAG.fill(0.0)
        began = time.perf_counter()
        host_kernel()
        ended = time.perf_counter()
        self.host.append(((began + ended) / 2, ended - began))

    def pause(self, rec: Recorder) -> None:
        """A host sample inside a pass, in a span the pass's times leave out."""
        with rec.span("bench.pause"):
            self.host_sample()

    def setup_sample(self) -> None:
        """Time a fresh interpreter from spawn until the workload's set-up is ready."""
        self.host_sample()
        spawned = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True, text=True,
                              timeout=60, check=True)
        self.setup.append((spawned / 1e9, int(proc.stdout.split()[-1]) / 1e9))
        self.host_sample()

    def setup_seconds(self) -> float:
        return sum(ready - spawned for spawned, ready in self.setup)

    def scale(self, start: float, end: float) -> float:
        """HOST_REF_S over the median kernel time next to the span [start, end]."""
        gaps = sorted((max(start - t, t - end, 0.0), k) for t, k in self.host)
        near = [k for gap, k in gaps if gap <= HOST_WINDOW_S]
        return HOST_REF_S / statistics.median(near if len(near) >= 2 else [k for _, k in gaps[:2]])


STAGES = ("bench.hologram", "bench.encode", "bench.decode", "bench.readout")


def pass_seconds(spans: list, lo: int, hi: int, scale=None) -> dict:
    """Seconds of the frame and of each stage of the pass in spans[lo:hi].

    Pauses are left out.  With `scale`, each stage span is multiplied by
    scale(start, end), and the rest of the frame by the frame's own scale.
    """
    scale = scale or (lambda start, end: 1.0)
    out = dict.fromkeys(STAGES, 0.0)
    frame, rest = (0.0, 0.0), 0.0
    for name, start_ns, end_ns, _ in spans[lo:hi]:
        start, end = start_ns / 1e9, end_ns / 1e9
        if name in STAGES:
            out[name] += (end - start) * scale(start, end)
            rest -= end - start
        elif name == "bench.pause":
            rest -= end - start
        elif name == "bench.frame":
            frame = (start, end)
            rest += end - start
    out["bench.frame"] = sum(out.values()) + rest * scale(*frame)
    return out


def run(wl, seconds: float, trace: bool, rec: Recorder | None = None, corrupt=(),
        samples: Samples | None = None) -> dict:
    """Run passes for about `seconds` (at least one, and one of each kind when tracing).

    A pass starts while it would, at the median pass time so far, end less
    than half a pass after `seconds`, so the run ends as near to `seconds`
    as whole passes allow.  With `samples`, set-up samples are taken
    between passes while they take less than SETUP_SHARE of the run, and at
    least SETUP_MIN of them, and the end-to-end times are host-scaled.
    `rec` may already hold set-up spans; `corrupt` names passes whose
    outputs are damaged before the check, to test that failures are counted.
    """
    rec = rec or Recorder()
    attempted, problems, first, quality = 0, [], None, None
    timings = {"untraced": [], "traced": []}
    layers = []
    absent = set()
    pass_walls, untraced = [], []
    pause = (lambda: samples.pause(rec)) if samples else None
    start = time.perf_counter()
    if samples:
        samples.host_sample()
    while True:
        traced = trace and attempted % 2 == 1
        elapsed = time.perf_counter() - start
        done = elapsed + median_or_zero(pass_walls) / 2 > seconds
        if done and attempted >= (2 if trace else 1):
            break
        began = time.perf_counter()
        lo, rec.counts = len(rec.spans), Counter()
        installed = Installed(rec) if traced else None
        try:
            out = wl.run_pass(rec, pause)
        except Exception as exc:  # a crashing pass counts as failed; the run goes on
            out, failure = None, [f"pass raised {type(exc).__name__}: {exc}"]
        finally:
            if installed is not None:
                installed.restore()
                absent.update(installed.absent)
        rec.run_deferred()
        hi = len(rec.spans)
        if out is not None:
            if attempted in corrupt:
                wl.corrupt(out)
            failure = wl.check(out, first)
            if first is None:
                first, quality = out, wl.quality(out)
        attempted += 1
        pass_walls.append(time.perf_counter() - began)
        if samples:
            samples.host_sample()
            while samples.setup_seconds() < SETUP_SHARE * (time.perf_counter() - start):
                samples.setup_sample()
        if failure:
            problems.append(f"pass {attempted - 1}: " + "; ".join(failure))
            continue
        table = pass_seconds(rec.spans, lo, hi)
        if not traced:
            untraced.append((lo, hi))
        timings["traced" if traced else "untraced"].append(table)
        if traced:
            layers.append(pass_layers(rec.spans, lo, hi, rec.counts))
    while samples and len(samples.setup) < SETUP_MIN:
        samples.setup_sample()
    if quality is None:                      # no pass got far enough to measure quality
        quality = {name: 0.0 for name in ("reconstruction_ssim", "filter_correlation", "quant_error_max")}
    result = {"attempted": attempted, "failed": len(problems), "problems": problems[:20],
              "quality": quality, "absent": sorted(absent)}
    result["passes"] = {"untraced": len(untraced), "traced": len(timings["traced"])}
    result["pass_frame_s"] = [t["bench.frame"] for t in timings["untraced"]]
    spans = {"frame_s": "bench.frame", "encode_s": "bench.encode", "decode_s": "bench.decode",
             "readout_s": "bench.readout"}
    result["wall_s"] = {metric: median_or_zero(t[span] for t in timings["untraced"])
                        for metric, span in spans.items()}
    result["timings"] = dict(result["wall_s"])
    if samples:
        scaled = [pass_seconds(rec.spans, lo, hi, samples.scale) for lo, hi in untraced]
        result["timings"] = {metric: median_or_zero(t[span] for t in scaled) for metric, span in spans.items()}
        result["wall_s"]["setup_s"] = median_or_zero(ready - spawned for spawned, ready in samples.setup)
        result["timings"]["setup_s"] = median_or_zero(samples.scale(spawned, ready) * (ready - spawned)
                                                      for spawned, ready in samples.setup)
        result["host_scale"] = median_or_zero(
            samples.scale(rec.spans[i][1] / 1e9, rec.spans[i][2] / 1e9)
            for lo, hi in untraced for i in range(lo, hi) if rec.spans[i][0] == "bench.frame")
        result["setup_runs_s"] = [ready - spawned for spawned, ready in samples.setup]
        result["host_runs_s"] = [k for _, k in samples.host]
    if trace:
        result["layers"] = {name: median_or_zero(p[name] for p in layers if name in p) for name in PER_LAYER}
        builds = [(e - s) / 1e6 for name, s, e, _ in rec.spans if name == "codebook.build"]
        result["layers"]["codebook.build_ms"] = median_or_zero(builds)
        result["layers"]["trace.untraced_frame_ms"] = result["timings"]["frame_s"] * 1e3
        result["layers"]["trace.overhead_ms"] = (result["layers"].get("trace.frame_ms", 0.0)
                                                 - result["layers"]["trace.untraced_frame_ms"])
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = bool(args.trace)

    rec = Recorder()
    installed = Installed(rec) if trace else None
    wl = make_workload(args.workload, args.seed, trace)
    if installed is not None:
        installed.restore()
        rec.deferred.clear()       # set-up counters are not part of any pass
    try:
        samples = None if trace else Samples(args.workload)
        result = run(wl, args.seconds, trace, rec, samples=samples)
        if trace:
            imports = wl.import_ms if args.workload == "desk_cli" else [import_probe()]
            for key in ("cli.import_ms", "codebook.import_ms", "optics.import_ms"):
                result["layers"][key] = statistics.median(m[key] for m in imports) if imports else 0.0
    finally:
        wl.close()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "desk_cli" else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
