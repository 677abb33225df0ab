"""dmdstego benchmark: run a workload, check its outputs and print every metric.

Usage, from the root of a checkout (the library is loaded from ./src):

    python3 perfbench/run.py --workload full_frame --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --out bench_result.json

Workloads (see BENCHMARK.json for why each was chosen):
  full_frame       1080x1920-mirror frame: hologram, keyed embed, extract,
                   decode, reconstruction, 4f readout and SSIM in-process
  desk_cli         128x128-superpixel desk geometry run as seven fresh
                   `python -m dmdstego` processes per pass

Each workload runs in its own fresh worker process (worker.py), with one
OpenBLAS/OpenMP thread.  With --trace 0 the last line of stdout is the JSON
result with every end-to-end metric; --trace 1 gives the per-layer metrics
of a traced run instead.  Set-up time is the median of fresh interpreters
timed between the passes, each from spawn until the workload's imports,
codebook and kd-tree are ready.

End-to-end times are wall times scaled to a reference host speed by a
fixed kernel timed around the passes (worker.Samples): a shared host
changes speed by tens of percent, and the scaling takes that out while it
leaves the program's own changes whole.  The unscaled wall times are
printed, and written with --out, beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, NAME, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("full_frame", "desk_cli")
RUN_BUDGET_S = 170          # a run must end within 180 s

# Mirror-plane and superpixel-plane grids of each workload, for computed sizes.
_GRIDS = {"full_frame": (270, 480), "desk_cli": (128, 128)}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != END_TO_END or declared_layers != PER_LAYER:
        raise ValueError("metric names or units in BENCHMARK.json differ from perfbench/metrics.py")
    bad = [n for n in [*END_TO_END, *PER_LAYER] if not NAME.match(n)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    return spec


def child_env() -> dict:
    # The library makes next to no BLAS calls; idle pool threads spinning on
    # the few cores of a small machine only add noise.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def environment(workload: str) -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu_model"] = "unknown"
    try:
        env["l3_bytes"] = _cache_bytes(Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text())
    except (OSError, ValueError):
        env["l3_bytes"] = None
    h, w = _GRIDS[workload]
    mirrors = 16 * h * w
    # Computed from array shapes, not measured: the largest arrays of a pass.
    env["computed_bytes"] = {
        "mirror_plane_complex128": mirrors * 16,
        "mirror_plane_float64": mirrors * 8,
        "mirrors_uint8": mirrors,
        "superpixel_field_complex128": h * w * 16,
        "plan_int64": h * w * 8,
    }
    return env


def _cache_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    worker = run_worker(workload, seed, seconds, trace, deadline)
    if trace:
        names, units = worker["layers"], PER_LAYER
    else:
        names = {**worker["timings"], "peak_rss_mb": worker["peak_rss_mb"], **worker["quality"]}
        units = END_TO_END
    if set(names) != set(units):
        raise RuntimeError(f"{workload} produced metrics {sorted(set(names) ^ set(units))} "
                           "that do not match BENCHMARK.json")
    metrics = {name: {"value": names[name], "unit": unit} for name, unit in units.items()}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": {**environment(workload), **worker["versions"]},
              **{key: worker.get(key) for key in ("host_scale", "wall_s", "setup_runs_s", "host_runs_s")},
              "passes": worker["passes"], "pass_frame_s": worker["pass_frame_s"],
              "failure_rate": {"failed": worker["failed"], "attempted": worker["attempted"]},
              "problems": worker["problems"], "absent": worker["absent"]}
    result = {"correct": worker["failed"] == 0 and worker["attempted"] > 0,
              "attempted": worker["attempted"], "failed": worker["failed"], "metrics": metrics}
    return {"detail": detail, "result": result}


def report(run: dict) -> None:
    detail, result = run["detail"], run["result"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"passes={detail['passes']} failed={result['failed']}/{result['attempted']}")
    print("# environment " + json.dumps(detail["environment"], sort_keys=True))
    for problem in detail["problems"]:
        print(f"# FAILED {problem}")
    if detail["host_scale"] is not None:
        print(f"# median host scale {detail['host_scale']:.4f}; unscaled wall s: "
              + ", ".join(f"{k} {v:.4f}" for k, v in detail["wall_s"].items()))
    if detail["absent"]:
        print("# absent (reported as 0): " + ", ".join(detail["absent"]))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=None, help="input seed (default: perfbench/pins.json)")
    ap.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the detailed results to this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dmdstego" / "__init__.py").is_file():
        return fail(f"no dmdstego sources under {ROOT / 'src'}; run from the root of a checkout")
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        return fail(f"cannot use BENCHMARK.json: {exc}")
    seed = args.seed if args.seed is not None else json.loads((HERE / "pins.json").read_text())["default_seed"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            runs.append(run_one(name, seed, seconds, args.trace, deadline))
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            return fail(f"{name}: {exc}")
        report(runs[-1])
    if args.out:
        Path(args.out).write_text(json.dumps([r["detail"] | r["result"] for r in runs], indent=1) + "\n")
    for r in runs:
        print(json.dumps(r["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
