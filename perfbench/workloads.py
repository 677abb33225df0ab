"""Inputs, passes and correctness checks of the benchmark workloads.

Every input is generated here from the workload seed; the library only ever
sees the generated arrays and files.  A pass records its stages as spans on
a `tracer.Recorder` (``bench.frame`` around the timed pass, ``bench.encode``,
``bench.decode`` and ``bench.readout`` around the steps each end-to-end
metric covers, and ``bench.pause`` around work of the benchmark's own that a
pass leaves out of its times), and `check` returns the reasons a pass
failed, if any.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dmdstego import codebook as codebook_mod
from dmdstego import modulator, optics, stego
from dmdstego.modulator import COVERING_RADIUS
from dmdstego.superpixel import BLOCK, MAX_MODULUS

from tracer import parse_importtime

WAVELENGTH = 520e-9
MIRROR_PITCH = 7.56e-6
FULL_GRID, FULL_DISTANCE = (270, 480), 0.2
DESK_GRID, DESK_DISTANCE = (128, 128), 0.05
PAYLOAD_FRACTION = 0.9
PEAK = 0.8 * MAX_MODULUS              # the normalization target of the library
ORACLE_SAMPLES = 4096                 # full_frame samples checked by linear scan
CLI_TIMEOUT_S = 60

# Sub-seed tags: each input drawn from the workload seed gets its own stream.
_PAYLOAD, _KEY, _SAMPLE = 1, 2, 4

PERFBENCH = Path(__file__).resolve().parent


def seeded(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def key_seed(seed: int) -> int:
    return int(seeded(seed, _KEY).integers(0, 1 << 64, dtype=np.uint64))


def make_object(shape) -> np.ndarray:
    """Amplitude object in [0, 1]: vertical bars, a bright disk and a gradient patch."""
    h, w = shape
    y, x = np.mgrid[0:h, 0:w]
    obj = np.where((x // max(w // 16, 1)) % 2 == 0, 0.35, 0.0)
    obj[(x - 0.3 * w) ** 2 + (y - 0.35 * h) ** 2 < (0.18 * min(h, w)) ** 2] = 1.0
    r0, r1, c0, c1 = int(0.55 * h), int(0.9 * h), int(0.55 * w), int(0.9 * w)
    obj[r0:r1, c0:c1] = np.linspace(0.2, 0.9, c1 - c0)
    return obj


def to_u8(amplitude: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(amplitude * (255.0 / amplitude.max())), 0, 255).astype(np.uint8)


def scan_nearest(values: np.ndarray, targets: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Reference quantizer: linear scan over all codebook values, first minimum wins."""
    flat = np.asarray(targets, dtype=np.complex128).ravel()
    out = np.empty(flat.size, dtype=np.int64)
    for lo in range(0, flat.size, chunk):
        out[lo:lo + chunk] = np.argmin(np.abs(values[None, :] - flat[lo:lo + chunk, None]), axis=1)
    return out


def ready_codebook():
    """The codebook with its kd-tree built, as after set-up."""
    cb = codebook_mod.build_codebook()
    cb.nearest_values(np.zeros(1, dtype=np.complex128))
    return cb


def _differs(out: dict, first: dict) -> list:
    return [f"{name} differs from the first pass" for name in first
            if not np.array_equal(np.asarray(out[name]), np.asarray(first[name]))]


class FullFrame:
    """ROADMAP reference frame: hologram, keyed embed, extract, decode, readout."""

    name = "full_frame"

    def __init__(self, seed: int, grid=FULL_GRID):
        self.cb = ready_codebook()
        self.grid = grid
        self.params = optics.PropagationParams(WAVELENGTH, FULL_DISTANCE, BLOCK * MIRROR_PITCH)
        self.obj = make_object((2 * grid[0], 2 * grid[1]))
        holo = optics.generate_hologram(self.obj, self.params, grid, diffuser_seed=0)
        plan = modulator.quantize_field(modulator.normalize_field(holo)[0], self.cb)
        capacity = int(self.cb.capacities[plan].sum())
        n_bits = int(PAYLOAD_FRACTION * (capacity - stego.HEADER_BITS))
        self.payload = seeded(seed, _PAYLOAD).integers(0, 2, n_bits, dtype=np.uint8)
        self.key = stego.StegoKey(key_seed(seed))
        self.target = to_u8(np.abs(optics.resample_bilinear(self.obj, grid)))
        size = grid[0] * grid[1]
        self.sample = seeded(seed, _SAMPLE).choice(size, min(ORACLE_SAMPLES, size), replace=False)

    def inputs(self) -> dict:
        return {"obj": self.obj, "payload": self.payload, "key": self.key.seed, "sample": self.sample}

    def run_pass(self, rec, pause=None) -> dict:
        with rec.span("bench.frame"):
            with rec.span("bench.hologram"):
                holo = optics.generate_hologram(self.obj, self.params, self.grid, diffuser_seed=0)
            with rec.span("bench.encode"):
                scaled, _ = modulator.normalize_field(holo)
                plan = modulator.quantize_field(scaled, self.cb)
                mirrors = stego.embed(plan, self.payload, self.key, self.cb, fill="random")
            with rec.span("bench.decode"):
                recovered = stego.extract(mirrors, self.key, self.cb)
                decoded_plan, values = modulator.decode_field(mirrors, self.cb)
            with rec.span("bench.readout"):
                recon = optics.reconstruct(values, self.params)
                filtered = optics.simulate_4f(mirrors)
                score = optics.ssim(recon, self.target)
        return {"scaled": scaled, "plan": plan, "mirrors": mirrors, "recovered": recovered,
                "decoded_plan": decoded_plan, "values": values, "recon": recon,
                "filtered": filtered, "ssim": score}

    def check(self, out: dict, first: dict | None) -> list:
        problems = []
        if not np.array_equal(out["recovered"], self.payload):
            problems.append("payload not recovered bit-exact")
        if not np.array_equal(out["decoded_plan"], out["plan"]):
            problems.append("decode_field plan differs from the quantized plan")
        if first is not None:
            return problems + _differs(out, first)
        oracle = scan_nearest(self.cb.values, out["scaled"].ravel()[self.sample])
        if not np.array_equal(out["plan"].ravel()[self.sample], oracle):
            problems.append("plan differs from the linear-scan quantizer")
        if quant_error_max(out) > COVERING_RADIUS:
            problems.append("quantization error exceeds COVERING_RADIUS")
        return problems

    def quality(self, out: dict) -> dict:
        return {"reconstruction_ssim": float(out["ssim"]),
                "filter_correlation": optics.field_correlation(out["filtered"], out["values"]),
                "quant_error_max": quant_error_max(out)}

    def corrupt(self, out: dict) -> None:
        out["mirrors"][0, 0] ^= 1

    def close(self) -> None:
        pass


def quant_error_max(out: dict) -> float:
    return float(np.abs(out["scaled"] - out["values"]).max())


def write_pgm(path: Path, image: np.ndarray) -> None:
    h, w = image.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + image.tobytes())


def read_pgm(path: Path) -> np.ndarray:
    magic, size, maxval, raster = path.read_bytes().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path.name} is not an 8-bit binary PGM")
    w, h = map(int, size.split())
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def read_cfld(path: Path) -> np.ndarray:
    data = path.read_bytes()
    w, h = np.frombuffer(data, dtype="<u4", count=2, offset=5)
    parts = np.frombuffer(data, dtype="<f8", offset=17).reshape(int(h), int(w), 2)
    return parts[..., 0] + 1j * parts[..., 1]


# (stage span, subcommand); the readout covers the last three processes.
DESK_STEPS = (
    ("bench.hologram", "hologram"),
    ("bench.encode", "embed"),
    ("bench.decode", "extract"),
    ("bench.decode", "decode"),
    ("bench.readout", "reconstruct"),
    ("bench.readout", "sim4f"),
    ("bench.readout", "ssim"),
)
DESK_OUTPUTS = ("holo.cfld", "pattern.pbm", "recovered.bin", "decoded.cfld", "recon.pgm", "filtered.cfld")


class DeskCli:
    """Desk geometry through seven fresh `python -m dmdstego` processes per pass."""

    name = "desk_cli"

    def __init__(self, seed: int, root: Path, traced: bool = False):
        self.cb = ready_codebook()
        scratch = root / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="desk_cli_", dir=scratch))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced = traced
        self.import_ms = []
        obj = to_u8(make_object((2 * DESK_GRID[0], 2 * DESK_GRID[1])))
        write_pgm(self.dir / "object.pgm", obj)
        params = optics.PropagationParams(WAVELENGTH, DESK_DISTANCE, BLOCK * MIRROR_PITCH)
        holo = optics.generate_hologram(obj, params, DESK_GRID, diffuser_seed=0)
        plan = modulator.quantize_field(modulator.normalize_field(holo)[0], self.cb)
        capacity = int(self.cb.capacities[plan].sum())
        n_bytes = int(PAYLOAD_FRACTION * (capacity - stego.HEADER_BITS)) // 8
        self.payload = seeded(seed, _PAYLOAD).integers(0, 256, n_bytes, dtype=np.uint8).tobytes()
        (self.dir / "payload.bin").write_bytes(self.payload)
        target = to_u8(np.abs(optics.resample_bilinear(obj.astype(np.float64), DESK_GRID)))
        write_pgm(self.dir / "target.pgm", target)
        key = f"{key_seed(seed):016x}"
        geometry = ["--wavelength", repr(WAVELENGTH), "--distance", repr(DESK_DISTANCE),
                    "--pitch", repr(MIRROR_PITCH)]
        self.argv = {
            "hologram": ["--input", "object.pgm", "--output", "holo.cfld", *geometry,
                         "--superpixels", f"{DESK_GRID[1]}x{DESK_GRID[0]}"],
            "embed": ["--input", "holo.cfld", "--payload", "payload.bin", "--output", "pattern.pbm",
                      "--key", key, "--fill", "random"],
            "extract": ["--input", "pattern.pbm", "--output", "recovered.bin", "--key", key],
            "decode": ["--input", "pattern.pbm", "--output", "decoded.cfld"],
            "reconstruct": ["--input", "decoded.cfld", "--output", "recon.pgm", *geometry],
            "sim4f": ["--input", "pattern.pbm", "--output", "filtered.cfld", "--compare", "decoded.cfld"],
            "ssim": ["--input", "recon.pgm", "--reference", "target.pgm"],
        }

    def inputs(self) -> dict:
        return {name: (self.dir / name).read_bytes() for name in ("object.pgm", "payload.bin", "target.pgm")} | {
            "argv": self.argv}

    def _run(self, rec, command: str) -> dict:
        argv = [command, *self.argv[command]]
        if self.traced:
            trace_file = self.dir / f"trace_{command}.json"
            cmd = [sys.executable, "-X", "importtime", str(PERFBENCH / "cli_shim.py"), str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "dmdstego", *argv]
        index = rec.open(f"cli.{command}")
        try:
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        finally:
            rec.close(index)
        stderr = proc.stderr
        if self.traced:
            imports, rest = parse_importtime(stderr)
            stderr = "\n".join(rest)
            self.import_ms.append(imports)
            rec.deferred.append(lambda: self._adopt(rec, trace_file, index))
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": stderr}

    @staticmethod
    def _adopt(rec, trace_file: Path, index: int) -> None:
        child = json.loads(trace_file.read_text())
        rec.adopt(child["spans"], index)
        rec.counts.update(child["counts"])

    def run_pass(self, rec, pause=None) -> dict:
        """Run the seven commands; `pause`, if given, is called between them."""
        procs = {}
        with rec.span("bench.frame"):
            for step, (stage, command) in enumerate(DESK_STEPS):
                if step and pause:
                    pause()
                with rec.span(stage):
                    procs[command] = self._run(rec, command)
        out = {f"{c}.stdout": p["stdout"] for c, p in procs.items()}
        out["procs"] = procs
        for name in DESK_OUTPUTS:
            path = self.dir / name
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        return out

    def check(self, out: dict, first: dict | None) -> list:
        problems = [f"{c} exited {p['returncode']}" for c, p in out["procs"].items() if p["returncode"]]
        problems += [f"{c} wrote to stderr: {p['stderr'][:200]!r}" for c, p in out["procs"].items() if p["stderr"]]
        if problems:
            return problems
        if (self.dir / "recovered.bin").read_bytes() != self.payload:
            problems.append("payload not recovered bit-exact")
        if json.loads(out["embed.stdout"])["payload_bits"] != 8 * len(self.payload):
            problems.append("embed report has the wrong payload size")
        if first is not None:
            return problems + [f"{k} differs from the first pass" for k in first
                               if k != "procs" and out[k] != first[k]]
        holo = read_cfld(self.dir / "holo.cfld")
        scaled = holo * (PEAK / np.abs(holo).max())
        decoded = read_cfld(self.dir / "decoded.cfld")
        if not np.array_equal(decoded.ravel(), self.cb.values[scan_nearest(self.cb.values, scaled)]):
            problems.append("decoded field differs from the linear-scan quantizer")
        quality = self.quality(out)
        if quality["quant_error_max"] > COVERING_RADIUS:
            problems.append("quantization error exceeds COVERING_RADIUS")
        if out["ssim.stdout"].strip() != f"{quality['reconstruction_ssim']:.4f}":
            problems.append("ssim report differs from the SSIM of the written images")
        return problems

    def quality(self, out: dict) -> dict:
        holo = read_cfld(self.dir / "holo.cfld")
        decoded = read_cfld(self.dir / "decoded.cfld")
        score = optics.ssim(read_pgm(self.dir / "recon.pgm"), read_pgm(self.dir / "target.pgm"))
        return {"reconstruction_ssim": float(score),
                "filter_correlation": float(json.loads(out["sim4f.stdout"])["correlation"]),
                "quant_error_max": float(np.abs(holo * (PEAK / np.abs(holo).max()) - decoded).max())}

    def corrupt(self, out: dict) -> None:
        out["pattern.pbm"] = "0" * 64

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):        # other runs may still use it
            self.dir.parent.rmdir()
