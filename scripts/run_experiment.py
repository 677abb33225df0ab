"""End-to-end demonstration: object -> hologram -> mirror pattern with a
hidden payload -> extraction -> numerical reconstruction -> quality report.

Two geometries are provided: a small "desk" setup (128x128 superpixels,
5 cm) that runs in well under a second, and the "full" DMD frame
(1920x1080 mirrors = 480x270 superpixels, 20 cm).

Usage:
    python3 scripts/run_experiment.py --geometry desk
    python3 scripts/run_experiment.py --geometry full --outdir artifacts/
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from dmdstego.codebook import build_codebook
from dmdstego.modulator import decode_field, normalize_field, quantize_field
from dmdstego.optics import (
    ApertureSpec,
    PropagationParams,
    field_correlation,
    generate_hologram,
    reconstruct,
    resample_bilinear,
    simulate_4f,
    ssim,
)
from dmdstego.stego import StegoKey, capacity_of_plan, embed, extract
from dmdstego.superpixel import BLOCK
from dmdstego.formats import write_field, write_image, write_pattern

GEOMETRIES = {
    # name: (superpixel grid (rows, cols), distance m)
    "desk": ((128, 128), 0.05),
    "full": ((270, 480), 0.2),
}
WAVELENGTH = 520e-9
MIRROR_PITCH = 7.56e-6


def make_object(shape):
    """Bars, a disk, and a gradient patch; enough structure for SSIM."""
    h, w = shape
    y, x = np.mgrid[0:h, 0:w]
    img = np.zeros((h, w))
    img[(x // max(w // 16, 1)) % 2 == 0] = 0.35
    img[((x - w * 0.3) ** 2 + (y - h * 0.35) ** 2) < (min(h, w) * 0.18) ** 2] = 1.0
    sl = np.s_[int(h * 0.55):int(h * 0.9), int(w * 0.55):int(w * 0.9)]
    img[sl] = np.linspace(0.2, 0.9, img[sl].shape[1])[None, :]
    return img


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--geometry", choices=sorted(GEOMETRIES), default="desk")
    ap.add_argument("--key", default="00000000c0ffee42", help="16 hex digits")
    ap.add_argument("--payload-fraction", type=float, default=0.9,
                    help="fraction of usable capacity to fill")
    ap.add_argument("--outdir", default=None, help="write artifacts here")
    args = ap.parse_args()

    grid, distance = GEOMETRIES[args.geometry]
    params = PropagationParams(wavelength=WAVELENGTH, distance=distance,
                               pitch=BLOCK * MIRROR_PITCH)
    key = StegoKey.from_hex(args.key)
    t0 = time.perf_counter()

    codebook = build_codebook()
    obj = make_object((grid[0] * 2, grid[1] * 2))
    holo = generate_hologram(obj, params, grid, diffuser_seed=0)

    scaled, scale = normalize_field(holo)
    plan = quantize_field(scaled, codebook)
    cap = capacity_of_plan(plan, codebook)
    n_bits = int((cap - 32) * args.payload_fraction)
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 2, n_bits, dtype=np.uint8)

    mirrors = embed(plan, payload, key, codebook, fill="random")
    recovered = extract(mirrors, key, codebook)
    ok = bool(np.array_equal(recovered, payload))

    _, values = decode_field(mirrors, codebook)
    recon = reconstruct(values, params)

    target = np.abs(resample_bilinear(obj, grid))
    target = np.clip(np.rint(target * (255.0 / target.max())), 0, 255).astype(np.uint8)
    quality = ssim(recon, target)

    filtered = simulate_4f(mirrors, ApertureSpec())
    corr = field_correlation(filtered, values)

    report = {
        "geometry": args.geometry,
        "superpixels": list(grid),
        "mirrors": [grid[0] * BLOCK, grid[1] * BLOCK],
        "capacity_bits": cap,
        "payload_bits": n_bits,
        "payload_recovered": ok,
        "normalization_scale": scale,
        "reconstruction_ssim": round(quality, 4),
        "filter_correlation": round(corr, 4),
        "seconds": round(time.perf_counter() - t0, 2),
    }
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.outdir:
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_image(out / "object.pgm", (obj * 255 / obj.max()).astype(np.uint8))
        write_field(out / "hologram.cfld", holo)
        write_pattern(out / "pattern.pbm", mirrors)
        write_image(out / "reconstruction.pgm", recon)
        print(f"artifacts written to {out}/")

    if not ok:
        raise SystemExit("payload round trip FAILED")


if __name__ == "__main__":
    main()
