"""Command-line front end.

Subcommands cover the full workflow: hologram synthesis from an intensity
image, binary pattern encoding, keyed data embedding and extraction,
pattern decoding, capacity reports, numerical reconstruction, the 4f
filter simulation, and SSIM scoring.  Reports go to stdout as JSON with
sorted keys; artifacts go to files.  Exit codes: 0 success, 1 I/O errors
or bad input data, 2 capacity or usage errors (including out-of-range flag
values), each failure reported as one "error:" line on stderr.  `run` is
the process entry of `python -m dmdstego` and the `dmdstego` script; a report
that cannot be written to stdout exits 1 there.

--pitch is always the micromirror pitch; commands operating on fields
sampled at one value per 4x4 block scale it internally.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .codebook import STRATEGIES, build_codebook
from .formats import (
    read_field,
    read_image,
    read_pattern,
    write_field,
    write_image,
    write_pattern,
    write_report,
)
from .modulator import (
    NormalizationParams,
    decode_field,
    normalize_field,
    quantize_field,
    select_patterns,
)
from .optics import (
    AliasingGuardWarning,
    ApertureSpec,
    PropagationParams,
    _check_geometry,
    field_correlation,
    generate_hologram,
    reconstruct,
    simulate_4f,
    ssim,
)
from .rng import check_seed
from .stego import (
    HEADER_BITS,
    PayloadTooLargeError,
    StegoKey,
    bits_to_bytes,
    bytes_to_bits,
    capacity_of_plan,
    embed,
    extract,
)
from .superpixel import BLOCK, DEFAULT_ASSIGNMENT, PhaseAssignment, codes_to_mirrors


class UsageError(ValueError):
    pass


def _checked(parse):
    """argparse type running `parse` on the flag text; its ValueError is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


# Flag bounds are checked by the parameter classes themselves, not repeated here.
_key_type = _checked(StegoKey.from_hex)
_assignment_type = _checked(PhaseAssignment.from_string)
_alpha_type = _checked(lambda text: NormalizationParams(float(text)).peak_fraction)
_wavelength_type = _checked(lambda text: PropagationParams(float(text), 0.0, 1.0).wavelength)
_pitch_type = _checked(lambda text: PropagationParams(1.0, 0.0, float(text)).pitch)
_distance_type = _checked(lambda text: PropagationParams(1.0, float(text), 1.0).distance)
_radius_type = _checked(lambda text: ApertureSpec(radius=float(text)).radius)
_seed_type = _checked(lambda text: check_seed(int(text)))


def _superpixels_type(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_center(text: str) -> tuple[float, float]:
    try:
        fx, fy = map(float, text.split(","))
    except ValueError:
        raise ValueError(f"expected FX,FY, got {text!r}") from None
    return ApertureSpec(center=(fx, fy)).center


_center_type = _checked(_parse_center)


def _emit(report: dict) -> None:
    print(write_report(report))


def _propagation(args, shape: tuple[int, int]) -> PropagationParams:
    """The geometry flags for a field of `shape`; a geometry that grid cannot carry is a usage error."""
    params = PropagationParams(wavelength=args.wavelength, distance=args.distance, pitch=args.pitch * BLOCK)
    try:
        _check_geometry(params, shape)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return params


def _collect_warnings(caught) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, AliasingGuardWarning)]


def _quantize(field: np.ndarray, args):
    """Codebook of --assignment, and the plan and scale of `field` normalized by --alpha."""
    codebook = build_codebook(args.assignment)
    scaled, scale = normalize_field(field, NormalizationParams(peak_fraction=args.alpha))
    return codebook, quantize_field(scaled, codebook), scale


def cmd_hologram(args) -> int:
    obj = read_image(args.input)
    width, height = args.superpixels
    params = _propagation(args, (height, width))
    seed = None if args.no_diffuser else args.diffuser_seed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingGuardWarning)
        field = generate_hologram(obj, params, (height, width), diffuser_seed=seed)
    write_field(args.output, field)
    _emit({
        "alias_free_distance": min(params.alias_free_distance(height), params.alias_free_distance(width)),
        "height": height,
        "warnings": _collect_warnings(caught),
        "width": width,
    })
    return 0


def cmd_encode(args) -> int:
    if args.strategy == "random" and args.key is None:
        raise UsageError("--key is required with --strategy random")
    codebook, plan, scale = _quantize(read_field(args.input), args)
    mirrors = codes_to_mirrors(select_patterns(plan, codebook, args.strategy, args.key))
    write_pattern(args.output, mirrors)
    _emit({"height": mirrors.shape[0], "scale": scale, "width": mirrors.shape[1]})
    return 0


def cmd_embed(args) -> int:
    field = read_field(args.input)
    with open(args.payload, "rb") as payload_file:
        codebook, plan, scale = _quantize(field, args)
        capacity = capacity_of_plan(plan, codebook)
        # Refuse an oversized payload by its file size, before it is read and unpacked.
        size_bits = 8 * os.fstat(payload_file.fileno()).st_size
        if HEADER_BITS + size_bits > capacity:
            raise PayloadTooLargeError(size_bits, capacity)
        # A pipe reports no size: read one byte more than fits, and refuse it if that arrives.
        fits = (capacity - HEADER_BITS) // 8
        payload = payload_file.read(fits + 1)
        if len(payload) > fits:
            raise UsageError(f"payload of more than {8 * fits} bits does not fit: plan capacity is "
                             f"{capacity} bits and {HEADER_BITS} are reserved for the header")
    mirrors = embed(plan, bytes_to_bits(payload), args.key, codebook, fill=args.fill)
    write_pattern(args.output, mirrors)
    _emit({
        "capacity_bits": capacity,
        "payload_bits": 8 * len(payload),
        "scale": scale,
    })
    return 0


def cmd_extract(args) -> int:
    mirrors = read_pattern(args.input)
    codebook = build_codebook(args.assignment)
    bits = extract(mirrors, args.key, codebook)
    Path(args.output).write_bytes(bits_to_bytes(bits))
    _emit({"payload_bits": int(bits.size)})
    return 0


def cmd_decode(args) -> int:
    mirrors = read_pattern(args.input)
    codebook = build_codebook(args.assignment)
    _, values = decode_field(mirrors, codebook)
    write_field(args.output, values)
    _emit({"height": values.shape[0], "width": values.shape[1]})
    return 0


def cmd_capacity(args) -> int:
    codebook, plan, _ = _quantize(read_field(args.input), args)
    _emit({"capacity_bits": capacity_of_plan(plan, codebook)})
    return 0


def cmd_reconstruct(args) -> int:
    field = read_field(args.input)
    params = _propagation(args, field.shape)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingGuardWarning)
        image = reconstruct(field, params)
    write_image(args.output, image)
    _emit({
        "height": image.shape[0],
        "warnings": _collect_warnings(caught),
        "width": image.shape[1],
    })
    return 0


def cmd_sim4f(args) -> int:
    center = args.aperture_center
    if center is None:
        # The default center is the default assignment's carrier; under another
        # assignment the readout would be far from the block values.
        if args.assignment not in (None, DEFAULT_ASSIGNMENT):
            raise UsageError("--assignment other than the default needs --aperture-center")
        center = ApertureSpec().center
    mirrors = read_pattern(args.input)
    aperture = ApertureSpec(center=center, radius=args.aperture_radius)
    out = simulate_4f(mirrors, aperture=aperture, assignment=args.assignment)
    report = {"height": out.shape[0], "width": out.shape[1]}
    if args.compare is not None:
        report["correlation"] = field_correlation(out, read_field(args.compare))
    write_field(args.output, out)
    _emit(report)
    return 0


def cmd_ssim(args) -> int:
    score = ssim(read_image(args.input), read_image(args.reference))
    print(f"{score:.4f}")
    return 0


def _add_geometry(sub) -> None:
    sub.add_argument("--wavelength", type=_wavelength_type, required=True, help="illumination wavelength in meters")
    sub.add_argument("--distance", type=_distance_type, required=True, help="propagation distance in meters")
    sub.add_argument("--pitch", type=_pitch_type, required=True, help="micromirror pitch in meters")


def _add_assignment(sub) -> None:
    sub.add_argument("--assignment", type=_assignment_type, default=None,
                     help="phase assignment override: 16 comma-separated indices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmdstego",
                                     description="Superpixel DMD modulation with keyed data hiding.")
    subs = parser.add_subparsers(dest="command", required=True)
    default_aperture = ApertureSpec()

    p = subs.add_parser("hologram", help="compute a hologram field from an intensity image")
    p.add_argument("--input", required=True, help="object image (PGM)")
    p.add_argument("--output", required=True, help="output field (CFLD)")
    _add_geometry(p)
    p.add_argument("--superpixels", type=_superpixels_type, required=True,
                   help="target grid as WIDTHxHEIGHT, e.g. 480x270")
    p.add_argument("--diffuser-seed", type=_seed_type, default=0, help="random phase seed (default 0)")
    p.add_argument("--no-diffuser", action="store_true", help="disable the random phase diffuser")
    p.set_defaults(func=cmd_hologram)

    p = subs.add_parser("encode", help="turn a complex field into a binary mirror pattern")
    p.add_argument("--input", required=True, help="input field (CFLD)")
    p.add_argument("--output", required=True, help="output pattern (PBM)")
    p.add_argument("--alpha", type=_alpha_type, default=0.8, help="peak modulus fraction (default 0.8)")
    p.add_argument("--strategy", choices=STRATEGIES, default="min", help="pattern choice within each group")
    p.add_argument("--key", type=_key_type, default=None, help="16 hex digits; required for --strategy random")
    _add_assignment(p)
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("embed", help="encode a field while hiding a payload in the pattern choices")
    p.add_argument("--input", required=True, help="input field (CFLD)")
    p.add_argument("--payload", required=True, help="payload file to hide")
    p.add_argument("--output", required=True, help="output pattern (PBM)")
    p.add_argument("--key", type=_key_type, required=True, help="16 hex digits")
    p.add_argument("--alpha", type=_alpha_type, default=0.8, help="peak modulus fraction (default 0.8)")
    p.add_argument("--fill", choices=STRATEGIES, default="min", help="pattern choice after the payload ends")
    _add_assignment(p)
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("extract", help="recover a hidden payload from a mirror pattern")
    p.add_argument("--input", required=True, help="input pattern (PBM)")
    p.add_argument("--output", required=True, help="recovered payload file")
    p.add_argument("--key", type=_key_type, required=True, help="16 hex digits")
    _add_assignment(p)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("decode", help="recover the complex field a pattern modulates")
    p.add_argument("--input", required=True, help="input pattern (PBM)")
    p.add_argument("--output", required=True, help="output field (CFLD)")
    _add_assignment(p)
    p.set_defaults(func=cmd_decode)

    p = subs.add_parser("capacity", help="report the hiding capacity of a field")
    p.add_argument("--input", required=True, help="input field (CFLD)")
    p.add_argument("--alpha", type=_alpha_type, default=0.8, help="peak modulus fraction (default 0.8)")
    _add_assignment(p)
    p.set_defaults(func=cmd_capacity)

    p = subs.add_parser("reconstruct", help="back-propagate a field to an 8-bit image")
    p.add_argument("--input", required=True, help="input field (CFLD)")
    p.add_argument("--output", required=True, help="output image (PGM)")
    _add_geometry(p)
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("sim4f", help="simulate the 4f spatial filter on a mirror pattern")
    p.add_argument("--input", required=True, help="input pattern (PBM)")
    p.add_argument("--output", required=True, help="output field (CFLD)")
    p.add_argument("--aperture-center", type=_center_type, default=None,
                   help="aperture center as FX,FY in cycles per mirror (default %s,%s, the default "
                        "assignment's carrier; required with another --assignment); a negative FX needs "
                        "the --aperture-center=FX,FY form, e.g. --aperture-center=-0.0625,-0.25"
                        % default_aperture.center)
    p.add_argument("--aperture-radius", type=_radius_type, default=default_aperture.radius,
                   help="aperture radius in cycles per mirror")
    p.add_argument("--compare", default=None, help="field (CFLD) to correlate the output against")
    _add_assignment(p)
    p.set_defaults(func=cmd_sim4f)

    p = subs.add_parser("ssim", help="print the SSIM score of two images")
    p.add_argument("--input", required=True, help="image (PGM)")
    p.add_argument("--reference", required=True, help="reference image (PGM)")
    p.set_defaults(func=cmd_ssim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # A MemoryError comes from an array sized by a flag, such as a huge --superpixels grid.
    except (PayloadTooLargeError, UsageError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Run `main` on the command line as a whole process, and end it.

    Every output file is written and closed before `main` returns, so the
    process is done then.  stdout is flushed here, where a report that
    cannot be written (a full disk, a closed pipe) still exits 1 with one
    "error:" line; fd 1 then points at os.devnull, so the interpreter's own
    flush at exit does not fail again.  `gc.freeze()` keeps the shutdown
    collections from walking the objects numpy and the package leave
    tracked, which took most of the time after `main` returned.  Reference
    counting, atexit handlers and the stream flushes still run.  In-process
    callers use `main`, which keeps a normal collector.
    """
    try:
        try:
            status = main()
        finally:
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 1
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
