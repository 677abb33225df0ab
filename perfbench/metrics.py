"""Names, units and sources of every metric the benchmark prints.

Only the standard library is used, so the orchestrator can validate names
without importing numpy or dmdstego.  BENCHMARK.json lists the same names;
`run.py` refuses to print a result whose names differ from it.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter

from tracer import CLI_COMMANDS, span_table

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END = {
    "setup_s": "s",
    "frame_s": "s",
    "encode_s": "s",
    "decode_s": "s",
    "readout_s": "s",
    "peak_rss_mb": "MB",
    "reconstruction_ssim": "1",
    "filter_correlation": "1",
    "quant_error_max": "1",
}

# Per pass, from the traced spans: (unit, field of span_table, span name).
_SPAN_METRICS = {
    "rng.permutation_ms": ("ms", "ms", "rng.permutation"),
    "rng.permutation_calls": ("count", "calls", "rng.permutation"),
    "stego.embed_ms": ("ms", "ms", "stego.embed"),
    "stego.embed_self_ms": ("ms", "self_ms", "stego.embed"),
    "stego.extract_ms": ("ms", "ms", "stego.extract"),
    "stego.extract_self_ms": ("ms", "self_ms", "stego.extract"),
    "codebook.nearest_values_ms": ("ms", "ms", "codebook.nearest_values"),
    "codebook.builds": ("count", "calls", "codebook.build"),
    "modulator.normalize_ms": ("ms", "ms", "modulator.normalize"),
    "modulator.quantize_ms": ("ms", "ms", "modulator.quantize"),
    "modulator.select_patterns_ms": ("ms", "ms", "modulator.select_patterns"),
    "modulator.decode_ms": ("ms", "ms", "modulator.decode"),
    "superpixel.codes_to_mirrors_ms": ("ms", "ms", "superpixel.codes_to_mirrors"),
    "superpixel.mirrors_to_codes_ms": ("ms", "ms", "superpixel.mirrors_to_codes"),
    "optics.simulate_4f_ms": ("ms", "ms", "optics.simulate_4f"),
    "optics.fresnel_propagate_ms": ("ms", "ms", "optics.fresnel_propagate"),
    "optics.fresnel_calls": ("count", "calls", "optics.fresnel_propagate"),
    "optics.generate_hologram_ms": ("ms", "ms", "optics.generate_hologram"),
    "optics.reconstruct_ms": ("ms", "ms", "optics.reconstruct"),
    "optics.ssim_ms": ("ms", "ms", "optics.ssim"),
    "formats.read_ms": ("ms", "ms", "formats.read"),
    "formats.write_ms": ("ms", "ms", "formats.write"),
    **{f"cli.{c}_ms": ("ms", "ms", f"cli.{c}") for c in CLI_COMMANDS},
    "cli.self_ms": ("ms", "self_ms", "cli.main"),
}

# Per pass, from counters the wrappers keep.
_COUNT_METRICS = {
    "rng.draws": "count",
    "stego.capacity_bits": "bits",
    "stego.stream_bits": "bits",
    "stego.fill_superpixels": "count",
    "codebook.queries": "count",
    "codebook.boundary_queries": "count",
    "formats.bytes_read": "bytes",
    "formats.bytes_written": "bytes",
}

PER_LAYER = {
    **{name: unit for name, (unit, _, _) in _SPAN_METRICS.items()},
    **_COUNT_METRICS,
    "stego.capacity_used": "ratio",        # stream bits over capacity bits, both reported
    "codebook.build_ms": "ms",             # per build_codebook call
    "cli.import_ms": "ms",                 # per fresh interpreter, from -X importtime
    "codebook.import_ms": "ms",
    "optics.import_ms": "ms",
    "cli.startup_ms": "ms",                # CLI process wall time outside its own spans
    "trace.frame_ms": "ms",
    "trace.untraced_frame_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.accounted_ms": "ms",            # self time of library and CLI spans in the frame
    "bench.glue_ms": "ms",                 # frame time left to the benchmark's own code
}


def frame_accounting(spans: list, lo: int, hi: int) -> tuple:
    """(frame ms, ms of self time in non-benchmark spans under the frame) for one pass.

    A child span always has a higher index than its parent, adopted child
    process spans included, so one forward scan collects the frame's subtree.
    """
    frame = next(i for i in range(lo, hi) if spans[i][0] == "bench.frame")
    inside = {frame}
    child_ns = Counter()
    for i in range(frame + 1, hi):
        parent = spans[i][3]
        if parent in inside:
            inside.add(i)
            child_ns[parent] += spans[i][2] - spans[i][1]
    accounted = sum(spans[i][2] - spans[i][1] - child_ns[i] for i in inside
                    if not spans[i][0].startswith("bench."))
    return (spans[frame][2] - spans[frame][1]) / 1e6, accounted / 1e6


def pass_layers(spans: list, lo: int, hi: int, counts: dict) -> dict:
    """Per-layer values of one traced pass (everything but the run-level ones)."""
    table = span_table(spans, lo, hi)
    out = {name: table.get(span, {}).get(field, 0) for name, (_, field, span) in _SPAN_METRICS.items()}
    out.update({name: counts.get(name, 0) for name in _COUNT_METRICS})
    capacity = counts.get("stego.capacity_bits", 0)
    out["stego.capacity_used"] = counts.get("stego.stream_bits", 0) / capacity if capacity else 0.0
    out["cli.startup_ms"] = sum(table.get(f"cli.{c}", {}).get("self_ms", 0.0) for c in CLI_COMMANDS)
    frame_ms, accounted = frame_accounting(spans, lo, hi)
    out["trace.frame_ms"] = frame_ms
    out["trace.accounted_ms"] = accounted
    out["bench.glue_ms"] = frame_ms - accounted
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
