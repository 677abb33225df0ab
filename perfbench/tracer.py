"""In-memory span recorder and the wrappers the traced benchmark run installs.

Spans are ``[name, start_ns, end_ns, parent_index]`` on ``time.perf_counter_ns``
(CLOCK_MONOTONIC on Linux, so spans recorded in a child process line up with
the parent's).  Wrapping rebinds every name under ``dmdstego`` that refers to
a public function, so calls made between library modules are seen too; the
library itself is not edited.  Only the standard library is imported here, so
the CLI shim can load this module before ``dmdstego``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Rule the library uses to send a quantizer query to its linear-scan fallback.
NEAR_TIE_GAP = 1e-9
CLI_COMMANDS = ("hologram", "embed", "extract", "decode", "reconstruct", "sim4f", "ssim")


class Recorder:
    """Spans, per-pass counters and bookkeeping deferred past the timed region."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.deferred = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under `parent`."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])

    def run_deferred(self) -> None:
        while self.deferred:
            self.deferred.pop(0)()


def span_table(spans: list, lo: int = 0, hi: int | None = None) -> dict:
    """Per name: calls, total ms and self ms over spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children, so along one thread the self times of a root span and all of
    its descendants add up to the root's duration.
    """
    hi = len(spans) if hi is None else hi
    child_ns = Counter()
    for name, start, end, parent in spans[lo:hi]:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        row = table.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += (end - start) / 1e6
        row["self_ms"] += (end - start - child_ns[i]) / 1e6
    return table


# --- wrapping --------------------------------------------------------------

def _count_draws(rec, args, kwargs):
    count = kwargs["count"] if "count" in kwargs else args[1]
    rec.counts["rng.draws"] += int(count)


def _count_queries(rec, args, kwargs):
    import numpy as np

    targets = np.asarray(kwargs["targets"] if "targets" in kwargs else args[1])
    codebook = args[0]
    rec.counts["codebook.queries"] += int(targets.size)
    rec.deferred.append(lambda: _count_boundary(rec, codebook.values, targets))


def _count_boundary(rec, values, targets) -> None:
    import numpy as np
    from scipy.spatial import cKDTree

    flat = np.asarray(targets, dtype=np.complex128).ravel()
    tree = cKDTree(np.column_stack([values.real, values.imag]))
    dist, _ = tree.query(np.column_stack([flat.real, flat.imag]), k=2)
    rec.counts["codebook.boundary_queries"] += int(np.count_nonzero(dist[:, 1] - dist[:, 0] <= NEAR_TIE_GAP))


def _count_stream(rec, args, kwargs):
    names = ("plan", "payload_bits", "key", "codebook")
    bound = dict(zip(names, args), **kwargs)
    rec.deferred.append(lambda: _stream_stats(rec, bound["plan"], bound["payload_bits"], bound["codebook"]))


def _stream_stats(rec, plan, payload_bits, codebook) -> None:
    import numpy as np

    caps = codebook.capacities[np.asarray(plan)].ravel()
    stream = 32 + int(np.asarray(payload_bits).size)
    offsets = np.cumsum(caps) - caps
    rec.counts["stego.capacity_bits"] += int(caps.sum())
    rec.counts["stego.stream_bits"] += stream
    rec.counts["stego.fill_superpixels"] += int(np.count_nonzero(offsets >= stream))


def _file_bytes(counter: str):
    def hook(rec, args, kwargs):
        path = args[0] if args else kwargs["path"]
        # stat after the command, so a write is counted once it has landed
        rec.deferred.append(lambda: rec.counts.update({counter: os.path.getsize(path)}))
    return hook


# (module, attribute or Class.method, span name, counting hook)
WRAPS = (
    ("dmdstego.rng", "permutation", "rng.permutation", None),
    ("dmdstego.rng", "stream_u64", "rng.stream_u64", _count_draws),
    ("dmdstego.codebook", "build_codebook", "codebook.build", None),
    ("dmdstego.codebook", "Codebook.nearest_values", "codebook.nearest_values", _count_queries),
    ("dmdstego.superpixel", "codes_to_mirrors", "superpixel.codes_to_mirrors", None),
    ("dmdstego.superpixel", "mirrors_to_codes", "superpixel.mirrors_to_codes", None),
    ("dmdstego.stego", "embed", "stego.embed", _count_stream),
    ("dmdstego.stego", "extract", "stego.extract", None),
    ("dmdstego.modulator", "normalize_field", "modulator.normalize", None),
    ("dmdstego.modulator", "quantize_field", "modulator.quantize", None),
    ("dmdstego.modulator", "select_patterns", "modulator.select_patterns", None),
    ("dmdstego.modulator", "decode_field", "modulator.decode", None),
    ("dmdstego.optics", "fresnel_propagate", "optics.fresnel_propagate", None),
    ("dmdstego.optics", "generate_hologram", "optics.generate_hologram", None),
    ("dmdstego.optics", "reconstruct", "optics.reconstruct", None),
    ("dmdstego.optics", "simulate_4f", "optics.simulate_4f", None),
    ("dmdstego.optics", "ssim", "optics.ssim", None),
    ("dmdstego.formats", "read_image", "formats.read", _file_bytes("formats.bytes_read")),
    ("dmdstego.formats", "read_pattern", "formats.read", _file_bytes("formats.bytes_read")),
    ("dmdstego.formats", "read_field", "formats.read", _file_bytes("formats.bytes_read")),
    ("dmdstego.formats", "write_image", "formats.write", _file_bytes("formats.bytes_written")),
    ("dmdstego.formats", "write_pattern", "formats.write", _file_bytes("formats.bytes_written")),
    ("dmdstego.formats", "write_field", "formats.write", _file_bytes("formats.bytes_written")),
)


def _wrapper(rec: Recorder, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook is not None:
            hook(rec, args, kwargs)
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
    return traced


class Installed:
    """Wrappers bound into the loaded dmdstego modules; `restore` undoes them."""

    def __init__(self, rec: Recorder, wraps=WRAPS):
        self.absent = []
        self._undo = []
        for module_name, attr, name, hook in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = _wrapper(rec, original, name, hook)
            if owner_name:
                self._bind(owner, method, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "dmdstego" or mod_name.startswith("dmdstego.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapped)

    def _bind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# --- import times ----------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def parse_importtime(stderr: str):
    """Split `python -X importtime` output into (import ms by metric, other stderr lines).

    ``cli.import_ms`` sums the cumulative times of the top-level imports of
    the dmdstego package and its submodules, i.e. everything a CLI command
    loads before it runs; the per-module figures are cumulative times of
    ``dmdstego.codebook`` and ``dmdstego.optics`` as first imported.
    """
    ms = {"cli.import_ms": 0.0, "codebook.import_ms": 0.0, "optics.import_ms": 0.0}
    rest = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            if not line.startswith("import time: self [us] | cumulative | imported package"):
                rest.append(line)
            continue
        cumulative_ms = int(m.group(2)) / 1e3
        depth = len(m.group(3)) // 2
        name = m.group(4)
        if depth == 0 and (name == "dmdstego" or name.startswith("dmdstego.")):
            ms["cli.import_ms"] += cumulative_ms
        if name == "dmdstego.codebook":
            ms["codebook.import_ms"] = cumulative_ms
        elif name == "dmdstego.optics":
            ms["optics.import_ms"] = cumulative_ms
    return ms, rest


def dump(rec: Recorder, path) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": rec.spans, "counts": dict(rec.counts)}, fh)
