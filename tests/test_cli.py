import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from dmdstego import codebook as codebook_module
from dmdstego.cli import main
from dmdstego.codebook import build_codebook
from dmdstego.formats import (
    HEADER_LIMIT,
    read_field,
    read_image,
    read_pattern,
    write_field,
    write_image,
    write_pattern,
)
from dmdstego.stego import StegoKey, embed

GEO = ["--wavelength", "520e-9", "--distance", "0.05", "--pitch", "7.56e-6"]
KEY = "00000000deadbeef"


@pytest.fixture
def workspace(tmp_path, synthetic_object):
    obj = tmp_path / "obj.pgm"
    write_image(obj, synthetic_object)
    return tmp_path, obj


def run(capsys, *argv, expect=0):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == expect, f"argv={argv} rc={rc} stderr={captured.err}"
    return captured.out


def make_hologram(capsys, tmp_path, obj, name="holo.bin"):
    holo = tmp_path / name
    run(capsys, "hologram", "--input", str(obj), "--output", str(holo),
        *GEO, "--superpixels", "64x64")
    return holo


def test_hologram_writes_field_and_report(capsys, workspace):
    tmp_path, obj = workspace
    holo = tmp_path / "h.bin"
    out = run(capsys, "hologram", "--input", str(obj), "--output", str(holo),
              *GEO, "--superpixels", "64x64")
    report = json.loads(out)
    assert report["width"] == 64 and report["height"] == 64
    assert report["warnings"] == []
    field = read_field(holo)
    assert field.shape == (64, 64)
    assert np.abs(field).max() > 0


def test_hologram_missing_distance_is_usage_error(capsys, workspace):
    tmp_path, obj = workspace
    run(capsys, "hologram", "--input", str(obj), "--output", str(tmp_path / "h.bin"),
        "--wavelength", "520e-9", "--pitch", "7.56e-6", "--superpixels", "64x64",
        expect=2)


def test_black_object_gives_zero_field(capsys, tmp_path):
    obj = tmp_path / "black.pgm"
    write_image(obj, np.zeros((32, 32), dtype=np.uint8))
    holo = tmp_path / "h.bin"
    run(capsys, "hologram", "--input", str(obj), "--output", str(holo),
        *GEO, "--superpixels", "32x32")
    assert np.all(read_field(holo) == 0)


def test_encode_decode_cycle(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    pat = tmp_path / "p.pbm"
    out = run(capsys, "encode", "--input", str(holo), "--output", str(pat),
              "--strategy", "random", "--key", KEY)
    report = json.loads(out)
    assert report["height"] == 256 and report["width"] == 256
    assert report["scale"] > 0
    mirrors = read_pattern(pat)
    assert mirrors.shape == (256, 256)
    dec = tmp_path / "d.bin"
    run(capsys, "decode", "--input", str(pat), "--output", str(dec))
    values = read_field(dec)
    assert values.shape == (64, 64)
    holo_field = read_field(holo)
    err = np.abs(values - holo_field * report["scale"])
    assert err.max() < 0.2  # quantization residual only


def test_encode_random_requires_key(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    run(capsys, "encode", "--input", str(holo), "--output", str(tmp_path / "p.pbm"),
        "--strategy", "random", expect=2)


def test_malformed_key_is_usage_error(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    for bad in ("xyz", "0123", "0x3456789abcdef0"):
        run(capsys, "encode", "--input", str(holo), "--output", str(tmp_path / "p.pbm"),
            "--strategy", "random", "--key", bad, expect=2)


def test_capacity_reports_bits(capsys, tmp_path):
    field = tmp_path / "z.bin"
    write_field(field, np.zeros((27, 48), dtype=complex))
    out = run(capsys, "capacity", "--input", str(field))
    assert json.loads(out) == {"capacity_bits": 8 * 27 * 48}


def test_embed_extract_round_trip(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    cap = json.loads(run(capsys, "capacity", "--input", str(holo)))["capacity_bits"]
    payload = tmp_path / "payload.bin"
    data = np.random.default_rng(0).integers(0, 256, (cap - 32) // 8, dtype=np.uint8).tobytes()
    payload.write_bytes(data)
    pat = tmp_path / "e.pbm"
    out = run(capsys, "embed", "--input", str(holo), "--payload", str(payload),
              "--output", str(pat), "--key", KEY)
    report = json.loads(out)
    assert report["capacity_bits"] == cap
    assert report["payload_bits"] == 8 * len(data)
    recovered = tmp_path / "out.bin"
    run(capsys, "extract", "--input", str(pat), "--output", str(recovered), "--key", KEY)
    assert recovered.read_bytes() == data


def test_embed_over_capacity_exits_2(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    cap = json.loads(run(capsys, "capacity", "--input", str(holo)))["capacity_bits"]
    payload = tmp_path / "big.bin"
    payload.write_bytes(b"\xff" * (cap // 8 + 8))
    try:
        rc = main(["embed", "--input", str(holo), "--payload", str(payload),
                   "--output", str(tmp_path / "x.pbm"), "--key", KEY])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2
    assert str(cap) in captured.err


def test_oversized_payload_is_refused_before_it_is_read(capsys, tmp_path):
    field, out = tmp_path / "f.bin", tmp_path / "x.pbm"
    write_field(field, np.ones((8, 8), dtype=complex))
    cap = json.loads(run(capsys, "capacity", "--input", str(field)))["capacity_bits"]
    payload = tmp_path / "big.bin"
    size = 4 << 20
    payload.write_bytes(b"\xa5" * size)
    tracemalloc.start()
    try:
        rc = main(["embed", "--input", str(field), "--payload", str(payload),
                   "--output", str(out), "--key", KEY])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [
        f"error: payload of {8 * size} bits does not fit: plan capacity is "
        f"{cap} bits and 32 are reserved for the header"]
    assert captured.out == ""
    assert not out.exists()
    # Reading the payload takes size bytes, unpacking it 8 * size more.
    assert peak < size


def _feed_fifo(path, data):
    """Write data into the FIFO at path from a thread; the reader may close it early."""
    def feed():
        try:
            with open(path, "wb") as fifo:
                fifo.write(data)
        except BrokenPipeError:
            pass
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_piped_payload_is_read_only_as_far_as_it_fits(capsys, tmp_path):
    # A pipe has no size to check, so embed reads one byte past what fits
    # and refuses the payload when that byte arrives.
    field, out = tmp_path / "f.bin", tmp_path / "x.pbm"
    write_field(field, np.ones((8, 8), dtype=complex))
    cap = json.loads(run(capsys, "capacity", "--input", str(field)))["capacity_bits"]
    fits = (cap - 32) // 8
    pipe = tmp_path / "payload"
    os.mkfifo(pipe)
    size = 16 << 20
    writer = _feed_fifo(pipe, b"\xa5" * size)
    tracemalloc.start()
    try:
        rc = main(["embed", "--input", str(field), "--payload", str(pipe),
                   "--output", str(out), "--key", KEY])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    writer.join(10)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [
        f"error: payload of more than {8 * fits} bits does not fit: plan capacity is "
        f"{cap} bits and 32 are reserved for the header"]
    assert captured.out == ""
    assert not out.exists()
    # Reading the whole pipe would take size bytes; quantizing the field takes a few MB.
    assert peak < size // 2
    # A piped payload that fits, to the last byte, is hidden and comes back whole.
    payload = bytes(range(256)) * (fits // 256) + bytes(fits % 256)
    writer = _feed_fifo(pipe, payload)
    report = json.loads(run(capsys, "embed", "--input", str(field), "--payload", str(pipe),
                            "--output", str(out), "--key", KEY))
    writer.join(10)
    assert report["payload_bits"] == 8 * fits
    back = tmp_path / "back.bin"
    run(capsys, "extract", "--input", str(out), "--output", str(back), "--key", KEY)
    assert back.read_bytes() == payload


def test_missing_input_exits_1(capsys, tmp_path):
    run(capsys, "decode", "--input", str(tmp_path / "nope.pbm"),
        "--output", str(tmp_path / "d.bin"), expect=1)


def test_corrupt_field_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    run(capsys, "capacity", "--input", str(bad), expect=1)


def test_reconstruct_and_ssim(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    dec = tmp_path / "d.bin"
    pat = tmp_path / "p.pbm"
    run(capsys, "encode", "--input", str(holo), "--output", str(pat))
    run(capsys, "decode", "--input", str(pat), "--output", str(dec))
    img = tmp_path / "r.pgm"
    run(capsys, "reconstruct", "--input", str(dec), "--output", str(img), *GEO)
    assert read_image(img).shape == (64, 64)
    out = run(capsys, "ssim", "--input", str(img), "--reference", str(img))
    assert out.strip() == "1.0000"


def test_sim4f_correlates_with_decode(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    pat = tmp_path / "p.pbm"
    run(capsys, "encode", "--input", str(holo), "--output", str(pat),
        "--strategy", "random", "--key", KEY)
    dec = tmp_path / "d.bin"
    run(capsys, "decode", "--input", str(pat), "--output", str(dec))
    sim = tmp_path / "s.bin"
    out = run(capsys, "sim4f", "--input", str(pat), "--output", str(sim),
              "--compare", str(dec))
    report = json.loads(out)
    assert report["correlation"] >= 0.95


def test_sim4f_assignment_takes_its_own_aperture_center(capsys, workspace):
    # The default centre (1/16, 1/4) is the default assignment's carrier.  The
    # reversed assignment's carrier is its mirror image, (-1/16, -1/4); with it
    # the readout tracks the decoded values as well.  Naming the default
    # assignment needs no centre and changes nothing.
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    default = ",".join(map(str, range(1, 17)))
    rev = "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1"
    pat, dec = tmp_path / "p.pbm", tmp_path / "d.bin"
    run(capsys, "encode", "--input", str(holo), "--output", str(pat), "--assignment", rev)
    run(capsys, "decode", "--input", str(pat), "--output", str(dec), "--assignment", rev)
    sim = tmp_path / "s.bin"
    out = run(capsys, "sim4f", "--input", str(pat), "--output", str(sim), "--compare", str(dec),
              "--assignment", rev, "--aperture-center=-0.0625,-0.25")
    assert json.loads(out)["correlation"] >= 0.95
    plain, named = tmp_path / "plain.bin", tmp_path / "named.bin"
    run(capsys, "sim4f", "--input", str(pat), "--output", str(plain))
    run(capsys, "sim4f", "--input", str(pat), "--output", str(named), "--assignment", default)
    assert plain.read_bytes() == named.read_bytes()


@pytest.mark.parametrize("compare", ["missing", "wrong-shape"])
def test_sim4f_bad_compare_leaves_no_output(capsys, tmp_path, compare):
    pattern, reference, out = tmp_path / "p.pbm", tmp_path / "c.cfld", tmp_path / "s.cfld"
    write_pattern(pattern, np.zeros((32, 32), dtype=np.uint8))
    if compare == "wrong-shape":
        write_field(reference, np.ones((4, 16), dtype=complex))  # 8x8 values, other shape
    rc = main(["sim4f", "--input", str(pattern), "--output", str(out), "--compare", str(reference)])
    err = capsys.readouterr().err
    assert rc == 1
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["hologram", "decode"])
def test_comment_heavy_netpbm_header_is_refused(tmp_path, command):
    # A million one-line comments run the header past HEADER_LIMIT; the
    # reader stops at the limit and the command writes nothing.
    comments = b"\n#" * (HEADER_LIMIT // 2 + 1)
    if command == "hologram":
        path = tmp_path / "in.pgm"
        path.write_bytes(b"P5" + comments + b"\n8 8\n255\n" + bytes(64))
        extra = [*GEO, "--superpixels", "8x8"]
    else:
        path = tmp_path / "in.pbm"
        path.write_bytes(b"P4" + comments + b"\n8 8\n" + bytes(8))
        extra = []
    out = tmp_path / "out.bin"
    r = subprocess.run([sys.executable, "-m", "dmdstego", command, "--input", str(path),
                        "--output", str(out), *extra], capture_output=True, text=True)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert sum("error:" in line for line in r.stderr.splitlines()) == 1
    assert f"width at byte {HEADER_LIMIT} reaches the {HEADER_LIMIT}-byte header limit" in r.stderr
    assert r.stdout == ""
    assert not out.exists()


def test_commands_that_do_not_quantize_load_no_scipy(tmp_path, codebook, synthetic_object):
    # The package imports no scipy module; the commands that quantize are
    # checked with scipy made unimportable in the next test.
    plan = np.random.default_rng(3).integers(0, 6561, (16, 16))
    mirrors = embed(plan, np.ones(64, dtype=np.uint8), StegoKey.from_hex(KEY), codebook)
    write_pattern(tmp_path / "p.pbm", mirrors)
    write_image(tmp_path / "obj.pgm", synthetic_object)
    commands = [
        ["hologram", "--input", "{}/obj.pgm", "--output", "{}/h.cfld", *GEO, "--superpixels", "16x16"],
        ["extract", "--input", "{}/p.pbm", "--output", "{}/x.bin", "--key", KEY],
        ["decode", "--input", "{}/p.pbm", "--output", "{}/d.cfld"],
        ["reconstruct", "--input", "{}/d.cfld", "--output", "{}/r.pgm", *GEO],
        ["sim4f", "--input", "{}/p.pbm", "--output", "{}/s.cfld", "--compare", "{}/d.cfld"],
        ["ssim", "--input", "{}/r.pgm", "--reference", "{}/r.pgm"],
    ]
    commands = [[arg.format(tmp_path) for arg in argv] for argv in commands]
    code = ("import json, sys\n"
            "from dmdstego.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    codes, scipy_modules = json.loads(r.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert scipy_modules == []
    assert (tmp_path / "x.bin").read_bytes() == b"\xff" * 8


def test_commands_that_do_not_quantize_load_no_grid_table(capsys, monkeypatch, tmp_path, synthetic_object):
    # Only a quantizing command reads the nearest-value candidate table.
    loads = []
    shipped = codebook_module._shipped_grid

    def counted():
        loads.append(1)
        return shipped()

    monkeypatch.setattr(codebook_module, "_shipped_grid", counted)
    write_image(tmp_path / "obj.pgm", synthetic_object)
    run(capsys, "hologram", "--input", str(tmp_path / "obj.pgm"), "--output", str(tmp_path / "h.cfld"),
        *GEO, "--superpixels", "16x16")
    (tmp_path / "payload.bin").write_bytes(b"\xa5" * 8)
    plan = np.random.default_rng(3).integers(0, 6561, (16, 16))
    write_pattern(tmp_path / "p.pbm", embed(plan, np.ones(64, dtype=np.uint8), StegoKey.from_hex(KEY),
                                            build_codebook()))
    commands = [
        ["extract", "--input", "{}/p.pbm", "--output", "{}/x.bin", "--key", KEY],
        ["decode", "--input", "{}/p.pbm", "--output", "{}/d.cfld"],
        ["reconstruct", "--input", "{}/d.cfld", "--output", "{}/r.pgm", *GEO],
        ["sim4f", "--input", "{}/p.pbm", "--output", "{}/s.cfld", "--compare", "{}/d.cfld"],
        ["ssim", "--input", "{}/r.pgm", "--reference", "{}/r.pgm"],
    ]
    for argv in commands:
        run(capsys, *[arg.format(tmp_path) for arg in argv])
    assert loads == []
    run(capsys, "capacity", "--input", str(tmp_path / "h.cfld"))
    assert loads == [1]


@pytest.mark.parametrize("factor", [1e200, -1e200, 1e300, -1e300, 1e-300])
def test_sim4f_compare_with_a_scaled_copy(capsys, tmp_path, factor):
    # The readout of a random pattern compared with itself scaled near either
    # end of the float64 range reads as the unscaled comparison does.
    pattern, out, ref = tmp_path / "p.pbm", tmp_path / "s.cfld", tmp_path / "ref.cfld"
    write_pattern(pattern, np.random.default_rng(8).integers(0, 2, (32, 32), dtype=np.uint8))
    run(capsys, "sim4f", "--input", str(pattern), "--output", str(ref))
    same = json.loads(run(capsys, "sim4f", "--input", str(pattern), "--output", str(out),
                          "--compare", str(ref)))["correlation"]
    write_field(ref, factor * read_field(ref))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sim4f", "--input", str(pattern), "--output", str(out), "--compare", str(ref)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert json.loads(captured.out)["correlation"] == pytest.approx(same, abs=1e-12)
    assert same == pytest.approx(1.0, abs=1e-12)


def test_quantizing_commands_run_without_scipy(capsys, tmp_path, synthetic_object):
    # The quantizer is numpy alone: with every scipy import made to fail,
    # encode, embed and capacity still exit 0 and write what they write
    # in this process, where scipy is importable.  Nor do they load
    # numpy.ma, which numpy imports only on first use (np.unique, for one),
    # at a cost of about 30 ms.
    write_image(tmp_path / "obj.pgm", synthetic_object)
    run(capsys, "hologram", "--input", str(tmp_path / "obj.pgm"), "--output",
        str(tmp_path / "h.cfld"), *GEO, "--superpixels", "24x20")
    (tmp_path / "payload.bin").write_bytes(bytes(range(40)))
    commands = [
        ["encode", "--input", "{}/h.cfld", "--output", "{}/e-min.pbm", "--strategy", "min"],
        ["encode", "--input", "{}/h.cfld", "--output", "{}/e-max.pbm", "--strategy", "max"],
        ["encode", "--input", "{}/h.cfld", "--output", "{}/e-random.pbm", "--strategy", "random",
         "--key", KEY],
        ["embed", "--input", "{}/h.cfld", "--payload", "{}/payload.bin", "--output", "{}/s.pbm",
         "--key", KEY, "--alpha", "1"],
        ["capacity", "--input", "{}/h.cfld"],
    ]
    outputs = ["e-min.pbm", "e-max.pbm", "e-random.pbm", "s.pbm"]
    sub, local = tmp_path / "sub", tmp_path / "local"
    for d in (sub, local):
        d.mkdir()
        for name in ("h.cfld", "payload.bin"):
            (d / name).write_bytes((tmp_path / name).read_bytes())
    code = ("import contextlib, io, json, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "sys.modules['scipy'] = None\n"
            "from dmdstego.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        results.append([main(argv), out.getvalue()])\n"
            "loaded = sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod)\n"
            "loaded += sorted(m for m in set(sys.modules) - before if m.split('.')[:2] == ['numpy', 'ma'])\n"
            "print(json.dumps([results, loaded]))\n")
    argvs = [[arg.format(sub) for arg in argv] for argv in commands]
    r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    results, loaded = json.loads(r.stdout.splitlines()[-1])
    assert loaded == []
    assert r.stderr == ""
    for (rc, stdout), argv in zip(results, commands):
        assert rc == 0
        assert stdout == run(capsys, *[arg.format(local) for arg in argv])
    for name in outputs:
        assert (sub / name).read_bytes() == (local / name).read_bytes()


def _shake_field(shape):
    """A field whose real and imaginary parts are SHAKE-256 uint16s mapped onto [-1, 1)."""
    raw = hashlib.shake_256(b"cli field %dx%d" % shape).digest(4 * shape[0] * shape[1])
    parts = (np.frombuffer(raw, dtype=">u2").astype(np.float64) - 32768.0) / 32768.0
    return (parts[0::2] + 1j * parts[1::2]).reshape(shape)


REVERSED = "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1"
# Every quantizing command on one field and payload from SHAKE-256: its exit
# code, its exact stdout, and the SHA-256 of the pattern it writes (None
# when it writes none).  The field is 20x28 superpixels and the payload 60
# bytes, so embed carries the payload over a prefix and fills the rest.
CLI_DIGESTS = [
    (["encode", "--input", "{}/f.cfld", "--output", "{}/out.pbm", "--strategy", "min"], 0,
     '{"height": 80, "scale": 2.9395885799037997, "width": 112}\n',
     "448cc009b0e0f4ed116f22923e68c9e6b6b8f1529f7699762525ad11e882467e"),
    (["encode", "--input", "{}/f.cfld", "--output", "{}/out.pbm", "--strategy", "max"], 0,
     '{"height": 80, "scale": 2.9395885799037997, "width": 112}\n',
     "409c29183d8a618ceb0b0018c938fe46724f9bf8b52561c710624eccae07d419"),
    (["encode", "--input", "{}/f.cfld", "--output", "{}/out.pbm", "--strategy", "random",
      "--key", KEY], 0,
     '{"height": 80, "scale": 2.9395885799037997, "width": 112}\n',
     "dd6f873b892ae3da961b0237ef0726df878b3e866ec324afc6f1d3752d2494b6"),
    (["encode", "--input", "{}/f.cfld", "--output", "{}/out.pbm", "--alpha", "1",
      "--assignment", REVERSED], 0,
     '{"height": 80, "scale": 3.674485724879749, "width": 112}\n',
     "957d1b40bbdad84d51ca8ca126d7244e674bd790c24e0633574c665187f07bf2"),
    (["embed", "--input", "{}/f.cfld", "--payload", "{}/payload.bin", "--output", "{}/out.pbm",
      "--key", KEY, "--fill", "random"], 0,
     '{"capacity_bits": 1545, "payload_bits": 480, "scale": 2.9395885799037997}\n',
     "996e7f06532b775111ab57bfa90a514b78ffb0cf93e0054e9316363ed123bab0"),
    (["capacity", "--input", "{}/f.cfld"], 0,
     '{"capacity_bits": 1545}\n', None),
    (["encode", "--input", "{}/f.cfld", "--output", "{}/out.pbm", "--strategy", "random"], 2,
     "", None),
]


@pytest.mark.parametrize("argv, code, stdout, pattern_sha", CLI_DIGESTS,
                         ids=["encode-min", "encode-max", "encode-random", "encode-alpha1-reversed",
                              "embed-fill-random", "capacity", "encode-random-without-key"])
def test_quantizing_command_digests(capsys, tmp_path, argv, code, stdout, pattern_sha):
    write_field(tmp_path / "f.cfld", _shake_field((20, 28)))
    (tmp_path / "payload.bin").write_bytes(hashlib.shake_256(b"cli payload").digest(60))
    out = run(capsys, *[arg.format(tmp_path) for arg in argv], expect=code)
    assert out == stdout
    pattern = tmp_path / "out.pbm"
    if pattern_sha is None:
        assert not pattern.exists()
    else:
        assert hashlib.sha256(pattern.read_bytes()).hexdigest() == pattern_sha


def test_reruns_are_bit_identical(capsys, workspace):
    tmp_path, obj = workspace
    h1 = make_hologram(capsys, tmp_path, obj, "h1.bin")
    h2 = make_hologram(capsys, tmp_path, obj, "h2.bin")
    assert h1.read_bytes() == h2.read_bytes()
    p1, p2 = tmp_path / "p1.pbm", tmp_path / "p2.pbm"
    for p in (p1, p2):
        run(capsys, "encode", "--input", str(h1), "--output", str(p),
            "--strategy", "random", "--key", KEY)
    assert p1.read_bytes() == p2.read_bytes()


def test_assignment_flag_changes_bits_not_values(capsys, workspace):
    tmp_path, obj = workspace
    holo = make_hologram(capsys, tmp_path, obj)
    rev = "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1"
    p_def, p_rev = tmp_path / "pd.pbm", tmp_path / "pr.pbm"
    run(capsys, "encode", "--input", str(holo), "--output", str(p_def))
    run(capsys, "encode", "--input", str(holo), "--output", str(p_rev), "--assignment", rev)
    assert p_def.read_bytes() != p_rev.read_bytes()
    d_def, d_rev = tmp_path / "dd.bin", tmp_path / "dr.bin"
    run(capsys, "decode", "--input", str(p_def), "--output", str(d_def))
    run(capsys, "decode", "--input", str(p_rev), "--output", str(d_rev), "--assignment", rev)
    assert np.array_equal(read_field(d_def), read_field(d_rev))


def test_module_entry_point(tmp_path, synthetic_object):
    obj = tmp_path / "obj.pgm"
    write_image(obj, synthetic_object)
    r = subprocess.run([sys.executable, "-m", "dmdstego", "hologram",
                        "--input", str(obj), "--output", str(tmp_path / "h.bin"),
                        *GEO, "--superpixels", "32x32"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["width"] == 32


def _buffered_env():
    """The environment of a user's shell: stdout block-buffered into files and pipes."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("argv, code", [
    (["capacity", "--input", "{field}"], 0),
    (["capacity", "--input", "{inf}"], 1),
    # main returns 2 for the payload, argparse raises SystemExit(2) for the flag.
    (["embed", "--input", "{field}", "--payload", "{payload}", "--output", "{tmp}/e.pbm", "--key", KEY], 2),
    (["capacity"], 2),
], ids=["report", "bad-data", "payload-too-large", "missing-input"])
def test_process_entry_keeps_exit_codes(tmp_path, argv, code):
    files = {"tmp": tmp_path, "field": tmp_path / "f.bin", "inf": tmp_path / "inf.bin",
             "payload": tmp_path / "p.bin"}
    write_field(files["field"], np.zeros((4, 4), dtype=complex))
    field = np.ones((4, 4), dtype=complex)
    field[1, 2] = complex(1, np.inf)
    write_field(files["inf"], field)
    files["payload"].write_bytes(bytes(16))  # 128 bits, past the 4x4 field's 128-bit capacity with the header
    r = subprocess.run([sys.executable, "-m", "dmdstego", *(a.format(**files) for a in argv)],
                       capture_output=True, text=True, env=_buffered_env())
    assert r.returncode == code, r.stderr
    if code == 0:
        assert json.loads(r.stdout) == {"capacity_bits": 128}
        assert r.stderr == ""
    else:
        assert r.stdout == ""
        assert sum("error:" in line for line in r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr


def _run_into(stdout, field, unbuffered):
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "dmdstego", "capacity", "--input", str(field)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["full-device", "closed-pipe"])
def test_unwritable_report_exits_1(tmp_path, target, unbuffered):
    # Buffered, the report is written at the flush after main returns, not
    # by print; unbuffered, print itself fails inside main.
    field = tmp_path / "f.bin"
    write_field(field, np.zeros((4, 4), dtype=complex))
    if target == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            r = _run_into(full, field, unbuffered)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = _run_into(write_end, field, unbuffered)
        finally:
            os.close(write_end)
    assert r.returncode == 1, r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


def test_process_entry_freezes_the_collector(tmp_path):
    # The entry freezes what is tracked before the interpreter shuts down;
    # atexit handlers still run after it.
    field, seen = tmp_path / "f.bin", tmp_path / "freeze.txt"
    write_field(field, np.zeros((4, 4), dtype=complex))
    code = ("import atexit, gc, pathlib, sys\n"
            "seen = pathlib.Path(sys.argv[1])\n"
            "atexit.register(lambda: seen.write_text(str(gc.get_freeze_count())))\n"
            "sys.argv[1:] = ['capacity', '--input', sys.argv[2]]\n"
            "from dmdstego.cli import run\n"
            "run()\n")
    r = subprocess.run([sys.executable, "-c", code, str(seen), str(field)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"capacity_bits": 128}
    assert int(seen.read_text()) > 10_000


def test_main_leaves_the_collector_alone(capsys, tmp_path):
    field = tmp_path / "f.bin"
    write_field(field, np.zeros((4, 4), dtype=complex))
    before = gc.get_freeze_count()
    assert run(capsys, "capacity", "--input", str(field)) == '{"capacity_bits": 128}\n'
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [
    (["encode", "--input", "{field}", "--output", "{tmp}/p.pbm", "--alpha", "2"], 2),
    (["capacity", "--input", "{field}", "--alpha", "0"], 2),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", "--wavelength", "-1",
      "--distance", "0.05", "--pitch", "7.56e-6", "--superpixels", "8x8"], 2),
    (["reconstruct", "--input", "{field}", "--output", "{tmp}/r.pgm", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "0"], 2),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", *GEO, "--superpixels", "8x8",
      "--diffuser-seed", "-1"], 2),
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--aperture-radius", "0"], 2),
    (["ssim", "--input", "{image}", "--reference", "{image}"], 1),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", "--wavelength", "520e-9",
      "--distance", "nan", "--pitch", "7.56e-6", "--superpixels", "8x8"], 2),
    (["reconstruct", "--input", "{field}", "--output", "{tmp}/r.pgm", "--wavelength", "nan",
      "--distance", "0.05", "--pitch", "7.56e-6"], 2),
    (["reconstruct", "--input", "{field}", "--output", "{tmp}/r.pgm", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "inf"], 2),
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--aperture-radius", "nan"], 2),
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--aperture-center", "nan,0.25"], 2),
    # A negative first value must be joined on as --aperture-center=FX,FY: the
    # comma keeps argparse from reading "-0.0625,-0.25" as a negative number.
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--aperture-center", "-0.0625,-0.25"], 2),
    # The default aperture centre is the default assignment's carrier only.
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin",
      "--assignment", "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1"], 2),
    # A 7.28 TiB resample, refused at once by the allocator rather than touched.
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", *GEO, "--superpixels", "1000000x1000000"], 2),
    (["embed", "--input", "{nan}", "--payload", "{image}", "--output", "{tmp}/e.pbm", "--key", KEY], 1),
    (["capacity", "--input", "{inf}"], 1),
    (["reconstruct", "--input", "{nan}", "--output", "{tmp}/r.pgm", *GEO], 1),
    (["reconstruct", "--input", "{inf}", "--output", "{tmp}/r.pgm", *GEO], 1),
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--compare", "{nan}"], 1),
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--compare", "{inf}"], 1),
    (["hologram", "--input", "{wide_pgm}", "--output", "{tmp}/h.bin", *GEO, "--superpixels", "8x8"], 1),
    (["decode", "--input", "{wide_pbm}", "--output", "{tmp}/d.bin"], 1),
    # Geometries whose alias-free range overflows (in pitch**2, then in the
    # division by the wavelength), and whose transfer phase overflows, which
    # would make the field NaN.
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "1e160", "--superpixels", "8x8"], 2),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "1e150", "--superpixels", "8x8"], 2),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "1e-160", "--superpixels", "8x8"], 2),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", "--wavelength", "520e-9",
      "--distance", "1e300", "--pitch", "1e-100", "--superpixels", "8x8"], 2),
    (["reconstruct", "--input", "{field}", "--output", "{tmp}/r.pgm", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "1e160"], 2),
    (["reconstruct", "--input", "{field}", "--output", "{tmp}/r.pgm", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "1e-160"], 2),
    # The geometry is refused when propagation starts, so a non-finite field
    # is refused first, as bad data.
    (["reconstruct", "--input", "{nan}", "--output", "{tmp}/r.pgm", "--wavelength", "520e-9",
      "--distance", "0.05", "--pitch", "1e160"], 1),
    # Finite fields that cannot be normalized: a peak modulus past float64,
    # and a peak so small that the scale is.
    (["encode", "--input", "{huge}", "--output", "{tmp}/p.pbm"], 1),
    (["embed", "--input", "{huge}", "--payload", "{image}", "--output", "{tmp}/e.pbm", "--key", KEY], 1),
    (["capacity", "--input", "{huge}"], 1),
    (["encode", "--input", "{tiny}", "--output", "{tmp}/p.pbm"], 1),
    (["embed", "--input", "{tiny}", "--payload", "{image}", "--output", "{tmp}/e.pbm", "--key", KEY], 1),
    (["capacity", "--input", "{tiny}"], 1),
    # Flag values their parsers refuse: a zero or missing superpixel count,
    # a single aperture coordinate, and an assignment that is not integers.
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", *GEO, "--superpixels", "0x8"], 2),
    (["hologram", "--input", "{image}", "--output", "{tmp}/h.bin", *GEO, "--superpixels", "8x"], 2),
    (["sim4f", "--input", "{pattern}", "--output", "{tmp}/s.bin", "--aperture-center=0.1"], 2),
    (["decode", "--input", "{pattern}", "--output", "{tmp}/d.bin", "--assignment", "1,2,x"], 2),
    # capacity has no --assignment: its report is the same under every assignment.
    (["capacity", "--input", "{field}", "--assignment", REVERSED], 2),
    # A finite field whose back-propagated modulus overflows float64 has no
    # peak to scale the image by.
    (["reconstruct", "--input", "{overflow}", "--output", "{tmp}/r.pgm", *GEO], 1),
], ids=["alpha", "alpha-zero", "wavelength", "pitch", "diffuser-seed", "aperture-radius", "ssim-8x8",
        "distance-nan", "wavelength-nan", "pitch-inf", "aperture-radius-nan", "aperture-center-nan",
        "aperture-center-negative-spaced",
        "sim4f-assignment-without-center",
        "superpixels-oversized", "embed-field-nan", "capacity-field-inf", "reconstruct-field-nan",
        "reconstruct-field-inf", "sim4f-compare-nan", "sim4f-compare-inf",
        "pgm-width-5000-digits", "pbm-width-5000-digits",
        "hologram-pitch-1e160", "hologram-pitch-1e150", "hologram-pitch-1e-160",
        "hologram-distance-1e300-pitch-1e-100", "reconstruct-pitch-1e160", "reconstruct-pitch-1e-160",
        "reconstruct-field-nan-pitch-1e160",
        "encode-peak-overflows", "embed-peak-overflows", "capacity-peak-overflows",
        "encode-scale-overflows", "embed-scale-overflows", "capacity-scale-overflows",
        "superpixels-zero-width", "superpixels-no-height", "aperture-center-one-number",
        "assignment-unparseable", "capacity-assignment", "reconstruct-modulus-overflows"])
def test_bad_values_exit_without_traceback(tmp_path, argv, code):
    files = {"tmp": tmp_path, "field": tmp_path / "f.bin", "image": tmp_path / "i.pgm",
             "pattern": tmp_path / "p.pbm", "nan": tmp_path / "nan.bin", "inf": tmp_path / "inf.bin",
             "wide_pgm": tmp_path / "w.pgm", "wide_pbm": tmp_path / "w.pbm",
             "huge": tmp_path / "huge.bin", "tiny": tmp_path / "tiny.bin",
             "overflow": tmp_path / "overflow.bin"}
    write_field(files["field"], np.ones((8, 8), dtype=complex))
    write_image(files["image"], np.full((8, 8), 100, dtype=np.uint8))
    write_pattern(files["pattern"], np.zeros((32, 32), dtype=np.uint8))
    # A width of 5,000 nines is past the digit limit of Python's int().
    files["wide_pgm"].write_bytes(b"P5\n" + b"9" * 5000 + b" 8\n255\n" + bytes(64))
    files["wide_pbm"].write_bytes(b"P4\n" + b"9" * 5000 + b" 8\n" + bytes(8))
    for name, bad in (("nan", complex(np.nan, 0)), ("inf", complex(1, np.inf))):
        field = np.ones((8, 8), dtype=complex)
        field[2, 5] = bad
        write_field(files[name], field)
    for name, peak in (("huge", 1.5e308 + 1.5e308j), ("tiny", 1e-320)):
        field = np.zeros((4, 4), dtype=complex)
        field[1, 2] = peak
        write_field(files[name], field)
    write_field(files["overflow"], np.full((1, 1), 1.3e308 + 1.3e308j))
    inputs = sorted(tmp_path.iterdir())
    r = subprocess.run([sys.executable, "-m", "dmdstego", *(a.format(**files) for a in argv)],
                       capture_output=True, text=True)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    assert "Warning" not in r.stderr
    assert sum("error:" in line for line in r.stderr.splitlines()) == 1
    assert r.stdout == ""
    assert sorted(tmp_path.iterdir()) == inputs  # no output file
