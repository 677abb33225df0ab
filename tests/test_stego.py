"""Embedding tests against a deliberately naive scalar reference.

The reference below re-derives the whole wire contract one superpixel at
a time: 32-bit big-endian length header (never permuted), Fisher-Yates
permuted payload, window bits packed most-significant-first into the
position inside each value group, zero padding on the low side at the
stream boundary, then the fill rule for everything after the stream.
"""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdstego.codebook import STRATEGIES, build_codebook
from dmdstego.modulator import select_patterns
from dmdstego.rng import _DRAW_BLOCK
from dmdstego.stego import (
    FILL_SEED_XOR,
    HEADER_BITS,
    BadHeaderError,
    PayloadTooLargeError,
    StegoKey,
    _stream_bytes,
    bits_to_bytes,
    bytes_to_bits,
    capacity_of_plan,
    embed,
    extract,
    inverse_permute_bits,
    permute_bits,
)
from dmdstego.superpixel import codes_to_mirrors, mirrors_to_codes

from scalar_reference import SplitMix64


def reference_permutation(length, seed):
    """Scalar Fisher-Yates, independent of the library's vectorized permutation."""
    perm = list(range(length))
    SplitMix64(seed).shuffle(perm)
    return perm


def reference_embed(plan, payload_bits, key, codebook, fill="min"):
    flat = plan.ravel().tolist()
    caps = [int(codebook.capacities[g]) for g in flat]
    length = int(payload_bits.size)
    header = [(length >> (31 - i)) & 1 for i in range(32)]
    perm = reference_permutation(length, key.seed)
    stream = header + [int(payload_bits[perm[i]]) for i in range(length)]
    fill_rng = SplitMix64(key.seed ^ FILL_SEED_XOR)
    codes, consumed = [], 0
    for g, d in zip(flat, caps):
        lo = int(codebook.group_starts[g])
        size = int(codebook.group_sizes[g])
        if consumed < len(stream):
            window = stream[consumed:consumed + d]
            window += [0] * (d - len(window))
            pick = 0
            for b in window:
                pick = (pick << 1) | b
            consumed += d
        elif fill == "min":
            pick = 0
        elif fill == "max":
            pick = size - 1
        else:
            pick = fill_rng.below(size)
        codes.append(int(codebook.patterns_sorted[lo + pick]))
    codes = np.array(codes, dtype=np.uint16).reshape(plan.shape)
    return codes_to_mirrors(codes)


def reference_stream(codes, codebook):
    """Every superpixel's in-group position as d bits, MSB-first, d its capacity, in row-major order."""
    bits = []
    for code in np.ravel(codes).tolist():
        g = int(codebook.group_of_pattern[code])
        pos = int(codebook.position_of_pattern[code])
        d = int(codebook.capacities[g])
        bits.extend((pos >> (d - 1 - i)) & 1 for i in range(d))
    return bits


def reference_extract(mirrors, key, codebook):
    bits = reference_stream(mirrors_to_codes(mirrors), codebook)
    length = 0
    for b in bits[:32]:
        length = (length << 1) | b
    body = bits[32:32 + length]
    perm = reference_permutation(length, key.seed)
    out = [0] * length
    for i, b in enumerate(body):
        out[perm[i]] = b
    return np.array(out, dtype=np.uint8)


def random_plan(rng, shape):
    return rng.integers(0, 6561, shape, dtype=np.int64)


def test_key_hex_round_trip():
    k = StegoKey.from_hex("00000000DEADBEEF")
    assert k.seed == 0xDEADBEEF
    assert f"{k.seed:016x}" == "00000000deadbeef"
    assert StegoKey.from_hex(f"{k.seed:016x}") == k


def test_key_validation():
    for bad in ("", "123", "0" * 15, "0" * 17, "zzzzzzzzzzzzzzzz", "0x1234567890abcd"):
        with pytest.raises(ValueError):
            StegoKey.from_hex(bad)
    with pytest.raises(ValueError):
        StegoKey(seed=1 << 64)


@given(st.binary(max_size=64))
def test_bit_byte_round_trip(data):
    bits = bytes_to_bits(data)
    assert bits.size == 8 * len(data)
    assert bits_to_bytes(bits) == data


def test_permute_inverse():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 333, dtype=np.uint8)
    for seed in (0, 1, 0xFFFF):
        key = StegoKey(seed=seed)
        fwd = permute_bits(bits, key)
        assert np.array_equal(inverse_permute_bits(fwd, key), bits)
        perm = reference_permutation(bits.size, seed)
        assert np.array_equal(fwd, bits[perm])


# n items take n - 1 steps: one round for n = 2, one window of
# WINDOW_FLOOR = 1024 steps up to n = 1025, more past it, and the desk-size
# stream.
INVERSE_SIZES = [0, 1, 2, 333, 1023, 1024, 1025, 2055, 47_610]
INVERSE_KEYS = [0, 1, (1 << 64) - 1]


@pytest.mark.parametrize("n", INVERSE_SIZES)
@pytest.mark.parametrize("seed", INVERSE_KEYS)
def test_permute_inverse_sizes(n, seed):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    key = StegoKey(seed=seed)
    fwd = permute_bits(bits, key)
    assert np.array_equal(inverse_permute_bits(fwd, key), bits)
    assert np.array_equal(permute_bits(inverse_permute_bits(bits, key), key), bits)
    if n <= 2055:
        assert np.array_equal(fwd, bits[reference_permutation(n, seed)])
        # Bytes rather than bits, so a misplaced item almost surely shows.
        items = rng.integers(0, 256, n, dtype=np.uint8)
        want = items.tolist()
        SplitMix64(seed).unshuffle(want)
        assert inverse_permute_bits(items, key).tolist() == want


def test_permute_bits_peak_memory():
    # Both directions hold the draws and the reservation table, two
    # n-element int64 arrays, and the uint8 bits they move.  The inverse
    # also keeps every round's winning steps, n - 1 int64 in all, until it
    # replays them.
    n = 379_541
    bits = np.random.default_rng(11).integers(0, 2, n, dtype=np.uint8)
    key = StegoKey(seed=1)
    for fn, bound in ((permute_bits, 3.4), (inverse_permute_bits, 3.4)):
        tracemalloc.start()
        try:
            fn(bits, key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n, fn.__name__


def test_capacity_of_plan(codebook):
    rng = np.random.default_rng(1)
    plan = random_plan(rng, (12, 9))
    expected = sum(int(codebook.capacities[g]) for g in plan.ravel())
    assert capacity_of_plan(plan, codebook) == expected


def test_capacity_all_zero_plan(codebook):
    plan = np.full((27, 48), 3280, dtype=np.int64)
    assert capacity_of_plan(plan, codebook) == 8 * 27 * 48


def test_embed_matches_reference(codebook):
    rng = np.random.default_rng(2)
    # Edge inputs on one plan that opens with capacity-0 superpixels and has
    # two more right after superpixel 40: an empty payload, one filling the
    # plan exactly, and a stream ending exactly where superpixel 40 ends.
    zero_cap = int(np.flatnonzero(codebook.capacities == 0)[0])
    edge_plan = random_plan(np.random.default_rng(20), (8, 11))
    edge_plan.flat[:5] = zero_cap
    edge_plan.flat[41:43] = zero_cap
    ends = np.cumsum(codebook.capacities[edge_plan.ravel()])
    assert ends[40] > HEADER_BITS
    edge_lengths = (0, int(ends[-1]) - HEADER_BITS, int(ends[40]) - HEADER_BITS)
    for fill in STRATEGIES:
        for trial in range(4 + len(edge_lengths)):
            if trial < 4:
                plan = random_plan(rng, (8, 11))
                cap = capacity_of_plan(plan, codebook)
                length = int(rng.integers(0, cap - HEADER_BITS + 1))
            else:
                plan, length = edge_plan, edge_lengths[trial - 4]
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            key = StegoKey(seed=int(rng.integers(0, 1 << 63)))
            got = embed(plan, bits, key, codebook, fill=fill)
            want = reference_embed(plan, bits, key, codebook, fill=fill)
            assert np.array_equal(got, want), f"fill={fill} trial={trial}"
            assert np.array_equal(extract(got, key, codebook), reference_extract(got, key, codebook))


@pytest.mark.parametrize("fill", STRATEGIES)
def test_embed_matches_reference_past_a_draw_block(codebook, fill):
    # More fill superpixels than one draw block, and streams ending at every
    # bit offset inside their last packed byte.
    plan = random_plan(np.random.default_rng(21), (136, 128))
    rng = np.random.default_rng(22)
    key = StegoKey(seed=0xFEDCBA9876543210)
    caps = codebook.capacities[plan.ravel()]
    for length in range(200, 208):
        active = int(np.searchsorted(np.cumsum(caps) - caps, HEADER_BITS + length))
        assert plan.size - active > _DRAW_BLOCK
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        got = embed(plan, bits, key, codebook, fill=fill)
        assert np.array_equal(got, reference_embed(plan, bits, key, codebook, fill=fill)), length
        assert np.array_equal(extract(got, key, codebook), bits), length


def test_extract_matches_reference(codebook):
    rng = np.random.default_rng(3)
    plan = random_plan(rng, (10, 10))
    cap = capacity_of_plan(plan, codebook)
    bits = rng.integers(0, 2, cap - HEADER_BITS, dtype=np.uint8)
    key = StegoKey(seed=77)
    mirrors = embed(plan, bits, key, codebook)
    assert np.array_equal(extract(mirrors, key, codebook), reference_extract(mirrors, key, codebook))


def test_round_trip_full_capacity(codebook):
    rng = np.random.default_rng(4)
    for _ in range(5):
        plan = random_plan(rng, (16, 16))
        cap = capacity_of_plan(plan, codebook)
        bits = rng.integers(0, 2, cap - HEADER_BITS, dtype=np.uint8)
        key = StegoKey(seed=int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        out = extract(embed(plan, bits, key, codebook), key, codebook)
        assert np.array_equal(out, bits)


def test_round_trip_partial_payloads(codebook):
    rng = np.random.default_rng(5)
    plan = random_plan(rng, (9, 9))
    cap = capacity_of_plan(plan, codebook)
    key = StegoKey(seed=123456789)
    for length in (0, 1, 7, cap // 3, cap - HEADER_BITS):
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        for fill in STRATEGIES:
            out = extract(embed(plan, bits, key, codebook, fill=fill), key, codebook)
            assert np.array_equal(out, bits), f"length={length} fill={fill}"


def test_embed_preserves_plan(codebook):
    rng = np.random.default_rng(6)
    plan = random_plan(rng, (14, 7))
    cap = capacity_of_plan(plan, codebook)
    bits = rng.integers(0, 2, cap - HEADER_BITS, dtype=np.uint8)
    mirrors = embed(plan, bits, StegoKey(seed=5), codebook)
    codes = mirrors_to_codes(mirrors)
    assert np.array_equal(codebook.group_of_pattern[codes], plan)


def test_zero_capacity_superpixels_carry_nothing(codebook):
    # groups with no zero trits have capacity 0; a plan full of them
    # cannot even hold the header
    zero_cap = int(np.flatnonzero(codebook.capacities == 0)[0])
    plan = np.full((6, 6), zero_cap, dtype=np.int64)
    assert capacity_of_plan(plan, codebook) == 0
    with pytest.raises(PayloadTooLargeError):
        embed(plan, np.zeros(0, dtype=np.uint8), StegoKey(seed=1), codebook)
    with pytest.raises(BadHeaderError):
        extract(codes_to_mirrors(np.full((6, 6), codebook.patterns_sorted[codebook.group_starts[zero_cap]], dtype=np.uint16)), StegoKey(seed=1), codebook)


def test_payload_too_large_message(codebook):
    plan = np.full((2, 2), 3280, dtype=np.int64)  # capacity 32, all eaten by the header
    bits = np.zeros(1, dtype=np.uint8)
    with pytest.raises(PayloadTooLargeError) as exc:
        embed(plan, bits, StegoKey(seed=0), codebook)
    assert exc.value.requested_bits == 1
    assert exc.value.capacity_bits == 32
    msg = str(exc.value)
    assert "1" in msg and "32" in msg


def test_bad_header_on_oversized_length(codebook):
    # force the first four all-zero superpixels to spell a huge length
    plan = np.full((3, 3), 3280, dtype=np.int64)
    lo = int(codebook.group_starts[3280])
    codes = np.full(9, codebook.patterns_sorted[lo], dtype=np.uint16)
    codes[:4] = codebook.patterns_sorted[lo + 255]  # position 255 = 8 one bits
    with pytest.raises(BadHeaderError):
        extract(codes_to_mirrors(codes.reshape(3, 3)), StegoKey(seed=0), codebook)


def test_extract_reads_a_short_stream_from_a_large_plan(codebook):
    # The stream ends long before the plan does; in the second plan the
    # header starts after a run of capacity-0 superpixels and ends part-way
    # through the fifth 7-bit one.
    rng = np.random.default_rng(10)
    zero_cap = int(np.flatnonzero(codebook.capacities == 0)[0])
    plans = [random_plan(rng, (120, 160)), random_plan(rng, (120, 160))]
    plans[1].flat[:7] = zero_cap
    plans[1].flat[7:12] = int(np.flatnonzero(codebook.capacities == 7)[0])
    for plan in plans:
        for length in (0, 1, 13, 200):
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            key = StegoKey(seed=int(rng.integers(0, 1 << 63)))
            mirrors = embed(plan, bits, key, codebook, fill="random")
            got = extract(mirrors, key, codebook)
            assert np.array_equal(got, reference_extract(mirrors, key, codebook))
            assert np.array_equal(got, bits)


def groups_by_capacity(codebook):
    """The first value group of each capacity 0..8."""
    return np.array([np.flatnonzero(codebook.capacities == c)[0] for c in range(9)])


def test_stream_bytes_every_capacity_at_every_bit_offset(codebook):
    # A random plan of every capacity, zero included, with random in-group
    # positions: every capacity 1..8 starts at every bit offset mod 8, and
    # every prefix length is read back against the scalar stream.
    rng = np.random.default_rng(30)
    plan = groups_by_capacity(codebook)[rng.integers(0, 9, 700)]
    codes = codebook.patterns_sorted[codebook.group_starts[plan] + rng.integers(0, codebook.group_sizes[plan])]
    caps = codebook.capacity_of_pattern[codes]
    ends = np.cumsum(caps, dtype=np.int64)
    starts = ends - caps
    assert {(c, o % 8) for c, o in zip(caps.tolist(), starts.tolist()) if c} == \
        {(c, o) for c in range(1, 9) for o in range(8)}
    want = np.array(reference_stream(codes, codebook), dtype=np.uint8)
    assert want.size == ends[-1]
    for count in range(1, want.size + 1):
        packed = _stream_bytes(codes, caps, ends, codebook, count)
        assert packed.dtype == np.uint8 and packed.size == (count + 7) // 8, count
        assert np.array_equal(np.unpackbits(packed, count=count), want[:count]), count


@pytest.mark.parametrize("fill", STRATEGIES)
def test_extract_with_zero_capacity_superpixels_through_the_stream(codebook, fill):
    # Capacity-0 superpixels scattered all through the stream, runs of them
    # included, not only as a leading run.
    rng = np.random.default_rng(31)
    zero_cap = int(np.flatnonzero(codebook.capacities == 0)[0])
    for trial in range(6):
        plan = random_plan(rng, (24, 30))
        plan[rng.random(plan.shape) < 0.3] = zero_cap
        start = int(rng.integers(0, plan.size - 8))
        plan.flat[start:start + 8] = zero_cap
        cap = capacity_of_plan(plan, codebook)
        for length in (0, int(rng.integers(1, cap - HEADER_BITS)), cap - HEADER_BITS):
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            key = StegoKey(seed=int(rng.integers(0, 1 << 63)))
            mirrors = embed(plan, bits, key, codebook, fill=fill)
            got = extract(mirrors, key, codebook)
            assert np.array_equal(got, reference_extract(mirrors, key, codebook)), (trial, length)
            assert np.array_equal(got, bits), (trial, length)


@pytest.mark.parametrize("fill", STRATEGIES)
def test_extract_stream_ending_on_a_superpixel_boundary(codebook, fill):
    # The header, then the whole stream, ends exactly where a superpixel
    # ends, and capacity-0 superpixels follow each end.
    groups = groups_by_capacity(codebook)
    rng = np.random.default_rng(32)
    plan = random_plan(rng, (20, 20))
    plan.flat[:4] = groups[8]
    plan.flat[4:9] = groups[0]
    plan.flat[9] = groups[3]
    ends = np.cumsum(codebook.capacities[plan.ravel()])
    assert ends[3] == HEADER_BITS
    for k in (9, 57, 200):
        plan.flat[k + 1:k + 4] = groups[0]
        ends = np.cumsum(codebook.capacities[plan.ravel()])
        length = int(ends[k]) - HEADER_BITS
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        key = StegoKey(seed=0x0DDBA11 + k)
        mirrors = embed(plan, bits, key, codebook, fill=fill)
        got = extract(mirrors, key, codebook)
        assert np.array_equal(got, reference_extract(mirrors, key, codebook)), k
        assert np.array_equal(got, bits), k
    mirrors = embed(plan, np.zeros(0, dtype=np.uint8), StegoKey(seed=5), codebook, fill=fill)
    assert extract(mirrors, StegoKey(seed=5), codebook).size == 0


def test_bad_header_cases_in_a_large_plan(codebook):
    zero_cap = int(np.flatnonzero(codebook.capacities == 0)[0])
    one_bit = int(np.flatnonzero(codebook.capacities == 1)[0])
    plan = np.full((100, 100), zero_cap, dtype=np.int64)
    plan.flat[5000:5031] = one_bit
    codes = codebook.patterns_sorted[codebook.group_starts[plan]]
    with pytest.raises(BadHeaderError, match="stream holds 31 bits, shorter than the 32-bit header"):
        extract(codes_to_mirrors(codes), StegoKey(seed=1), codebook)
    with pytest.raises(BadHeaderError, match="stream holds 0 bits, shorter than the 32-bit header"):
        extract(np.zeros((0, 0), dtype=np.uint8), StegoKey(seed=1), codebook)
    # An all-8-bit plan of 100x100 holds 80,000 bits: the header may declare
    # 79,968 payload bits and no more.
    lo = int(codebook.group_starts[3280])

    def all_8_bit(length):
        codes = np.full((100, 100), codebook.patterns_sorted[lo], dtype=np.uint16)
        header = np.frombuffer(length.to_bytes(4, "big"), np.uint8).astype(np.int64)
        codes.flat[:4] = codebook.patterns_sorted[lo + header]
        return codes_to_mirrors(codes)

    key = StegoKey(seed=3)
    full = all_8_bit(79_968)
    assert np.array_equal(extract(full, key, codebook), reference_extract(full, key, codebook))
    with pytest.raises(BadHeaderError, match="header declares 79969 payload bits but only 79968 were embedded"):
        extract(all_8_bit(79_969), key, codebook)


def test_wrong_key_scrambles_but_preserves_length(codebook):
    rng = np.random.default_rng(7)
    plan = random_plan(rng, (12, 12))
    cap = capacity_of_plan(plan, codebook)
    bits = rng.integers(0, 2, cap - HEADER_BITS, dtype=np.uint8)
    mirrors = embed(plan, bits, StegoKey(seed=42), codebook)
    wrong = extract(mirrors, StegoKey(seed=43), codebook)
    assert wrong.size == bits.size
    assert not np.array_equal(wrong, bits)
    assert wrong.sum() == bits.sum()  # permutation only


def test_fill_random_is_deterministic(codebook):
    rng = np.random.default_rng(8)
    plan = random_plan(rng, (10, 10))
    bits = rng.integers(0, 2, 16, dtype=np.uint8)
    key = StegoKey(seed=314159)
    a = embed(plan, bits, key, codebook, fill="random")
    b = embed(plan, bits, key, codebook, fill="random")
    assert np.array_equal(a, b)
    c = embed(plan, bits, StegoKey(seed=314160), codebook, fill="random")
    assert not np.array_equal(a, c)


def test_fill_strategies_differ_only_after_stream(codebook):
    rng = np.random.default_rng(9)
    plan = random_plan(rng, (10, 10))
    bits = rng.integers(0, 2, 40, dtype=np.uint8)
    key = StegoKey(seed=2718)
    outs = {fill: embed(plan, bits, key, codebook, fill=fill) for fill in STRATEGIES}
    caps = codebook.capacities[plan.ravel()]
    boundary = int(np.searchsorted(np.cumsum(caps), HEADER_BITS + bits.size))
    for fill, mirrors in outs.items():
        codes = mirrors_to_codes(mirrors).ravel()
        ref = mirrors_to_codes(outs["min"]).ravel()
        assert np.array_equal(codes[:boundary], ref[:boundary]), fill
        out = extract(mirrors, key, codebook)
        assert np.array_equal(out, bits), fill


@pytest.mark.parametrize("shape", [(6, 6), (40, 52), (128, 128)])
def test_empty_payload_with_min_fill_is_the_min_encoding(codebook, shape):
    # A header-only stream is 32 zero bits, which pick position 0 as the
    # "min" fill does, so embed and select_patterns read the same codes
    # from the codebook whatever the key.
    plan = random_plan(np.random.default_rng(shape[1]), shape)
    want = codes_to_mirrors(select_patterns(plan, codebook, "min"))
    for seed in (0, 1, (1 << 64) - 1):
        got = embed(plan, np.zeros(0, dtype=np.uint8), StegoKey(seed=seed), codebook, fill="min")
        assert np.array_equal(got, want), seed


@pytest.mark.parametrize("payload", [
    [2, 0, 1, 3, 0, 0, 1, 1],
    np.array([0, 1, 3], dtype=np.uint8),
    np.array([1, 256, 0], dtype=np.int64),           # a uint8 cast would wrap 256 to 0
    [0, -1, 1],
    [0.0, 0.5, 1.0],
    np.zeros((2, 4), dtype=np.uint8),                # 2-D, even with 0/1 values
    np.uint8(1),
])
def test_embed_refuses_payloads_that_are_not_bits(codebook, payload):
    plan = np.full((4, 4), 3280, dtype=np.int64)     # 128 bits, room for every payload here
    with pytest.raises(ValueError, match="payload bits must be"):
        embed(plan, payload, StegoKey(seed=1), codebook)


def test_embed_takes_bits_of_any_type(codebook):
    plan = np.full((4, 4), 3280, dtype=np.int64)
    key = StegoKey(seed=1)
    bits = [1, 0, 1, 1, 0, 0, 1, 1]
    want = embed(plan, np.array(bits, dtype=np.uint8), key, codebook)
    for payload in (bits, np.array(bits, dtype=bool), np.array(bits, dtype=np.int64),
                    np.array(bits, dtype=np.float64)):
        assert np.array_equal(embed(plan, payload, key, codebook), want)
    assert extract(want, key, codebook).tolist() == bits


def _shake(label, nbytes):
    return np.frombuffer(hashlib.shake_256(label).digest(nbytes), dtype=np.uint8)


# Plan shape, payload length, key and fill of two fixed embeddings, and the
# SHA-256 of embed's mirror bytes, of extract's bits under the key, and of
# extract's bits under the key with its lowest bit flipped.  The first
# payload runs the shuffle past WINDOW_FLOOR steps, the second past a draw
# block.  Plans and payloads come from SHAKE-256, so they do not depend on
# numpy's generators.
WIRE_DIGESTS = [
    ((32, 40), 1500, 0x0123456789ABCDEF, "random",
     "eaca1d26ea8ff41a3d7465546327f671c0cfc16f7760bbeeca288be486808464",
     "3ed60448e28567ebac78dd3647e1cc89dddf78aa35ef4ab7bf868d44b2255467",
     "89063d7ef7286ded0a73e901ca3c8e4751babd1055c82b73e82d3ba32776e99e"),
    ((64, 128), 20000, 0xFEDCBA9876543210, "max",
     "ac94074d7975cacc7aa8c40d09dcedf02fe5ab4bd5ba0dc1aecb5a14c7d43cd0",
     "98af6ef2acdf94dc1f5bae549effc36ab108b9bde0423fbe9323d021c202ad96",
     "abfd0044031146c109d8089bf3213908f3ae691c6dd2d641c690ba8baef41f61"),
]


@pytest.mark.parametrize("shape, length, seed, fill, mirrors_sha, bits_sha, wrong_key_sha",
                         WIRE_DIGESTS, ids=["past_window_floor", "past_draw_block"])
def test_wire_format_digests(codebook, shape, length, seed, fill, mirrors_sha, bits_sha,
                             wrong_key_sha):
    # A shuffle that is wrong yet the same in embed and extract round-trips
    # every payload; these digests fail on it.
    label = f"{shape[0]}x{shape[1]}".encode()
    plan = _shake(b"plan " + label, 2 * shape[0] * shape[1]).view(">u2").astype(np.int64) % 6561
    plan = plan.reshape(shape)
    bits = np.unpackbits(_shake(b"payload " + label, (length + 7) // 8))[:length]
    key = StegoKey(seed=seed)
    mirrors = embed(plan, bits, key, codebook, fill=fill)
    got = extract(mirrors, key, codebook)
    assert np.array_equal(got, bits)
    assert hashlib.sha256(mirrors.tobytes()).hexdigest() == mirrors_sha
    assert hashlib.sha256(got.tobytes()).hexdigest() == bits_sha
    wrong = extract(mirrors, StegoKey(seed=seed ^ 1), codebook)
    assert hashlib.sha256(wrong.tobytes()).hexdigest() == wrong_key_sha


def test_error_types():
    assert issubclass(PayloadTooLargeError, Exception)
    assert issubclass(BadHeaderError, Exception)


@functools.lru_cache(maxsize=1)
def _cb():
    return build_codebook()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.binary(max_size=40))
def test_round_trip_property(seed, payload):
    cb = _cb()
    bits = bytes_to_bits(payload)
    rng = np.random.default_rng(seed % (1 << 32))
    plan = rng.integers(0, 6561, (12, 12), dtype=np.int64)
    if capacity_of_plan(plan, cb) < HEADER_BITS + bits.size:
        return
    key = StegoKey(seed=seed)
    assert np.array_equal(extract(embed(plan, bits, key, cb), key, cb), bits)
