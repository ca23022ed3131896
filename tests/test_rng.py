import numpy as np
import pytest

from scaledgd import rng


def test_same_key_reproduces_bits():
    a = rng.normals(12345, 7, 1000)
    b = rng.normals(12345, 7, 1000)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = rng.normals(12345, 0, 100)
    b = rng.normals(12345, 1, 100)
    assert not np.allclose(a, b)


def test_box_muller_layout():
    # a request for k normals consumes ceil(k/2) uniform pairs laid out as
    # u1-block then u2-block, with (z0, z1) interleaved
    count = 101
    pairs = (count + 1) // 2
    u = rng.uniform_stream(9, 3).random(2 * pairs)
    u1, u2 = u[:pairs], u[pairs:]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    expect = np.empty(2 * pairs)
    expect[0::2] = r * np.cos(theta)
    expect[1::2] = r * np.sin(theta)
    assert np.array_equal(rng.normals(9, 3, count), expect[:count])


@pytest.mark.parametrize("count", [0, 1, 7, 8, 101])
def test_normals_block_rows_are_streams(count):
    # one Box-Muller over a block of streams gives each stream's own values
    streams = [5, 0, 3, 2**40, 3]
    block = rng.normals_block(17, streams, count, rng.uniform_stream(17))
    assert block.shape == (len(streams), count)
    for row, s in zip(block, streams):
        assert np.array_equal(row, rng.normals(17, s, count)), s


def _direct(seed, stream):
    # a Philox generator built from the documented key, with no package code
    return np.random.Generator(np.random.Philox(key=seed + 2**64 * stream))


@pytest.mark.parametrize("seed, streams", [
    (17, [5, 0, 3, 5]),
    (2**64 - 1, [2**63, 2**64 - 1, 0, 2**63 + 12345]),
    (2**63 + 9, [1, 2**63 + 1, 2**63]),
])
@pytest.mark.parametrize("count", [1, 2, 5, 6, 8, 101])
def test_rekeyed_block_rows_match_directly_built_streams(seed, streams, count):
    # one generator, re-keyed for every row and reused across blocks, gives
    # each stream's own values.  Rows of 2 (mod 4) uniforms (every count here
    # but 8) end halfway through a 4-word Philox output, so a buffer kept
    # across a re-key would shift the next row.
    gen = rng.uniform_stream(0)
    gen.random(3)  # start mid-stream, with words buffered
    pairs = (count + 1) // 2
    for _ in range(2):
        block = rng.normals_block(seed, streams, count, gen)
        for row, stream in zip(block, streams):
            uniforms = _direct(seed, stream).random(2 * pairs)
            assert np.array_equal(row, rng._box_muller(uniforms, count)), stream


def test_rekey_drops_buffered_output():
    gen = rng.uniform_stream(1, 1)
    gen.random(2)  # half of a Philox output stays buffered
    gen.integers(0, 10, dtype=np.uint32)  # and half of a word
    rng._rekey(gen, 2**64 - 1, 2**63)
    direct = _direct(2**64 - 1, 2**63)
    assert np.array_equal(gen.integers(0, 2**32, 3, dtype=np.uint32),
                          direct.integers(0, 2**32, 3, dtype=np.uint32))
    assert np.array_equal(gen.random(6), direct.random(6))


def test_moments():
    z = rng.normals(2024, 0, 200_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02


def test_odd_count():
    assert rng.normals(1, 1, 7).shape == (7,)
    assert rng.normals(1, 1, 0).shape == (0,)


def test_derive_seed_stable_and_distinct():
    s = rng.derive_seed(42, 1, 2)
    assert s == rng.derive_seed(42, 1, 2)
    assert s != rng.derive_seed(42, 1, 3)
    assert s != rng.derive_seed(42, 2, 2)
    assert 0 <= s < 2**64


def test_derive_seed_prefix_stability():
    # extending the path never changes sibling derivations
    base = rng.derive_seed(7, 0)
    assert rng.derive_seed(7, 0) == base
    rng.derive_seed(7, 0, 5)
    assert rng.derive_seed(7, 0) == base
