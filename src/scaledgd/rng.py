"""Deterministic counter-based random streams.

Every random draw in this package flows through the Philox-4x64 counter-based
generator keyed by a (seed, stream) pair, with normal variates produced by the
Box-Muller transform applied to the raw uniforms.  The construction is simple
enough to reproduce bit-exactly from any Philox implementation:

  * key     = seed + 2^64 * stream  (two 64-bit words, counter starts at 0)
  * u       = next uniform in [0, 1) (53-bit, from the high bits of a draw)
  * normals come in pairs from uniforms (u1, u2):
        r  = sqrt(-2 * log(1 - u1))
        z0 = r * cos(2*pi*u2),  z1 = r * sin(2*pi*u2)
    a request for k normals consumes ceil(k/2) (u1, u2) pairs, laid out as
    u1[0..p-1] then u2[0..p-1], and interleaves (z0, z1); the trailing value
    is dropped when k is odd.

`normals_block` fills a block of rows, one stream each, from a single Philox
generator that it re-keys to each row's stream (the same key, counter 0 and
an empty output buffer), then runs the transform once over the block.  A
Philox stream depends only on its key and counter, so row j is bit for bit
what `uniform_stream` gives for its stream alone; re-keying just skips
building a new generator, and the OS entropy it would seed from, per row.
`normals` and `normals_from` run the same transform on one stream.

Derived seeds for independent components (ground truth, operator, noise, ...)
come from `derive_seed`, a splitmix64 chain over the path of integer tags.
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = "philox4x64/box-muller/v1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from `seed` and a path of integer tags.

    Stable across runs and platforms; extending the path never perturbs
    seeds derived from shorter prefixes with different final tags.
    """
    x = seed & _MASK64
    for tag in path:
        x = _mix64((x + _GOLDEN + (int(tag) & _MASK64)) & _MASK64)
    return x


def uniform_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the (seed, stream) pair."""
    key = (int(seed) & _MASK64) + ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(gen: np.random.Generator, seed: int, stream: int) -> None:
    """Move the Philox `gen` to the start of the (seed, stream) stream, with no
    output of its previous stream left in its buffer."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (int(seed) & _MASK64, int(stream) & _MASK64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _box_muller(u: np.ndarray, count: int) -> np.ndarray:
    """`count` normals from each row of uniforms u (u1 block, then u2 block)."""
    pairs = u.shape[-1] // 2
    u1, u2 = u[..., :pairs], u[..., pairs:]
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], log is finite
    theta = 2.0 * np.pi * u2
    out = np.empty_like(u)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :count]


def normals_block(seed: int, streams, count: int,
                  gen: np.random.Generator) -> np.ndarray:
    """Row j holds the `count` normals of stream streams[j] of `seed`.

    `gen`, any Philox generator, is re-keyed to each stream in turn to fill
    that row's uniforms; the Box-Muller then runs once over the whole block,
    so row j is exactly `normals(seed, streams[j], count)`.
    """
    u = np.empty((len(streams), 2 * ((count + 1) // 2)))
    for row, stream in zip(u, streams):
        _rekey(gen, seed, stream)
        gen.random(out=row)
    return _box_muller(u, count)


def normals_from(gen: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` standard normals from `gen` via Box-Muller."""
    return _box_muller(gen.random(2 * ((count + 1) // 2)), count)


def normals(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard normals from the (seed, stream) Philox/Box-Muller stream."""
    return normals_from(uniform_stream(seed, stream), count)
