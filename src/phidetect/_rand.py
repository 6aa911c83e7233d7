"""Deterministic random-stream plumbing.

Each Monte-Carlo replicate draws from its own block of the counter-based
Philox stream of ``(master seed, replicate index)``: every Monte-Carlo loop
through one reused generator (``_replicate_rngs``), ``sample_mixture`` given
an int seed through ``replicate_rng``.  Replicate streams therefore do not
depend on how work is chunked across processes or stacks, which makes results
bit-for-bit reproducible regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections.abc import Iterator

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["RNG_ID", "replicate_rng", "uniform_open", "stable_seed"]

#: Identifier for the generator algorithm + substream convention, stored in
#: calibration tables so cached results are never reused across schemes.
RNG_ID = "philox4x64-counter128-v1"

_INV_2_53 = 1.0 / (1 << 53)

#: Values a loop over an n-long array takes at a time: 2^13, 64 KB of int64 or
#: float64 (a draw's integers, the heteroscedastic log ratio's scratch).
_CHUNK = 1 << 13


def replicate_rng(seed: int, replicate: int) -> Generator:
    """Generator for one replicate, independent of all other replicates: its
    counter block of the Philox stream keyed by ``seed`` (``_replicate_rngs``)."""
    if replicate < 0:
        raise ValueError("replicate index must be nonnegative")
    return next(_replicate_rngs(seed, (operator.index(replicate),)))  # numpy ints overflow the words


def _replicate_rngs(seed: int, replicates) -> Iterator[Generator]:
    """The generator of each rep in ``replicates``, in turn, as one reused
    generator.  Each replicate owns the counter block ``[rep * 2^128, (rep+1) *
    2^128)``: each step sets the Philox counter to ``rep << 128`` (the one place
    that layout is written) and empties the buffer, so a replicate draws the
    same numbers however much the previous one consumed.  Draw from each before
    taking the next.  A fresh ``Generator(Philox(key, counter))`` per replicate
    costs several times as much: most of it is ``SeedSequence()`` gathering OS
    entropy that the key then overrides.
    """
    bits = Philox(key=seed)
    rng, state = Generator(bits), bits.state  # counter 0, buffer empty
    counter = state["state"]["counter"]
    for rep in replicates:
        counter[2:] = rep & 0xFFFF_FFFF_FFFF_FFFF, rep >> 64
        bits.state = state
        yield rng


def uniform_open(rng: Generator, size: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1).

    Values are dyadic rationals k/2^53 with 1 <= k < 2^53, so exact 0.0 and
    1.0 cannot occur (``Generator.random`` can return 0.0).
    """
    return _fill_uniform(rng, np.empty(size))


def _fill_uniform(rng: Generator, row: np.ndarray) -> np.ndarray:
    """``uniform_open`` into ``row``, ``_CHUNK`` integers at a time.  Lemire's
    bounded draw takes one raw Philox word per value (redrawing only when its low
    word is below 2048), so the values and the stream position after the call are
    those of one ``integers`` call of ``row.size``; no n-long integer array is made."""
    for i in range(0, row.size, _CHUNK):
        part = row[i : i + _CHUNK]
        np.multiply(rng.integers(1, 1 << 53, size=part.size, dtype=np.int64), _INV_2_53, out=part)
    return row


def stable_seed(*parts: int | float | str) -> int:
    """Deterministic 63-bit seed from primitive values.

    Built on SHA-256 rather than ``hash()`` so the result does not depend on
    ``PYTHONHASHSEED`` or the process.  Floats, numpy's too, are canonicalised
    as ``repr(float(p))`` (shortest round-trip form), numpy integers as ``int``,
    so a numpy scalar seeds as the Python number of its value.
    """
    canon = [int(p) if isinstance(p, np.integer)
             else repr(float(p)) if isinstance(p, (float, np.floating)) else p for p in parts]
    blob = json.dumps(canon, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _pool_map(fn, workers: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, over ``workers`` processes when > 1 (the
    package's one process pool, imported only then); results keep input order."""
    if workers <= 1:
        return list(map(fn, *iterables))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *iterables))
