"""Seeded random streams defined by macrolab's own code over blake2b.

A stream is named by a seed, a use and a message prefix.  Block i = 0, 1, ...
is the 64-byte blake2b digest of the prefix followed by i as 8 little-endian
bytes, keyed by the seed as 8 little-endian bytes and personalised by the use
(at most 16 bytes), so each use of one seed reads its own stream.  Only
`synth` and the seeded sim paths import this module, so unseeded sims never
load hashlib; the streams are the same on every Python.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from hashlib import blake2b
from struct import Struct

_SPAN = 2**32
_WORDS = Struct("<16I")  # a block as 16 little-endian 32-bit words


def blocks(seed: int, use: bytes, prefix: bytes = b"") -> Iterator[bytes]:
    """The endless 64-byte blocks of stream (seed, use, prefix)."""
    key = seed.to_bytes(8, "little", signed=False)
    for i in itertools.count():
        yield blake2b(prefix + i.to_bytes(8, "little"), key=key, person=use).digest()


def draws(seed: int, use: bytes) -> Callable[[int], int]:
    """`below(k)`, the next uniform draw from range(k) on stream (seed, use).

    The blocks are read as little-endian 32-bit words, in order.  A draw
    below k, for 1 <= k <= 2**32, takes the next word w under
    2**32 - 2**32 % k and returns w % k; words at or past that limit are
    skipped, so every residue is equally likely.  A larger k is a ValueError.
    """
    next_word = itertools.chain.from_iterable(map(_WORDS.unpack, blocks(seed, use))).__next__

    def below(k: int) -> int:
        limit = _SPAN - _SPAN % k
        w = next_word()
        while w >= limit:
            if k > _SPAN:  # the limit is 0: no word lies under it
                raise ValueError(f"a draw needs 1 <= k <= 2**32, got k={k}")
            w = next_word()
        return w % k

    return below
