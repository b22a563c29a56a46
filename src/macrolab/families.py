"""Macro-family builders for the six studied density regimes.

Five regimes materialize explicit macro sets; the probabilistic free-monoid
regime would need exponentially many macros, so it is represented lazily
with membership decided per word (periodicity test plus a seeded hash).
Seeded randomness, that hash and the letter stream of `seeded_words`, is
blake2b from hashlib, which only those two load (the stream through
`macrolab.stream`).
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

from .monoid import Macro, MacroSet, MonoidKind, Word, abelian, free

REGIMES = ("place", "waring", "double_log", "finite", "poly_free", "prob_free")


class _FamilySpec(NamedTuple):
    regime: str
    monoid: MonoidKind
    r_max: int
    b: int | None = None
    k: int | None = None
    c: float | None = None
    p: float | None = None
    big_b: float | None = None
    big_c: float | None = None
    seed: int | None = None
    words: tuple[Word, ...] | None = None
    sampler: str = "lex"


class FamilySpec(_FamilySpec):
    """Parameters for one macro family, truncated to definitions of length <= r_max."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FamilySpec:
        spec = super().__new__(cls, *args, **kwargs)
        if spec.regime not in REGIMES:
            raise ValueError(f"unknown regime {spec.regime!r}")
        if spec.r_max < 1:
            raise ValueError("r_max must be at least 1")
        return spec

    @staticmethod
    def place_notation(b: int, n: int, r_max: int) -> FamilySpec:
        if b < 2:
            raise ValueError("place notation needs base b >= 2")
        return FamilySpec("place", abelian(n), r_max, b=b)

    @staticmethod
    def waring(k: int, n: int, r_max: int) -> FamilySpec:
        if k < 2:
            raise ValueError("power sums need exponent k >= 2")
        return FamilySpec("waring", abelian(n), r_max, k=k)

    @staticmethod
    def double_log(b: int, r_max: int) -> FamilySpec:
        if b < 2:
            raise ValueError("double-log towers need base b >= 2")
        return FamilySpec("double_log", abelian(1), r_max, b=b)

    @staticmethod
    def finite(
        words: list[Word] | tuple[Word, ...],
        r_max: int | None = None,
        monoid: MonoidKind | None = None,
    ) -> FamilySpec:
        """Explicit macro list; an empty list (no macros at all) needs `monoid`."""
        if words:
            monoid = words[0].monoid
        elif monoid is None:
            raise ValueError("an empty finite family needs an explicit monoid")
        top = max((w.g_length() for w in words), default=1)
        return FamilySpec("finite", monoid, r_max if r_max is not None else top, words=tuple(words))

    @staticmethod
    def poly_density_free(
        c: float, p: float, n: int, r_max: int, seed: int | None = None, sampler: str = "lex"
    ) -> FamilySpec:
        if not c > 0:  # written so that a NaN c or p fails its check
            raise ValueError(f"polynomial density needs c > 0, got c={c}")
        if not p >= 0:
            raise ValueError(f"polynomial density needs p >= 0, got p={p}")
        if n < 2:  # one letter has one word per length, and no linear slope d
            raise ValueError(f"polynomial density needs n >= 2 letters, got n={n}")
        if sampler not in ("lex", "random"):
            raise ValueError(f"unknown sampler {sampler!r}")
        if sampler == "random" and seed is None:
            raise ValueError("random sampler needs a seed")
        spec = FamilySpec("poly_free", free(n), r_max, c=c, p=p, seed=seed, sampler=sampler)
        spec.poly_counts()  # an unlistable count is bad input, found before any build
        return spec

    def poly_counts(self) -> list[tuple[int, int]]:
        """(length, int(c * length**p)) for length 2..r_max, the word counts
        of the polynomial family; a count past sys.maxsize is an error."""
        counts = []
        for length in range(2, self.r_max + 1):
            try:
                want = self.c * length**self.p
            except OverflowError:  # past the largest float
                want = math.inf
            if want > sys.maxsize:
                raise ValueError(f"polynomial density asks for {want:.4g} words of length "
                                 f"{length}, past the {sys.maxsize} a family can list")
            counts.append((length, int(want)))
        return counts

    @staticmethod
    def probabilistic_free(big_b: float, big_c: float, n: int, r_max: int, seed: int) -> FamilySpec:
        if not 4 * math.log(n) < big_c < math.inf:  # a NaN C or B fails its check too
            raise ValueError(f"need finite C > 4 ln n = {4 * math.log(n):.4f}, got C={big_c}")
        if not big_b >= 2 * big_c:  # B = inf is fine: every word is then log-periodic
            raise ValueError(f"need B >= 2C = {2 * big_c}, got B={big_b}")
        return FamilySpec("prob_free", free(n), r_max, big_b=big_b, big_c=big_c, seed=seed)


def prefix_periods(letters: tuple[int, ...], start: int = 0) -> list[int]:
    """Minimal periods of letters[start:start+l] for l = 1, 2, ..., in one pass.

    This is the KMP failure function of the suffix letters[start:]: entry
    l-1 is l minus the longest proper border of the length-l prefix, so the
    border of a border of length k is k - periods[k-1].
    """
    periods = [1] * (len(letters) - start)
    k = 0  # longest proper border of the prefix read so far
    for t in range(1, len(periods)):
        a = letters[start + t]
        while k > 0 and a != letters[start + k]:
            k -= periods[k - 1]
        if a == letters[start + k]:
            k += 1
        periods[t] = t + 1 - k
    return periods


def minimal_period(letters: tuple[int, ...] | list[int] | Word) -> int:
    """Smallest d >= 1 with w[j] == w[j+d] for all valid j (need not divide |w|)."""
    if isinstance(letters, Word):
        letters = letters.data
    return prefix_periods(letters)[-1] if letters else 0


class LazyFreeMacroSet:
    """Membership-queried macro set: log-periodic words plus seeded random inclusions.

    A word w of length l >= 2 is a macro iff per(w) <= B ln(e + l), or a keyed
    64-bit hash of its letters falls below 1 / ln(e + l).  Membership is a pure
    function of (word, seed): repeated queries always agree, and distinct words
    are hashed independently.
    """

    def __init__(self, monoid: MonoidKind, big_b: float, big_c: float, seed: int):
        if monoid.is_abelian:
            raise ValueError("the probabilistic family lives in the free monoid")
        from hashlib import blake2b

        self.monoid = monoid
        self.big_b = big_b
        self.big_c = big_c
        self.seed = seed
        self._blake2b = blake2b
        self._key = seed.to_bytes(8, "little", signed=False)

    @staticmethod
    def inclusion_probability(length: int) -> float:
        return 1.0 / math.log(math.e + length)

    def _hash_unit(self, letters: tuple[int, ...]) -> float:
        h = self._blake2b(bytes(letters), key=self._key, digest_size=8)
        return int.from_bytes(h.digest(), "little") / 2.0**64

    def is_log_periodic(self, letters: tuple[int, ...], period: int | None = None) -> bool:
        if period is None:
            period = minimal_period(letters)
        return period <= self.big_b * math.log(math.e + len(letters))

    def random_included(self, letters: tuple[int, ...]) -> bool:
        return self._hash_unit(letters) < self.inclusion_probability(len(letters))

    def contains_letters(self, letters: tuple[int, ...], period: int | None = None) -> bool:
        """Membership of a word; `period` is its minimal period, when known."""
        return len(letters) >= 2 and (
            self.is_log_periodic(letters, period) or self.random_included(letters))


def _lex_words(length: int, count: int, n: int) -> list:
    """The `count` lexicographically smallest length-`length` words on n
    letters, as bytes (tuples of ints past 256 letters)."""
    words = itertools.islice(itertools.product(range(n), repeat=length), count)
    return list(map(bytes, words) if n <= 256 else words)


def seeded_words(n: int, length: int, seed: int, use: bytes):
    """Endless uniform random words of `length` letters in [0, n), one
    stream per (seed, use, length), for n <= 256.

    The blocks are those of `stream.blocks(seed, use, prefix)` with the
    prefix `length` as 8 little-endian bytes: blake2b in counter mode, keyed
    by the seed as 8 little-endian bytes (the key of the probabilistic
    family's membership hash) and personalised by `use`, so that each use
    of one seed reads its own stream.  The blocks' bytes become letters by
    rejection: a byte b below 256 - 256 % n is the letter b % n, any other
    is skipped.  The letters, in order, are cut into words.  The stream is
    defined by this code alone, so it is the same on every Python.  A length
    of 2**64 or more has no 8-byte prefix and is rejected."""
    if not 1 <= n <= 256:
        raise ValueError(f"seeded words spell one letter per byte, so need n <= 256, got n={n}")
    if length >= 2**64:
        raise ValueError(f"seeded words prefix their stream with the length as 8 bytes, "
                         f"so need a length below 2**64, got {length}")
    from .stream import blocks

    letters = bytes(b % n for b in range(256))
    skipped = bytes(range(256 - 256 % n, 256))
    buf = b""
    for block in blocks(seed, use, length.to_bytes(8, "little")):
        buf += block.translate(letters, skipped)
        cut = len(buf) - len(buf) % length
        yield from (tuple(buf[j:j + length]) for j in range(0, cut, length))
        buf = buf[cut:]


def _sampled_words(length: int, count: int, n: int, seed: int) -> list[tuple[int, ...]]:
    """count distinct words of the given length, in lex order: the first
    count distinct words of `seeded_words(n, length, seed, b"poly_free")`."""
    count = min(count, n**length)
    drawn: set[tuple[int, ...]] = set()
    words = seeded_words(n, length, seed, b"poly_free")
    while len(drawn) < count:
        drawn.update(itertools.islice(words, count - len(drawn)))
    return sorted(drawn)


def build_macro_family(spec: FamilySpec) -> MacroSet | LazyFreeMacroSet:
    """Materialize a family spec into a macro set (lazy for the probabilistic regime)."""
    n = spec.monoid.n
    if spec.regime == "place":
        b = spec.b
        macros = []
        for i in range(n):
            j = 1
            while b**j <= spec.r_max:
                mults = tuple(b**j if t == i else 0 for t in range(n))
                macros.append(Macro(f"b{b}e{j}_a{i + 1}", Word(spec.monoid, mults)))
                j += 1
        return MacroSet(spec.monoid, macros)

    if spec.regime == "waring":
        k = spec.k
        macros = []
        for i in range(n):
            m = 2  # m = 1 would be a primitive duplicate, which macro sets reject
            while m**k <= spec.r_max:
                mults = tuple(m**k if t == i else 0 for t in range(n))
                macros.append(Macro(f"pow{m}e{k}_a{i + 1}", Word(spec.monoid, mults)))
                m += 1
        return MacroSet(spec.monoid, macros)

    if spec.regime == "double_log":
        b = spec.b
        macros = []
        j = 0
        while b ** (b**j) <= spec.r_max:
            macros.append(Macro(f"tower{j}", Word(spec.monoid, (b ** (b**j),))))
            j += 1
        return MacroSet(spec.monoid, macros)

    if spec.regime == "finite":
        macros = [
            Macro(f"m{i}", w)
            for i, w in enumerate(spec.words)
            if w.g_length() <= spec.r_max
        ]
        return MacroSet(spec.monoid, macros)

    if spec.regime == "poly_free":
        words = []
        for length, count in spec.poly_counts():
            if count <= 0:
                continue
            if spec.sampler == "lex":
                words += _lex_words(length, count, n)
            else:
                words += map(bytes, _sampled_words(length, count, n, spec.seed))
        return MacroSet.from_words(spec.monoid, words)

    assert spec.regime == "prob_free"
    return LazyFreeMacroSet(spec.monoid, spec.big_b, spec.big_c, spec.seed)
