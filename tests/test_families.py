"""Tests for the macro family builders, the lazy probabilistic set and the
seeded letter stream."""

import hashlib
import itertools
import sys
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macrolab.families import (
    FamilySpec,
    LazyFreeMacroSet,
    _sampled_words,
    build_macro_family,
    minimal_period,
    prefix_periods,
    seeded_words,
)
from macrolab.expansion import SphereBudgetError, expansion_profile, halving_window, sample_words
from macrolab.monoid import (
    Macro,
    MacroSet,
    Word,
    abelian,
    free,
    gprime_length,
    monoid_depth,
)


def slow_minimal_period(letters):
    """Oracle: first shift d under which the word agrees with itself."""
    L = len(letters)
    if L == 0:
        return 0
    for d in range(1, L + 1):
        if all(letters[j] == letters[j + d] for j in range(L - d)):
            return d
    return L


# --- eager builders ---


def test_place_family_base_ten():
    M = build_macro_family(FamilySpec.place_notation(b=10, n=1, r_max=1000))
    assert sorted(m.definition.data[0] for m in M) == [10, 100, 1000]


def test_place_family_covers_every_letter():
    M = build_macro_family(FamilySpec.place_notation(b=2, n=2, r_max=8))
    defs = sorted(m.definition.data for m in M)
    assert defs == [(0, 2), (0, 4), (0, 8), (2, 0), (4, 0), (8, 0)]


def test_waring_family_skips_the_trivial_power():
    M = build_macro_family(FamilySpec.waring(k=2, n=1, r_max=100))
    values = sorted(m.definition.data[0] for m in M)
    assert values == [m * m for m in range(2, 11)]
    assert 1 not in values


def test_double_log_family_towers():
    M = build_macro_family(FamilySpec.double_log(b=2, r_max=70000))
    assert sorted(m.definition.data[0] for m in M) == [2, 4, 16, 256, 65536]
    M3 = build_macro_family(FamilySpec.double_log(b=3, r_max=30))
    assert sorted(m.definition.data[0] for m in M3) == [3, 27]


def test_finite_family_keeps_given_words():
    words = [Word.from_multiplicities((5,)), Word.from_multiplicities((12,))]
    M = build_macro_family(FamilySpec.finite(words))
    assert sorted(m.definition.data[0] for m in M) == [5, 12]


def test_finite_family_truncates_to_r_max():
    words = [Word.from_multiplicities((5,)), Word.from_multiplicities((12,))]
    M = build_macro_family(FamilySpec.finite(words, r_max=10))
    assert sorted(m.definition.data[0] for m in M) == [5]


def test_finite_family_may_be_empty_with_explicit_monoid():
    spec = FamilySpec.finite([], monoid=abelian(2))
    M = build_macro_family(spec)
    assert len(M) == 0
    assert M.monoid == abelian(2)


def test_finite_family_requires_a_monoid_when_empty():
    with pytest.raises(ValueError):
        FamilySpec.finite([])


def test_poly_family_lex_counts_scale_with_length():
    M = build_macro_family(FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=4))
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for m in M:
        by_length.setdefault(len(m.definition.data), []).append(m.definition.data)
    assert sorted(by_length[2]) == [(0, 0), (0, 1)]
    assert sorted(by_length[3]) == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    assert len(by_length[4]) == 4
    assert len(M) == 9


def test_poly_family_caps_at_the_alphabet_size():
    M = build_macro_family(FamilySpec.poly_density_free(c=10.0, p=1.0, n=2, r_max=2))
    assert sorted(m.definition.data for m in M) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_poly_family_random_sampler_is_deterministic():
    spec = FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=6, seed=11, sampler="random")
    first = [m.definition.data for m in build_macro_family(spec)]
    second = [m.definition.data for m in build_macro_family(spec)]
    assert first == second
    assert len(first) == len(set(first))


def poly_name(letters, n):
    """A poly-free macro name: one str() per letter, joined by "_" past 10 letters,
    where (0, 10) and (0, 1, 0) would otherwise both spell "w010"."""
    return "w" + ("_" if n > 10 else "").join(str(a) for a in letters)


@pytest.mark.parametrize("n, r_max", [(2, 5), (3, 5), (11, 2)])
def test_poly_family_lex_names_and_definitions(n, r_max):
    M = build_macro_family(FamilySpec.poly_density_free(c=12.0, p=1.0, n=n, r_max=r_max))
    expected = [
        (poly_name(w, n), w)
        for length in range(2, r_max + 1)
        for w in itertools.islice(itertools.product(range(n), repeat=length), 12 * length)
    ]
    assert [(m.name, m.definition.data) for m in M] == expected
    assert all(m.definition.monoid == free(n) for m in M)
    assert any(10 in w for _, w in expected) == (n == 11)


@pytest.mark.parametrize("n, r_max", [(2, 5), (3, 5), (11, 2)])
def test_poly_family_random_names_spell_each_letter(n, r_max):
    spec = FamilySpec.poly_density_free(c=12.0, p=1.0, n=n, r_max=r_max, seed=3,
                                        sampler="random")
    M = build_macro_family(spec)
    assert len(M) == sum(min(12 * length, n**length) for length in range(2, r_max + 1))
    assert all(m.name == poly_name(m.definition.data, n) for m in M)


@pytest.mark.parametrize("words, message", [
    ([(0, 1), (0, 2)], "letters must lie in [0, 2)"),
    ([(0, 1), (1, -1)], "letters must lie in [0, 2)"),
    ([(0, 1), (1,), (0, 2)], "macro 'w1' has length 1; a length-1 macro duplicates a primitive"),
    ([b"\x00\x01", b"\x01\x01", b"\x00\x01"], "duplicate macro name 'w01'"),
])
def test_generated_words_failing_the_bulk_check_raise_the_usual_errors(words, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MacroSet.from_words(free(2), words)


poly_free_specs = st.builds(
    FamilySpec.poly_density_free, c=st.sampled_from([0.5, 1.0, 3.0]),
    p=st.sampled_from([0.0, 1.0, 1.5, 2.0]), n=st.integers(2, 12), r_max=st.integers(2, 8),
    seed=st.integers(0, 2**32), sampler=st.sampled_from(["lex", "random"]))


def poly_set_from_macros(spec) -> MacroSet:
    """The family `build_macro_family(spec)` builds, made here from checked
    `Macro` objects."""
    n = spec.monoid.n
    words = []
    for length, count in spec.poly_counts():
        if spec.sampler == "lex":
            words += itertools.islice(itertools.product(range(n), repeat=length), count)
        else:
            words += _sampled_words(length, count, n, spec.seed)
    return MacroSet(spec.monoid, [Macro(poly_name(w, n), Word(spec.monoid, w)) for w in words])


def profile_or_budget(M, r_max):
    try:
        return expansion_profile(M, [1, 2], r_max).entries
    except SphereBudgetError as exc:
        return exc.largest_completed


@settings(deadline=None, max_examples=100)
@given(poly_free_specs, st.lists(st.integers(0, 11), max_size=16))
def test_a_free_set_built_from_words_equals_one_built_from_macros(spec, letters):
    n = spec.monoid.n
    M, ref = build_macro_family(spec), poly_set_from_macros(spec)
    assert len(M) == len(ref)
    for depth in range(spec.r_max + 1):
        assert M.trie(depth) == ref.trie(depth)
    assert "macros" not in vars(M)  # neither len nor the trie built a Macro
    assert M.automaton() == ref.automaton()
    assert M.macros == ref.macros and list(M) == list(ref)
    assert all(type(m.definition.data) is tuple for m in M)
    names = [m.name for m in ref] + ["w", "w00", "w0_0", "m0"]
    assert [M.find(name) for name in names] == [ref.find(name) for name in names]
    w = Word(free(n), tuple(a % n for a in letters))
    words = [m.definition for m in ref] + [w]
    assert [M.macro_for_word(v) for v in words] == [ref.macro_for_word(v) for v in words]
    assert gprime_length(w, M) == gprime_length(w, ref)
    assert monoid_depth(w, M) == monoid_depth(w, ref)
    assert [monoid_depth(m, M) for m in ref] == [monoid_depth(m, ref) for m in ref]
    fresh = build_macro_family(spec)
    assert profile_or_budget(fresh, spec.r_max + 2) == profile_or_budget(
        poly_set_from_macros(spec), spec.r_max + 2)
    assert "macros" not in vars(fresh)  # a profile reads the trie alone


def test_family_constructor_validation():
    with pytest.raises(ValueError):
        FamilySpec.place_notation(b=1, n=1, r_max=10)
    with pytest.raises(ValueError):
        FamilySpec.waring(k=1, n=1, r_max=10)
    with pytest.raises(ValueError):
        FamilySpec.double_log(b=1, r_max=10)
    with pytest.raises(ValueError):
        FamilySpec.poly_density_free(c=0.0, p=1.0, n=2, r_max=10)
    with pytest.raises(ValueError):
        FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=10, sampler="sorted")
    with pytest.raises(ValueError):
        FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=10, sampler="random")
    with pytest.raises(ValueError):
        FamilySpec("no_such_regime", abelian(1), 10)
    with pytest.raises(ValueError):
        FamilySpec.place_notation(b=2, n=1, r_max=0)


@pytest.mark.parametrize("args, message", [
    ((1.0, 2.0, 1, 10), "polynomial density needs n >= 2 letters, got n=1"),
    ((1.0, 700.0, 2, 10), "polynomial density asks for 5.26e+210 words of length 2, past "
                          f"the {sys.maxsize} a family can list"),
    ((1e-300, 700.0, 2, 10), "polynomial density asks for inf words of length 3, past "
                             f"the {sys.maxsize} a family can list"),
])
def test_poly_family_rejects_one_letter_and_unlistable_counts(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilySpec.poly_density_free(*args)


def test_probabilistic_constructor_validation():
    # C must clear 4 ln n and B must be at least 2C.
    with pytest.raises(ValueError):
        FamilySpec.probabilistic_free(big_b=8.0, big_c=2.0, n=2, r_max=100, seed=0)
    with pytest.raises(ValueError):
        FamilySpec.probabilistic_free(big_b=7.0, big_c=4.0, n=2, r_max=100, seed=0)
    spec = FamilySpec.probabilistic_free(big_b=8.0, big_c=4.0, n=2, r_max=100, seed=0)
    assert isinstance(build_macro_family(spec), LazyFreeMacroSet)


@pytest.mark.parametrize("big_b, big_c, message", [
    (8.0, math.nan, "need finite C > 4 ln n = 2.7726, got C=nan"),
    (math.inf, math.inf, "need finite C > 4 ln n = 2.7726, got C=inf"),
    (math.nan, 4.0, "need B >= 2C = 8.0, got B=nan"),
])
def test_probabilistic_family_rejects_nan_and_infinite_c(big_b, big_c, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilySpec.probabilistic_free(big_b=big_b, big_c=big_c, n=2, r_max=100, seed=0)


def test_probabilistic_family_accepts_infinite_b():
    spec = FamilySpec.probabilistic_free(big_b=math.inf, big_c=4.0, n=2, r_max=100, seed=0)
    assert build_macro_family(spec).contains_letters((0, 1, 1, 0, 1))  # every word is periodic


@pytest.mark.parametrize("c, p, message", [
    (math.nan, 2.0, "polynomial density needs c > 0, got c=nan"),
    (1.0, math.nan, "polynomial density needs p >= 0, got p=nan"),
    (1.0, -1.0, "polynomial density needs p >= 0, got p=-1.0"),
])
def test_poly_family_rejects_nan_constants(c, p, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilySpec.poly_density_free(c=c, p=p, n=2, r_max=10)


# --- minimal period ---


def test_minimal_period_known_values():
    assert minimal_period((0, 0, 0, 0)) == 1
    assert minimal_period((0, 1, 0, 1)) == 2
    assert minimal_period((0, 1, 1)) == 3
    assert minimal_period((0, 1, 0)) == 2
    assert minimal_period(()) == 0
    assert minimal_period((1,)) == 1


def test_minimal_period_accepts_words():
    assert minimal_period(Word(free(2), (0, 1, 0, 1, 0))) == 2


@settings(deadline=None)
@given(st.lists(st.integers(0, 2), max_size=14))
def test_minimal_period_matches_oracle(letters):
    letters = tuple(letters)
    assert minimal_period(letters) == slow_minimal_period(letters)
    for start in range(len(letters)):
        assert prefix_periods(letters, start) == [
            slow_minimal_period(letters[start:end]) for end in range(start + 1, len(letters) + 1)]


# --- lazy probabilistic macro set ---


def lazy_set(seed=0):
    return LazyFreeMacroSet(free(2), big_b=8.0, big_c=4.0, seed=seed)


def test_lazy_set_rejects_abelian_monoids():
    with pytest.raises(ValueError):
        LazyFreeMacroSet(abelian(2), big_b=8.0, big_c=4.0, seed=0)


def test_lazy_set_excludes_short_words():
    M = lazy_set()
    assert not M.contains_letters(())
    assert not M.contains_letters((0,))


def test_lazy_set_contains_low_period_words():
    M = lazy_set()
    assert M.is_log_periodic((0,) * 8)
    assert M.contains_letters((0,) * 8)
    assert M.is_log_periodic(tuple([0, 1] * 40))
    assert M.contains_letters(tuple([0, 1] * 40))


def test_lazy_set_period_threshold():
    M = lazy_set()
    # A length-64 word with full period 64 sits far above 8 ln(e + 64) ~ 33.7.
    word = (0,) * 63 + (1,)
    assert minimal_period(word) == 64
    assert not M.is_log_periodic(word)


def test_lazy_set_membership_is_reproducible():
    a, b = lazy_set(seed=5), lazy_set(seed=5)
    words = [tuple((i >> j) & 1 for j in range(40)) for i in range(50)]
    assert [a.contains_letters(w) for w in words] == [b.contains_letters(w) for w in words]


def test_lazy_set_seeds_give_different_sets():
    a, b = lazy_set(seed=1), lazy_set(seed=2)
    words = [tuple((i >> j) & 1 for j in range(40)) for i in range(200)]
    assert any(a.contains_letters(w) != b.contains_letters(w) for w in words)


def test_lazy_set_inclusion_rate_tracks_the_density():
    M = lazy_set(seed=3)
    length = 30
    words = [tuple((i >> j) & 1 for j in range(length)) for i in range(2000)]
    rate = sum(M.random_included(w) for w in words) / len(words)
    expected = 1.0 / math.log(math.e + length)
    assert abs(rate - expected) < 0.04


def test_lazy_set_overall_density_on_random_words():
    M = lazy_set(seed=4)
    rng = np.random.Generator(np.random.PCG64(1234))
    length = 40
    sample = rng.integers(0, 2, size=(3000, length))
    rate = sum(M.contains_letters(tuple(int(a) for a in row)) for row in sample) / 3000
    expected = 1.0 / math.log(math.e + length)
    assert abs(rate - expected) < 0.04


def test_lazy_set_window_sizes():
    C = lazy_set().big_c
    assert halving_window(C, 100) == math.ceil(4.0 * math.log(math.e + 100))
    assert halving_window(C, 1000) >= halving_window(C, 100)
    # ceil(4 ln(e + r)) is past r for r <= 10: a window of r scans every start.
    assert [halving_window(C, r) for r in (0, 1, 10, 12)] == [0, 1, 10, 11]
    assert halving_window(1e308, 5) == halving_window(math.inf, 5) == 5


# --- the seeded letter stream ---


def stream_oracle(n, length, seed, use, count):
    """`count` words as `seeded_words` defines them, block by block."""
    letters = []
    i = 0
    while len(letters) < count * length:
        block = hashlib.blake2b(length.to_bytes(8, "little") + i.to_bytes(8, "little"),
                                key=seed.to_bytes(8, "little"), person=use).digest()
        letters += [b % n for b in block if b < 256 - 256 % n]
        i += 1
    return [tuple(letters[j * length:(j + 1) * length]) for j in range(count)]


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 256), st.integers(1, 150), st.integers(0, 2**64 - 1),
       st.sampled_from([b"sample_words", b"poly_free", b"x" * 16]), st.integers(1, 12))
def test_seeded_words_follow_their_definition(n, length, seed, use, count):
    expected = stream_oracle(n, length, seed, use, count)
    assert list(itertools.islice(seeded_words(n, length, seed, use), count)) == expected
    if use == b"sample_words":
        assert sample_words(n, length, count, seed) == expected


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(2, 8), st.integers(1, 40), st.integers(0, 2**64 - 1))
def test_sampled_poly_words_are_the_first_distinct_words_of_the_stream(n, length, count, seed):
    want = min(count, n**length)
    stream = stream_oracle(n, length, seed, b"poly_free", 4000)
    first = list(dict.fromkeys(stream))[:want]
    assert len(first) == want  # 4000 draws hold every word on this scale
    assert _sampled_words(length, count, n, seed) == sorted(first)


def test_seeded_words_are_pinned_across_pythons():
    # The stream is macrolab's own code over blake2b, so these hold on every
    # CPython; the seeded sim digests in test_outputs rest on them.
    assert sample_words(2, 12, 2, 0) == [(0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0),
                                         (0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1)]
    assert list(itertools.islice(seeded_words(3, 5, 7, b"poly_free"), 2)) == [
        (0, 2, 1, 0, 2), (1, 0, 0, 1, 2)]


def test_seeded_words_spell_letters_with_bytes():
    with pytest.raises(ValueError, match="need n <= 256, got n=257"):
        next(seeded_words(257, 4, 0, b"poly_free"))
