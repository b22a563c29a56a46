"""Tests for words, ball sizes, macro lengths, and nesting depth.

The expensive claims (minimal generator counts) are cross-checked against
slow oracles that search the space directly instead of running the same
dynamic programs as the library.
"""

import math
import re
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from macrolab.families import FamilySpec, build_macro_family
from macrolab.monoid import (
    LatticeBudgetError,
    Macro,
    MacroSet,
    Word,
    abelian,
    ball_size,
    free,
    gprime_length,
    monoid_depth,
    wrapped_length,
)


def slow_min_generators_abelian(mults, macro_defs, memo=None):
    """Oracle: exhaustive search over generator multisets, one unit at a time.

    Pass the same `memo` dict to calls with the same macro definitions to
    share their searches."""
    n = len(mults)
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    gens = units + [tuple(d) for d in macro_defs]
    cache: dict[tuple[int, ...], int] = {} if memo is None else memo

    def search(rest):
        if not any(rest):
            return 0
        if rest in cache:
            return cache[rest]
        best = math.inf
        for g in gens:
            if all(a >= b for a, b in zip(rest, g)):
                best = min(best, 1 + search(tuple(a - b for a, b in zip(rest, g))))
        cache[rest] = best
        return best

    return search(tuple(mults))


def slow_depth_abelian(mults, macro_defs):
    """Oracle for monoid_depth: 0 for words of length at most 1, otherwise 1 plus
    the least, over minimal-length representations, of the largest macro depth
    used.  A word equal to a macro definition is that macro, so it is left out
    of its own representations."""
    n = len(mults)
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    defs = [tuple(d) for d in macro_defs]

    @cache
    def depth(word):
        if sum(word) <= 1:
            return 0
        return 1 + search(word, word)[1]

    @cache
    def search(rest, whole):
        """(fewest generators, least largest depth among those) spelling rest
        without the macro defined as whole."""
        if not any(rest):
            return 0, 0
        best = (math.inf, math.inf)
        for g in units + defs:
            if g == whole or any(a < b for a, b in zip(rest, g)):
                continue
            length, score = search(tuple(a - b for a, b in zip(rest, g)), whole)
            best = min(best, (length + 1, max(score, depth(g))))
        return best

    return depth(tuple(mults))


def slow_min_generators_free(letters, macro_defs):
    """Oracle: try every segmentation of the suffixes into letters and macros."""
    defs = [tuple(d) for d in macro_defs]
    letters = tuple(letters)
    cache: dict[int, int] = {}

    def search(i):
        if i == len(letters):
            return 0
        if i in cache:
            return cache[i]
        best = 1 + search(i + 1)
        for d in defs:
            if letters[i : i + len(d)] == d:
                best = min(best, 1 + search(i + len(d)))
        cache[i] = best
        return best

    return search(0)


def place_macro_set(b=10, js=(1, 2, 3)):
    """Hand-built base-b place macros b^j over a single primitive."""
    macros = [Macro(f"p{j}", Word.from_multiplicities((b**j,))) for j in js]
    return MacroSet(abelian(1), macros)


# --- words and primitive length ---


def test_g_length_counts_multiplicities():
    w = Word.from_multiplicities((3, 4))
    assert w.g_length() == 7


def test_g_length_counts_letters():
    w = Word(free(2), (0, 1, 1, 0))
    assert w.g_length() == 4


def test_identity_words_have_length_zero():
    assert Word.from_multiplicities((0, 0)).g_length() == 0
    assert Word(free(3), ()).g_length() == 0
    assert Word.from_multiplicities((0,)).is_identity()


def test_word_rejects_negative_multiplicities():
    with pytest.raises(ValueError):
        Word.from_multiplicities((1, -1))


def test_word_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        Word(free(2), (0, 2))


@pytest.mark.parametrize("letters", [(0, -1, 1), (2, 0), (1, 1, 2)])
def test_out_of_range_letter_error_names_the_alphabet(letters):
    with pytest.raises(ValueError, match=r"^letters must lie in \[0, 2\)$"):
        Word(free(2), letters)


def free_macro(name, letters, n=2):
    return Macro(name, Word(free(n), letters))


@pytest.mark.parametrize("macros, message", [
    ([free_macro("a", (0, 1)), free_macro("a", (1, 1))], "duplicate macro name 'a'"),
    ([free_macro("a", (0, 1)), free_macro("b", (0, 1))], "duplicate macro definition for 'b'"),
    ([free_macro("a", (0, 1)), free_macro("b", (0, 1), n=3)], "macro 'b' lives in a different monoid"),
    # the first offender in order is named, whichever check it fails
    ([free_macro("a", (0, 1)), free_macro("a", (0, 1), n=3), free_macro("b", (0, 1))],
     "macro 'a' lives in a different monoid"),
    ([free_macro("a", (0, 1)), free_macro("b", (0, 1)), free_macro("a", (1, 1))],
     "duplicate macro definition for 'b'"),
])
def test_macro_set_names_the_first_offending_macro(macros, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MacroSet(free(2), macros)


@pytest.mark.parametrize("letters", [(1,), (0,), ()])
def test_short_macro_error_message(letters):
    message = f"macro 'x' has length {len(letters)}; a length-1 macro duplicates a primitive"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        free_macro("x", letters)


def test_words_and_macros_have_no_instance_dict():
    m = free_macro("a", (0, 1))
    assert not hasattr(m, "__dict__") and not hasattr(m.definition, "__dict__")


def test_negative_multiplicity_error_message():
    with pytest.raises(ValueError, match="^multiplicities must be non-negative$"):
        Word.from_multiplicities((0, -3, 1))


# --- ball sizes ---


def test_ball_size_known_values():
    assert ball_size(abelian(2), 2) == 6
    assert ball_size(free(2), 3) == 15
    assert ball_size(abelian(3), 0) == 1
    assert ball_size(free(1), 5) == 6


def test_ball_size_rejects_negative_radius():
    with pytest.raises(ValueError):
        ball_size(abelian(1), -1)


def test_ball_size_matches_enumeration_abelian():
    for n in (1, 2, 3):
        for r in range(9):
            count = sum(
                1 for v in product(range(r + 1), repeat=n) if sum(v) <= r
            )
            assert ball_size(abelian(n), r) == count


def test_ball_size_matches_enumeration_free():
    for n in (1, 2, 3):
        for r in range(9):
            count = sum(
                1
                for i in range(r + 1)
                for _ in product(range(n), repeat=i)
            )
            assert ball_size(free(n), r) == count


def test_ball_size_is_exact_for_large_radii():
    assert ball_size(free(2), 200) == 2**201 - 1


# --- macro sets ---


def test_macro_rejects_short_definition():
    with pytest.raises(ValueError):
        Macro("m", Word.from_multiplicities((1,)))


def test_macro_set_rejects_duplicate_names():
    m1 = Macro("m", Word.from_multiplicities((2,)))
    m2 = Macro("m", Word.from_multiplicities((3,)))
    with pytest.raises(ValueError):
        MacroSet(abelian(1), [m1, m2])


def test_macro_set_rejects_duplicate_definitions():
    m1 = Macro("a", Word.from_multiplicities((2,)))
    m2 = Macro("b", Word.from_multiplicities((2,)))
    with pytest.raises(ValueError):
        MacroSet(abelian(1), [m1, m2])


def test_macro_set_rejects_foreign_words():
    m = Macro("m", Word(free(1), (0, 0)))
    with pytest.raises(ValueError):
        MacroSet(abelian(1), [m])


def test_macro_for_word_finds_definitions():
    M = place_macro_set()
    assert M.macro_for_word(Word.from_multiplicities((100,))).name == "p2"
    assert M.macro_for_word(Word.from_multiplicities((99,))) is None


# --- minimal lengths over primitives plus macros ---


def test_gprime_without_macros_is_primitive_length():
    M = MacroSet(abelian(2))
    w = Word.from_multiplicities((3, 4))
    assert gprime_length(w, M) == 7


def test_gprime_of_identity_is_zero():
    assert gprime_length(Word.from_multiplicities((0,)), place_macro_set()) == 0


def test_gprime_of_a_macro_definition_is_one():
    M = place_macro_set()
    assert gprime_length(Word.from_multiplicities((100,)), M) == 1
    ab = Macro("ab", Word(free(2), (0, 1)))
    Mf = MacroSet(free(2), [ab])
    assert gprime_length(Word(free(2), (0, 1)), Mf) == 1


def test_gprime_place_equals_digit_sum():
    M = place_macro_set()
    for value in (999, 321, 100, 57, 9):
        w = Word.from_multiplicities((value,))
        digit_sum = sum(int(c) for c in str(value))
        assert gprime_length(w, M) == digit_sum
    assert gprime_length(Word.from_multiplicities((999,)), M) == 27


def test_gprime_free_concatenation_of_two_macros():
    x = Macro("x", Word(free(2), (0, 1)))
    y = Macro("y", Word(free(2), (1, 0)))
    M = MacroSet(free(2), [x, y])
    w = Word(free(2), (0, 1, 1, 0))
    assert gprime_length(w, M) == 2
    assert slow_min_generators_free(w.data, [(0, 1), (1, 0)]) == 2


def test_gprime_exclude_drops_one_macro():
    M = place_macro_set()
    w = Word.from_multiplicities((100,))
    assert gprime_length(w, M, exclude="p2") == 10


def test_wrapped_length_place_values():
    M = place_macro_set()
    assert wrapped_length(M.find("p1"), M) == 10
    assert wrapped_length(M.find("p2"), M) == 10
    assert wrapped_length(M.find("p3"), M) == 10


def test_wrapped_length_squares_obeys_lagrange():
    macros = [Macro(f"s{m}", Word.from_multiplicities((m * m,))) for m in range(2, 11)]
    M = MacroSet(abelian(1), macros)
    for m in range(2, 11):
        assert wrapped_length(M.find(f"s{m}"), M) <= 4


def test_lattice_budget_error_reports_sizes():
    M = place_macro_set()
    w = Word.from_multiplicities((2000,))
    with pytest.raises(LatticeBudgetError) as err:
        gprime_length(w, M, budget=100)
    assert err.value.required == 2001
    assert err.value.budget == 100
    assert "2001" in str(err.value)


def test_separable_kernels_answer_the_large_waring_box():
    """Every waring macro lies on one axis, so g' and depth of a word in a
    9-Mbit box come from two 1-D lattices; values read on the n-D engine.
    Only those lattices count against the budget, the larger of 3,001 points."""
    M = build_macro_family(FamilySpec.waring(k=2, n=2, r_max=3000))
    w = Word.from_multiplicities((2999, 3000))
    for kernel, value in ((gprime_length, 7), (monoid_depth, 8)):
        assert kernel(w, M) == kernel(w, M, budget=10**6) == kernel(w, M, budget=3001) == value
        with pytest.raises(LatticeBudgetError) as err:
            kernel(w, M, budget=3000)
        assert (err.value.required, err.value.budget) == (3001, 3000)


abelian_defs = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda d: 2 <= sum(d) <= 5
    ),
    max_size=3,
    unique=True,
)


# A multiplicity vector and up to three macro definitions, in 1 to 3 dimensions.
abelian_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, 6)] * n),
    st.lists(
        st.tuples(*[st.integers(0, 4)] * n).filter(lambda d: 2 <= sum(d) <= 5),
        max_size=3,
        unique=True,
    ),
))


@settings(deadline=None)
@given(abelian_cases)
def test_gprime_abelian_matches_oracle(case):
    mults, defs = case
    macros = [Macro(f"m{i}", Word.from_multiplicities(d)) for i, d in enumerate(defs)]
    M = MacroSet(abelian(len(mults)), macros)
    w = Word.from_multiplicities(mults)
    assert gprime_length(w, M) == slow_min_generators_abelian(mults, defs)


free_defs = st.lists(
    st.lists(st.integers(0, 1), min_size=2, max_size=3).map(tuple),
    max_size=3,
    unique=True,
)


@settings(deadline=None)
@given(st.lists(st.integers(0, 1), max_size=10), free_defs)
def test_gprime_free_matches_oracle(letters, defs):
    macros = [Macro(f"m{i}", Word(free(2), tuple(d))) for i, d in enumerate(defs)]
    M = MacroSet(free(2), macros)
    w = Word(free(2), tuple(letters))
    assert gprime_length(w, M) == slow_min_generators_free(letters, defs)


@settings(deadline=None)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6)), abelian_defs)
def test_gprime_never_exceeds_primitive_length(mults, defs):
    macros = [Macro(f"m{i}", Word.from_multiplicities(d)) for i, d in enumerate(defs)]
    M = MacroSet(abelian(2), macros)
    w = Word.from_multiplicities(mults)
    assert gprime_length(w, M) <= w.g_length()


@settings(deadline=None)
@given(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    abelian_defs,
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda d: 2 <= sum(d) <= 5
    ),
)
def test_gprime_is_monotone_under_macro_addition(mults, defs, extra):
    macros = [Macro(f"m{i}", Word.from_multiplicities(d)) for i, d in enumerate(defs)]
    M = MacroSet(abelian(2), macros)
    if extra in defs:
        bigger = M
    else:
        bigger = MacroSet(M.monoid, M.macros + (Macro("extra", Word.from_multiplicities(extra)),))
    w = Word.from_multiplicities(mults)
    assert gprime_length(w, bigger) <= gprime_length(w, M)


# --- nesting depth ---


def test_depth_of_primitives_and_identity_is_zero():
    M = place_macro_set()
    assert monoid_depth(Word.from_multiplicities((1,)), M) == 0
    assert monoid_depth(Word.from_multiplicities((0,)), M) == 0


def test_depth_of_place_macros_grows_by_level():
    M = place_macro_set()
    assert monoid_depth(M.find("p1"), M) == 1
    assert monoid_depth(M.find("p2"), M) == 2
    assert monoid_depth(M.find("p3"), M) == 3


def test_depth_of_macro_definition_word_matches_macro():
    M = place_macro_set()
    w = Word.from_multiplicities((100,))
    assert monoid_depth(w, M) == monoid_depth(M.find("p2"), M)


def test_depth_of_primitive_only_word_is_one():
    M = place_macro_set()
    assert monoid_depth(Word.from_multiplicities((5,)), M) == 1


def test_depth_mixes_macro_levels():
    M = place_macro_set()
    # 110 = p2 + p1, so the optimal representation nests two levels deep.
    assert monoid_depth(Word.from_multiplicities((110,)), M) == 3


def test_depth_ignores_macro_ordering():
    base = place_macro_set()
    shuffled = MacroSet(abelian(1), list(reversed(base.macros)))
    for value in (5, 10, 110, 999):
        w = Word.from_multiplicities((value,))
        assert monoid_depth(w, base) == monoid_depth(w, shuffled)


@settings(deadline=None)
@given(abelian_cases)
def test_depth_abelian_matches_oracle(case):
    mults, defs = case
    macros = [Macro(f"m{i}", Word.from_multiplicities(d)) for i, d in enumerate(defs)]
    M = MacroSet(abelian(len(mults)), macros)
    w = Word.from_multiplicities(mults)
    assert monoid_depth(w, M) == slow_depth_abelian(mults, defs)
    for m in M:
        assert monoid_depth(m, M) == slow_depth_abelian(m.definition.data, defs)


def test_depth_rejects_macros_outside_the_set():
    M = place_macro_set()
    stranger = Macro("q", Word.from_multiplicities((7,)))
    with pytest.raises(ValueError):
        monoid_depth(stranger, M)


@pytest.mark.parametrize("word", [
    Word(abelian(2), (4, 4)),  # zip would truncate the macro vectors to two entries
    Word(abelian(2), (1, 0)),  # a single letter, which would return 0 unchecked
    Word(abelian(3), (0, 1, 1)),  # the letters of a free macro's definition
])
def test_depth_and_gprime_reject_words_from_another_monoid(word):
    for M in (MacroSet(abelian(3), [Macro("m", Word(abelian(3), (2, 2, 0)))]),
              MacroSet(free(2), [Macro("m", Word(free(2), (0, 1, 1)))])):
        if M.monoid == word.monoid:
            continue
        with pytest.raises(ValueError, match="different monoids"):
            monoid_depth(word, M)
        with pytest.raises(ValueError, match="different monoids"):
            gprime_length(word, M)
