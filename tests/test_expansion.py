"""Tests for expansion profiles, bound checks, and the greedy parser.

Expected expansion values come from independent oracles: base-b digit sums
for the place family, a closed-form recurrence for the double-log towers,
and direct coin counting for small finite families.
"""

import math
import re
from functools import cache
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from macrolab.expansion import (
    ExpansionValue,
    HalvingFailure,
    SphereBudgetError,
    expansion_function,
    expansion_profile,
    find_halving_macro,
    fit_parse_constant,
    gprime_length_free_lazy,
    letters_of_str,
    quasi_exponential_upper_report,
    recursive_parse_free,
    sampled_rates,
    smallest_linear_slope,
    verify_bounds,
    word_str,
)
from macrolab.expansion import _match_state_worsts, sample_words
from macrolab.families import FamilySpec, LazyFreeMacroSet, build_macro_family, prefix_periods
from macrolab.monoid import (
    AbelianLattice,
    LatticeBudgetError,
    Macro,
    MacroSet,
    Word,
    _abelian_generators,
    _macro_depths,
    abelian,
    free,
    gprime_length,
    monoid_depth,
    wrapped_length,
)
from test_automaton import oracle_gprime
from test_monoid import slow_depth_abelian, slow_min_generators_abelian


def digit_sum(value: int, base: int) -> int:
    total = 0
    while value:
        total += value % base
        value //= base
    return total


def place_expansion_oracle(base: int, s: int) -> int:
    """Largest r with digit_sum(m) <= s for every m <= r."""
    r = 0
    while digit_sum(r + 1, base) <= s:
        r += 1
    return r


def tower_budget_oracle(b: int, k: int) -> int:
    """Tokens needed for b**(b**k) - 1 over towers below it, via the recurrence
    T_0 = b - 1, T_k = (b**(b**(k-1) * (b-1)) - 1) + T_{k-1}."""
    t = b - 1
    for j in range(1, k + 1):
        t += b ** (b ** (j - 1) * (b - 1)) - 1
    return t


# --- expansion values ---


def test_expansion_without_macros_is_the_radius():
    M = build_macro_family(FamilySpec.finite([], monoid=abelian(1)))
    v = expansion_function(M, 5, r_max=20)
    assert v == ExpansionValue(5, True)


def test_expansion_place_base_two_matches_digit_sums():
    M = build_macro_family(FamilySpec.place_notation(b=2, n=1, r_max=100))
    profile = expansion_profile(M, range(1, 5), r_max=100)
    values = [profile.entries[s].value for s in range(1, 5)]
    assert values == [place_expansion_oracle(2, s) for s in range(1, 5)]
    assert values == [2, 6, 14, 30]
    assert all(profile.entries[s].exact for s in range(1, 5))


def test_expansion_place_base_ten_matches_digit_sums():
    M = build_macro_family(FamilySpec.place_notation(b=10, n=1, r_max=2000))
    profile = expansion_profile(M, [9, 10, 18], r_max=2000)
    for s in (9, 10, 18):
        assert profile.entries[s].value == place_expansion_oracle(10, s)
    assert profile.entries[9].value == 18
    assert profile.entries[10].value == 28
    assert profile.entries[18].value == 198


def test_expansion_double_log_profile():
    M = build_macro_family(FamilySpec.double_log(b=2, r_max=300))
    profile = expansion_profile(M, range(1, 6), r_max=300)
    assert [profile.entries[s].value for s in range(1, 6)] == [2, 6, 10, 14, 30]


def test_expansion_double_log_tower_budgets():
    from macrolab.monoid import gprime_length

    M = build_macro_family(FamilySpec.double_log(b=2, r_max=70000))
    for k in range(1, 5):
        w = Word.from_multiplicities((2 ** (2**k) - 1,))
        assert gprime_length(w, M) == tower_budget_oracle(2, k)
    assert [tower_budget_oracle(2, k) for k in range(5)] == [1, 2, 5, 20, 275]


def test_expansion_waring_exact_then_certified():
    M = build_macro_family(FamilySpec.waring(k=2, n=1, r_max=2000))
    profile = expansion_profile(M, [3, 4], r_max=2000)
    assert profile.entries[3] == ExpansionValue(6, True)
    # Every integer is a sum of four squares, so the scan exhausts r_max.
    assert profile.entries[4] == ExpansionValue(2000, False)


def test_expansion_finite_coin_family():
    M = build_macro_family(FamilySpec.finite([Word.from_multiplicities((5,))]))
    assert expansion_function(M, 4, r_max=300).value == 8
    assert expansion_function(M, 50, r_max=300).value == 238


def test_expansion_poly_lex_is_the_identity_early():
    M = build_macro_family(FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=12))
    profile = expansion_profile(M, range(1, 5), r_max=12)
    assert [profile.entries[s].value for s in range(1, 5)] == [1, 2, 3, 4]


def test_expansion_profile_rejects_bad_inputs():
    M = build_macro_family(FamilySpec.finite([], monoid=abelian(1)))
    with pytest.raises(ValueError):
        expansion_profile(M, [0], r_max=10)
    with pytest.raises(ValueError):
        expansion_profile(M, [], r_max=10)


def test_expansion_is_monotone_in_s():
    M = build_macro_family(FamilySpec.place_notation(b=3, n=2, r_max=90))
    profile = expansion_profile(M, range(1, 9), r_max=90)
    values = [profile.entries[s].value for s in range(1, 9)]
    assert values == sorted(values)


def test_expansion_grows_under_macro_addition():
    small = build_macro_family(
        FamilySpec.finite([Word.from_multiplicities((5,))], r_max=60)
    )
    large = build_macro_family(
        FamilySpec.finite(
            [Word.from_multiplicities((5,)), Word.from_multiplicities((25,))], r_max=60
        )
    )
    for s in range(1, 8):
        assert (
            expansion_function(small, s, r_max=400).value
            <= expansion_function(large, s, r_max=400).value
        )


def test_sphere_budget_error_reports_progress():
    M = build_macro_family(FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=12))
    with pytest.raises(SphereBudgetError) as err:
        expansion_profile(M, [6], r_max=12, budget=40)
    assert err.value.budget == 40
    assert 0 <= err.value.largest_completed < 12


def sphere_worsts(M, r_max):
    """Oracle: the largest g' over every word of each length 1..r_max, each
    segmented by the from-every-start trie walk."""
    return [max(oracle_gprime(w, M) for w in product(range(M.monoid.n), repeat=r))
            for r in range(1, r_max + 1)]


def profile_oracle(worsts, s_values):
    """f(s) = r - 1 for the first length r whose worst g' exceeds s."""
    fallback = ExpansionValue(len(worsts), exact=False)
    return {s: next((ExpansionValue(r, exact=True) for r, w in enumerate(worsts) if w > s),
                    fallback)
            for s in s_values}


@st.composite
def free_macro_sets(draw, max_macros=6):
    """(n, definitions) with n in 2..3 and definitions of length 2..4."""
    n = draw(st.integers(2, 3))
    defs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=4).map(tuple),
                         max_size=max_macros, unique=True))
    return n, defs


def macro_set(n, defs):
    return MacroSet(free(n), [Macro(f"m{i}", Word(free(n), d)) for i, d in enumerate(defs)])


@settings(deadline=None, max_examples=60)
@given(free_macro_sets(max_macros=10), st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.data())
def test_match_state_profile_matches_sphere_scan(case, s_values, data):
    n, defs = case
    r_max = data.draw(st.integers(1, 9 if n == 2 else 7), label="r_max")
    M = macro_set(n, defs)
    worsts = sphere_worsts(M, r_max)
    assert list(islice(_match_state_worsts(M, 10**7), r_max)) == worsts
    assert expansion_profile(M, s_values, r_max).entries == profile_oracle(worsts, s_values)


# (n, macro definitions, r_max): 1 to 3 generators, up to four macros, and
# radii the brute-force search covers at desk speed.
abelian_profile_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(0, 5)] * n).filter(lambda d: sum(d) >= 2),
             max_size=4, unique=True),
    st.integers(1, 12 if n < 3 else 8),
))


@settings(deadline=None, max_examples=80)
@given(abelian_profile_cases,
       st.lists(st.integers(1, 10) | st.integers(10, 10**20), min_size=1, max_size=4))
def test_abelian_profile_matches_brute_force(case, s_values):
    """Profiles against the worst brute-force g' over each radius; the kernel
    must agree with the search at every point of the simplex too.  An s past
    the layer where the lattice stops growing reads that layer's answer."""
    n, defs, r_max = case
    M = MacroSet(abelian(n), [Macro(f"m{i}", Word(abelian(n), d)) for i, d in enumerate(defs)])
    memo: dict = {}
    worsts = [0] * (r_max + 1)
    for p in product(range(r_max + 1), repeat=n):
        if sum(p) <= r_max:
            g = slow_min_generators_abelian(p, defs, memo)
            assert gprime_length(Word(abelian(n), p), M) == g, p
            worsts[sum(p)] = max(worsts[sum(p)], g)
    assert expansion_profile(M, s_values, r_max).entries == profile_oracle(worsts[1:], s_values)


@settings(deadline=None, max_examples=80)
@given(abelian_profile_cases, st.one_of(st.integers(1, 16), st.integers(1, 800)))
def test_budget_charges_only_the_lattice_the_profile_builds(case, budget):
    """A budgeted profile equals the unbudgeted one, or raises exactly when
    the lattice it builds is past the budget: one of r_max + 1 points per
    axis when every macro within the radius lies on one axis, else the
    (r_max + 1)^n box.  The report names the largest radius whose lattice of
    that dimension fits."""
    n, defs, r_max = case
    M = MacroSet(abelian(n), [Macro(f"m{i}", Word(abelian(n), d)) for i, d in enumerate(defs)])
    s_values = [1, 2, 3]
    unbudgeted = expansion_profile(M, s_values, r_max).entries
    on_one_axis = all(sum(1 for a in d if a) == 1 for d in defs if sum(d) <= r_max)
    dim = 1 if on_one_axis else n
    if (r_max + 1) ** dim <= budget:
        assert expansion_profile(M, s_values, r_max, budget=budget).entries == unbudgeted
    else:
        with pytest.raises(SphereBudgetError) as err:
            expansion_profile(M, s_values, r_max, budget=budget)
        fits = err.value.largest_completed
        assert (fits + 1) ** dim <= budget < (fits + 2) ** dim
        assert err.value.budget == budget


def lattice_best(w, M, exclude=None, depth=None):
    """(g', smallest largest depth) of w on one n-D lattice over the box it dominates."""
    if not any(w):
        return 0, 0
    gens = _abelian_generators(M, w, exclude)
    lattice = AbelianLattice(w, [v for v, _ in gens], 10**7)
    depths = None if depth is None else [0 if name is None else depth[name] for _, name in gens]
    target = 1 << lattice.bit(w)
    for s, (frontier, _, scored) in enumerate(lattice.layers(depths), 1):
        if frontier & target:
            return s, next((d for d, x in scored.items() if x & target), 0)


def lattice_gprimes(M, r_max):
    """g' of every point of the box [0, r_max]^n, read off one n-D lattice's layers."""
    bound = (r_max,) * M.monoid.n
    lattice = AbelianLattice(bound, [v for v, _ in _abelian_generators(M, bound, None)], 10**7)
    layer_of = {0: 0}
    for s, (frontier, reached, _) in enumerate(lattice.layers(), 1):
        bits = bin(frontier)[:1:-1]  # bits[i] is bit i
        layer_of.update((m.start(), s) for m in re.finditer("1", bits))
        if reached == lattice.full:
            return {p: layer_of[lattice.bit(p)]
                    for p in product(range(r_max + 1), repeat=M.monoid.n)}


# (n, coins per axis, r_max): macros each on one axis, 0 to 4 per axis; for
# n = 3 the radius stays where the brute-force search runs in well under a second.
axis_aligned_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(2, 12), max_size=4, unique=True), min_size=n, max_size=n),
    st.integers(1, 30 if n < 3 else 20),
))


@settings(deadline=None, max_examples=60)
@given(axis_aligned_cases,
       st.lists(st.integers(1, 12) | st.integers(12, 10**20), min_size=1, max_size=8), st.data())
def test_axis_aligned_sets_match_the_n_dimensional_lattice(case, s_values, data):
    """Profiles, g', wrapped length and depth of sets whose macros each lie on
    one axis (the per-axis path) against the n-D lattice built here, and g'
    against the brute-force search.  Words include ones whose coordinate
    equals a macro's definition on its axis, where a per-axis call of the
    public kernels would wrongly exclude that macro."""
    n, coins, r_max = case
    defs = [tuple(c if j == i else 0 for j in range(n)) for i, axis in enumerate(coins)
            for c in axis]
    M = MacroSet(abelian(n), [Macro(f"m{i}", Word(abelian(n), d)) for i, d in enumerate(defs)])
    gp = lattice_gprimes(M, r_max)
    worsts = [0] * (n * r_max + 1)
    for p, g in gp.items():
        worsts[sum(p)] = max(worsts[sum(p)], g)
    assert (expansion_profile(M, s_values, r_max).entries
            == profile_oracle(worsts[1:r_max + 1], s_values))

    depths = {}
    for m in sorted(M, key=lambda m: (m.definition.g_length(), m.name)):
        depths[m.name] = 1 + lattice_best(m.definition.data, M, m.name, depths)[1]
    assert _macro_depths(M, 10**7) == depths
    for i, m in enumerate(M):
        assert (wrapped_length(m, M) == lattice_best(m.definition.data, M, m.name)[0]
                == slow_min_generators_abelian(m.definition.data, defs[:i] + defs[i + 1:]))

    point = st.tuples(*[st.integers(0, r_max)] * n)
    words = data.draw(st.lists(point, max_size=3), label="words")
    for d in defs:  # a coordinate equal to a macro's definition on its axis
        i = next(i for i, a in enumerate(d) if a)
        if d[i] <= r_max:
            w = data.draw(point, label="around")
            words.append(w[:i] + (d[i],) + w[i + 1:])
    memo: dict = {}
    for w in words:
        owner = M.macro_for_word(Word(abelian(n), w))
        exclude = None if owner is None else owner.name
        score = lattice_best(w, M, exclude, depths)[1]
        assert gprime_length(Word(abelian(n), w), M) == gp[w] == \
            slow_min_generators_abelian(w, defs, memo), w
        assert monoid_depth(Word(abelian(n), w), M) == (0 if sum(w) <= 1 else 1 + score), w


def test_lazy_family_has_no_profile_and_points_to_sampling():
    with pytest.raises(ValueError, match="sampled_rates"):
        expansion_profile(lazy_set(), [1, 2], r_max=6)


def test_free_linear_ceiling_is_checked_far_past_the_sphere_scan():
    # A scan of every word would need more than 2**40 segmentations here; the
    # word budget of 10**5 stops it at radius 15.
    words = [Word(free(2), letters_of_str(t)) for t in ("aa", "bb", "ab", "ba")]
    spec = FamilySpec.finite(words, r_max=100)
    profile = expansion_profile(build_macro_family(spec), range(1, 41), r_max=100,
                                spec=spec, budget=10**5)
    assert profile.entries == {s: ExpansionValue(2 * s, True) for s in range(1, 41)}
    assert verify_bounds(profile).all_passed

    spec = FamilySpec.poly_density_free(c=2.0, p=1.0, n=2, r_max=80)
    profile = expansion_profile(build_macro_family(spec), range(1, 13), r_max=80,
                                spec=spec, budget=10**5)
    assert all(v.exact for v in profile.entries.values())
    assert verify_bounds(profile).all_passed


# --- bound reports ---


def test_verify_bounds_place():
    spec = FamilySpec.place_notation(b=2, n=1, r_max=100)
    profile = expansion_profile(build_macro_family(spec), range(1, 5), r_max=100, spec=spec)
    report = verify_bounds(profile)
    assert report.all_passed
    row = next(r for r in report.rows if r.s == 3)
    assert row.lower == pytest.approx(4.0)
    assert row.upper == pytest.approx(16.0)
    assert row.measured.value == 14


def test_verify_bounds_waring_certified_row():
    spec = FamilySpec.waring(k=2, n=1, r_max=2000)
    profile = expansion_profile(build_macro_family(spec), [3, 4], r_max=2000, spec=spec)
    report = verify_bounds(profile)
    assert report.all_passed
    assert report.constants["unbounded_from_s"] == 4.0
    row = next(r for r in report.rows if r.s == 4)
    assert not row.measured.exact
    assert "unbounded" in row.note


def test_verify_bounds_finite():
    spec = FamilySpec.finite([Word.from_multiplicities((5,))], r_max=60)
    profile = expansion_profile(build_macro_family(spec), [4], r_max=300, spec=spec)
    report = verify_bounds(profile)
    assert report.all_passed
    row = report.rows[0]
    assert row.lower == 4.0
    assert row.measured.value == 8
    assert row.upper == 20.0
    assert report.constants["max_macro_length"] == 5.0


def test_verify_bounds_double_log_fits_constants():
    spec = FamilySpec.double_log(b=2, r_max=300)
    profile = expansion_profile(build_macro_family(spec), range(1, 6), r_max=300, spec=spec)
    report = verify_bounds(profile)
    assert report.all_passed
    assert report.constants["exponent_low"] == pytest.approx(2.0)
    assert report.constants["exponent_high"] == pytest.approx(3.0)
    assert 0.0 < report.constants["c1"] <= report.constants["c2"]


def test_verify_bounds_poly_stays_linear():
    spec = FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=12)
    profile = expansion_profile(build_macro_family(spec), range(1, 5), r_max=12, spec=spec)
    report = verify_bounds(profile)
    assert report.all_passed
    assert report.constants["d"] == 13.0


def test_verify_bounds_rejects_sampling_regimes():
    spec = FamilySpec.probabilistic_free(big_b=8.0, big_c=4.0, n=2, r_max=50, seed=0)
    M = build_macro_family(spec)
    profile = None
    with pytest.raises(ValueError):
        profile = verify_bounds(
            expansion_profile(
                build_macro_family(FamilySpec.finite([], monoid=free(2))), [1], r_max=3
            ),
            spec=spec,
        )
    assert profile is None
    assert isinstance(M, LazyFreeMacroSet)


def test_smallest_linear_slope_value():
    assert smallest_linear_slope(2, 1.0, 1.0) == 13
    assert smallest_linear_slope(2, 1.0, 2.0) >= 13


def test_quasi_exponential_report_passes_on_slow_profiles():
    spec = FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=12)
    profile = expansion_profile(build_macro_family(spec), range(2, 5), r_max=12, spec=spec)
    report = quasi_exponential_upper_report(profile, q=1.0, n=2)
    assert report.all_passed
    assert report.constants["K"] >= report.constants["K_floor"]
    assert report.constants["K_floor"] == pytest.approx(1.0)


# --- greedy parsing and halving ---


def lazy_set(seed=0):
    return LazyFreeMacroSet(free(2), big_b=8.0, big_c=4.0, seed=seed)


def test_word_str_round_trip():
    assert word_str((0, 1, 1, 0)) == "abba"
    assert letters_of_str("abba") == (0, 1, 1, 0)


def test_letter_tokens_need_at_most_26_generators():
    tokens, _ = recursive_parse_free((0, 25), LazyFreeMacroSet(free(26), 28.0, 14.0, seed=0))
    assert "".join(tokens) == "az"
    with pytest.raises(ValueError, match="^letter tokens support up to 26 generators$"):
        recursive_parse_free((0, 26), LazyFreeMacroSet(free(27), 28.0, 14.0, seed=0))


def test_parse_of_a_macro_is_one_token():
    M = lazy_set()
    letters = tuple([0, 1] * 32)
    assert M.contains_letters(letters)
    tokens, count = recursive_parse_free(letters, M)
    assert tokens == [word_str(letters)]
    assert count == 1


def halving_oracle(letters, M):
    """The per-length search: one membership query, with its own minimal
    period, for every candidate (start, length)."""
    r = len(letters)
    k = math.ceil(M.big_c * math.log(math.e + r))
    for start in range(1, min(k, r) + 1):
        for length in range(r - start + 1, max((r + 1) // 2, 2) - 1, -1):
            if M.contains_letters(letters[start - 1 : start - 1 + length]):
                return start, length
    return None


class PeriodicOnly(LazyFreeMacroSet):
    """The lazy family without its random inclusions, so that membership
    turns on the minimal period alone."""

    def random_included(self, letters):
        return False


# noise, then a repeated block, then noise
periodic_words = st.tuples(
    st.lists(st.integers(0, 1), max_size=3), st.lists(st.integers(0, 1), min_size=1, max_size=4),
    st.integers(1, 30), st.lists(st.integers(0, 1), max_size=3),
).map(lambda t: tuple(t[0] + t[1] * t[2] + t[3]))


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.lists(st.integers(0, 1), min_size=1, max_size=120).map(tuple),
                 periodic_words),
       st.sampled_from([LazyFreeMacroSet, PeriodicOnly]), st.integers(0, 5),
       st.sampled_from([0.5, 1.0, 8.0]), st.sampled_from([4.0, 1.5, 6.0]))
def test_halving_search_matches_per_length_queries(letters, kind, seed, big_b, big_c):
    M = kind(free(2), big_b=big_b, big_c=big_c, seed=seed)
    assert find_halving_macro(letters, M) == halving_oracle(letters, M)


def full_kmp_halving(letters, M):
    """The scan before its period window: one failure-function pass over the
    whole suffix of every start, and each candidate's own period."""
    r = len(letters)
    k = math.ceil(M.big_c * math.log(math.e + r))
    for start in range(1, min(k, r) + 1):
        lengths = range(r - start + 1, max((r + 1) // 2, 2) - 1, -1)
        if lengths:
            periods = prefix_periods(letters, start - 1)
        for length in lengths:
            if M.contains_letters(letters[start - 1 : start - 1 + length], periods[length - 1]):
                return start, length
    return None


@st.composite
def windowed_halving_cases(draw):
    """(letters, n, B, C): on n = 2..4 letters, a random word or noise
    around a repeated block, with some letters changed (near-periodic);
    C > 4 ln n and B >= 2C across their valid ranges."""
    n = draw(st.integers(2, 4))
    letter = st.integers(0, n - 1)
    noise = st.lists(letter, max_size=4)
    block = draw(st.lists(letter, min_size=1, max_size=40))
    word = draw(st.one_of(
        st.lists(letter, min_size=1, max_size=400),
        st.tuples(noise, st.integers(1, 300), noise).map(
            lambda t: t[0] + (block * t[1])[:400] + t[2])))
    for i, a in draw(st.lists(st.tuples(st.integers(0, len(word) - 1), letter), max_size=3)):
        word[i] = a
    big_c = draw(st.floats(4 * math.log(n), 4 * math.log(n) + 12, exclude_min=True))
    big_b = draw(st.floats(2 * big_c, 8 * big_c))
    return tuple(word), n, big_b, big_c


@settings(deadline=None, max_examples=300)
@given(windowed_halving_cases(), st.sampled_from([LazyFreeMacroSet, PeriodicOnly]),
       st.integers(0, 5))
def test_windowed_halving_scan_matches_the_full_kmp_scan(case, kind, seed):
    letters, n, big_b, big_c = case
    M = kind(free(n), big_b=big_b, big_c=big_c, seed=seed)
    assert find_halving_macro(letters, M) == full_kmp_halving(letters, M)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=60), st.integers(0, 5))
def test_parse_tokens_reassemble_the_word(letters, seed):
    M = lazy_set(seed=seed)
    tokens, count = recursive_parse_free(tuple(letters), M)
    assert "".join(tokens) == word_str(tuple(letters))
    assert count == len(tokens)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=12), st.integers(0, 3))
def test_parse_never_beats_the_exact_token_count(letters, seed):
    M = lazy_set(seed=seed)
    exact = gprime_length_free_lazy(tuple(letters), M)
    _, count = recursive_parse_free(tuple(letters), M)
    assert count >= exact


def slow_lazy_min_tokens(letters, M):
    """Oracle: best segmentation where any contained substring is one token."""
    cache: dict[int, int] = {}

    def search(i):
        if i == len(letters):
            return 0
        if i in cache:
            return cache[i]
        best = 1 + search(i + 1)
        for end in range(i + 2, len(letters) + 1):
            if M.contains_letters(letters[i:end]):
                best = min(best, 1 + search(end))
        cache[i] = best
        return best

    return search(0)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 1), max_size=12), st.integers(0, 3))
def test_exact_lazy_tokens_match_oracle(letters, seed):
    M = lazy_set(seed=seed)
    letters = tuple(letters)
    assert gprime_length_free_lazy(letters, M) == slow_lazy_min_tokens(letters, M)


def parse_oracle(letters, M):
    """The greedy parse with a whole-word membership query at every level,
    before the window search (which tries the whole word again)."""
    tokens, rest = [], letters
    while rest:
        r = len(rest)
        if r == 1 or M.contains_letters(rest):
            tokens.append(word_str(rest))
            break
        hit = find_halving_macro(rest, M)
        if hit is None:
            if r <= math.ceil(M.big_c * math.log(math.e + r)):
                tokens.extend(word_str((a,)) for a in rest)
                break
            raise HalvingFailure(rest)
        start, length = hit
        tokens.extend(word_str((a,)) for a in rest[: start - 1])
        tokens.append(word_str(rest[start - 1 : start - 1 + length]))
        rest = rest[start - 1 + length :]
    return tokens, len(tokens)


def rates_oracle(M, r, trials, seed):
    """A separate halving check and parse of every sampled word."""
    successes, counts, failures = 0, [], 0
    for letters in sample_words(M.monoid.n, r, trials, seed):
        successes += find_halving_macro(letters, M) is not None
        try:
            counts.append(parse_oracle(letters, M)[1])
        except HalvingFailure:
            failures += 1
    return successes, counts, failures


def outcome(parse, letters, M):
    try:
        return parse(letters, M)
    except HalvingFailure as exc:
        return "stuck", exc.letters


# Tiny B and C make halving fail and windows k(r) of 0 or less.
@settings(deadline=None, max_examples=200)
@given(st.one_of(st.lists(st.integers(0, 1), max_size=80).map(tuple), periodic_words),
       st.sampled_from([LazyFreeMacroSet, PeriodicOnly]), st.integers(0, 3),
       st.sampled_from([0.05, 1.0, 8.0]), st.sampled_from([4.0, -1.0, 0.0, 0.3, 1.5]))
def test_parse_matches_the_whole_word_check_oracle(letters, kind, seed, big_b, big_c):
    M = kind(free(2), big_b=big_b, big_c=big_c, seed=seed)
    assert outcome(recursive_parse_free, letters, M) == outcome(parse_oracle, letters, M)


@pytest.mark.parametrize("kind, big_b, C", [
    (LazyFreeMacroSet, 8.0, None), (PeriodicOnly, 0.05, 0.3), (PeriodicOnly, 0.05, 0.0),
    (PeriodicOnly, 1.0, None), (LazyFreeMacroSet, 0.05, -1.0)])
def test_sampled_rates_share_the_first_parse_level(kind, big_b, C):
    M = kind(free(2), big_b=big_b, big_c=4.0 if C is None else C, seed=3)  # None: the default C
    for r in (2, 9, 40):
        got = sampled_rates(M, r, trials=40, seed=5)
        assert (got.halving_successes, got.parse_counts, got.parse_failures) == \
            rates_oracle(M, r, 40, 5)
    with pytest.raises(ValueError):  # one letter has no halving and ln 1 = 0
        sampled_rates(M, 1, trials=40, seed=5)


def test_sampled_rates_are_deterministic():
    M = lazy_set(seed=7)
    a = sampled_rates(M, r=64, trials=50, seed=7)
    b = sampled_rates(M, r=64, trials=50, seed=7)
    assert a.halving_successes == b.halving_successes
    assert a.parse_counts == b.parse_counts
    assert a.trials == 50
    assert a.parse_failures == 0
    assert 0.0 <= a.halving_rate <= 1.0


@pytest.mark.parametrize("r, trials", [(0, 10), (-4, 10), (64, 0)])
def test_sampled_rates_reject_degenerate_sizes(r, trials):
    with pytest.raises(ValueError, match="r >= 2 and trials >= 1"):
        sampled_rates(lazy_set(seed=7), r, trials, seed=7)


def test_fit_parse_constant_covers_every_observation():
    M = lazy_set(seed=7)
    rates = [sampled_rates(M, r, trials=30, seed=7) for r in (32, 64)]
    K = fit_parse_constant(rates)
    for sr in rates:
        for count in sr.parse_counts:
            assert count <= K * math.log(sr.r) ** 2 + 1e-9


# --- macro depths ---


def slow_depth_free(letters, defs):
    """Oracle: depth by exhaustive segmentation, each macro's depth memoised."""
    defs = set(defs)

    @cache
    def best(word, exclude):
        """Lexicographically least (tokens, largest macro depth) over segmentations."""
        if not word:
            return 0, 0
        t, s = best(word[1:], exclude)
        options = [(t + 1, s)]
        for end in range(2, len(word) + 1):
            head = word[:end]
            if head in defs and head != exclude:
                t, s = best(word[end:], exclude)
                options.append((t + 1, max(s, macro_depth(head))))
        return min(options)

    @cache
    def macro_depth(d):
        return 1 + best(d, d)[1]

    if len(letters) <= 1:
        return 0
    return 1 + best(letters, letters if letters in defs else None)[1]


@settings(deadline=None, max_examples=60)
@given(free_macro_sets(max_macros=8),
       st.lists(st.lists(st.integers(0, 1), max_size=14).map(tuple), min_size=1, max_size=4),
       st.lists(st.integers(0, 1), min_size=2, max_size=5).map(tuple))
@example((2, [(0, 0, 0, 0)]), [(0,) * 8], (0, 0))
def test_cached_depths_match_oracle_and_follow_with_macro(case, words, extra):
    n, defs = case
    M = macro_set(n, defs)
    expected = [slow_depth_free(w, defs) for w in words]
    assert [monoid_depth(Word(free(n), w), M) for w in words] == expected
    assert [monoid_depth(Word(free(n), w), M) for w in words] == expected
    if extra not in defs:
        bigger = MacroSet(M.monoid, M.macros + (Macro("extra", Word(free(n), extra)),))
        assert [monoid_depth(Word(free(n), w), bigger) for w in words] == [
            slow_depth_free(w, defs + [extra]) for w in words]
        assert [monoid_depth(m, bigger) for m in bigger] == [
            slow_depth_free(m.definition.data, defs + [extra]) for m in bigger]


def test_cached_depths_still_honour_a_smaller_lattice_budget():
    # The depth of (30, 30) reads the 31 x 31 box, since (1, 1) spans two axes;
    # that box exceeds a budget of 100 points.  (2, 0) can use neither macro,
    # so its depth reads only its own 3-point lattice, cold or warm.
    M = MacroSet(abelian(2), [Macro("small", Word.from_multiplicities((1, 1))),
                              Macro("big", Word.from_multiplicities((30, 30)))])
    w = Word.from_multiplicities((2, 0))
    over = Word.from_multiplicities((30, 31))
    assert monoid_depth(w, M, budget=100) == 1
    assert monoid_depth(over, M) == 3  # fills in both macros
    assert monoid_depth(w, M, budget=100) == 1
    with pytest.raises(LatticeBudgetError):
        monoid_depth(over, M, budget=100)


@st.composite
def depth_queries(draw):
    """An abelian macro set and a run of (word, budget) depth queries on it."""
    n = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 6)] * n)
    defs = draw(st.lists(vector.filter(lambda d: sum(d) >= 2), max_size=5, unique=True))
    queries = draw(st.lists(st.tuples(vector, st.integers(1, 400)), min_size=1, max_size=6))
    return n, defs, queries


@settings(deadline=None, max_examples=150)
@given(depth_queries())
def test_depth_queries_raise_only_past_their_own_lattice_in_any_order(case):
    """One depth table serves every query on a set: each answer matches the
    oracle, and a query raises exactly when the word's own lattices, the ones
    gprime_length builds for it, exceed its budget, whatever came before."""
    n, defs, queries = case
    M = MacroSet(abelian(n), [Macro(f"m{i}", Word(abelian(n), d)) for i, d in enumerate(defs)])
    for data, budget in queries:
        w = Word(abelian(n), data)
        owner = M.macro_for_word(w)
        try:
            gprime_length(w, M, exclude=owner and owner.name, budget=budget)
            fits = True
        except LatticeBudgetError:
            fits = w.g_length() <= 1  # a depth of 0 builds no lattice
        if fits:
            assert monoid_depth(w, M, budget=budget) == slow_depth_abelian(data, defs)
        else:
            with pytest.raises(LatticeBudgetError):
                monoid_depth(w, M, budget=budget)
