"""The Aho-Corasick segmentation engine against the trie walk it replaced.

The oracle below is that code: a nested-dict prefix tree walked afresh from
every start of the word, feeding a forward (push) DP that relaxes each match
from its start.  Hypothesis draws small free macro sets in which some macros
are proper suffixes or infixes of others, so that output links chain, and
words built partly from macro definitions, so that matches overlap; every
length, wrapped length and depth must equal the oracle's.  Macro depths,
which are segmented once per trie prefix, are also checked on definitions
of up to 12 letters grown from a few shared stems and on polynomial
families.  The trie that profiles read, grown one layer per radius, is
checked against the builder that made the whole trie in one go: cut at any
depth, under the profile DP, and completed after a profile stopped partway.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from macrolab import monoid
from macrolab.expansion import SphereBudgetError, _match_state_worsts, expansion_profile
from macrolab.families import FamilySpec, build_macro_family
from macrolab.monoid import (
    DEFAULT_BUDGET,
    Automaton,
    Macro,
    MacroSet,
    Word,
    _macro_depths,
    free,
    gprime_length,
    monoid_depth,
    wrapped_length,
)
from test_families import poly_free_specs

# --- the from-every-start oracle ---


def trie(M: MacroSet) -> dict:
    """Prefix tree over the definitions; the key None marks a macro's name."""
    root: dict = {}
    for m in M:
        node = root
        for a in m.definition.data:
            node = node.setdefault(a, {})
        node[None] = m.name
    return root


def matches(M: MacroSet, letters: tuple[int, ...], exclude: str | None = None):
    """start j -> (end, name) for every macro other than `exclude` spelling
    letters[j:end], shortest first, by walking the trie from j."""
    root = trie(M)

    def from_start(j: int):
        node = root
        for i in range(j, len(letters)):
            node = node.get(letters[i])
            if node is None:
                return
            name = node.get(None)
            if name is not None and name != exclude:
                yield i + 1, name

    return from_start


def push_segment(length: int, matches, depth: dict[str, int] | None = None) -> tuple[int, int]:
    """(fewest tokens, least largest macro depth among those segmentations),
    relaxing every match forward from its start."""
    dp = [0] + [length + 1] * length
    sc = [0] * (length + 1)
    for j in range(length):
        cand = dp[j] + 1
        score = sc[j]
        if cand < dp[j + 1] or (cand == dp[j + 1] and score < sc[j + 1]):
            dp[j + 1] = cand
            sc[j + 1] = score
        for end, name in matches(j):
            d = score if depth is None or depth[name] <= score else depth[name]
            if cand < dp[end] or (cand == dp[end] and d < sc[end]):
                dp[end] = cand
                sc[end] = d
    return dp[length], sc[length]


def oracle_gprime(letters: tuple[int, ...], M: MacroSet, exclude: str | None = None) -> int:
    return push_segment(len(letters), matches(M, letters, exclude))[0]


def oracle_macro_depths(M: MacroSet) -> dict[str, int]:
    depths: dict[str, int] = {}
    for m in sorted(M, key=lambda m: (m.definition.g_length(), m.name)):
        d = m.definition.data
        depths[m.name] = 1 + push_segment(len(d), matches(M, d, m.name), depths)[1]
    return depths


def oracle_depth(letters: tuple[int, ...], M: MacroSet) -> int:
    if len(letters) <= 1:
        return 0
    owner = M.macro_for_word(Word(M.monoid, letters))
    found = matches(M, letters, owner.name if owner else None)
    return 1 + push_segment(len(letters), found, oracle_macro_depths(M))[1]


# --- random macro sets whose output links chain ---


@st.composite
def chained_cases(draw):
    """(n, definitions, word, exclude): definitions of length 2..6 on n letters,
    plus proper suffixes and infixes of some of them; a word of up to 40
    letters made of definitions and loose letters; a macro name or None."""
    n = draw(st.integers(1, 3))
    letter = st.integers(0, n - 1)
    base = draw(st.lists(st.lists(letter, min_size=2, max_size=6).map(tuple),
                         min_size=1, max_size=6))
    defs = list(base)
    for d in base:
        if len(d) < 3:
            continue
        cuts = st.tuples(st.integers(0, len(d) - 2), st.integers(2, len(d) - 1))
        for start, size in draw(st.lists(cuts, max_size=3)):
            if start + size <= len(d):
                defs.append(d[start:start + size])
    defs = list(dict.fromkeys(defs))
    pieces = draw(st.lists(st.one_of(st.sampled_from(defs),
                                     st.lists(letter, max_size=3).map(tuple)), max_size=12))
    word = sum(pieces, ())[:40]
    exclude = draw(st.sampled_from([None] + [f"m{i}" for i in range(len(defs))]))
    return n, defs, word, exclude


@st.composite
def stemmed_cases(draw):
    """(n, definitions): definitions of length 2..12 on n letters, each one
    of up to three shared stems plus a tail, and some prefixes of those, so
    that long trie prefixes are shared and some of them are macros too."""
    n = draw(st.integers(1, 3))
    letter = st.integers(0, n - 1)
    stems = draw(st.lists(st.lists(letter, max_size=10).map(tuple), min_size=1, max_size=3))
    grown = st.tuples(st.sampled_from(stems), st.lists(letter, max_size=6).map(tuple),
                      st.integers(2, 12))
    defs = [(stem + tail)[:cut] for stem, tail, cut in draw(st.lists(grown, min_size=1,
                                                                     max_size=10))]
    defs = [d for d in dict.fromkeys(defs) if len(d) >= 2]
    return n, defs or [(0, 0)]


def macro_set(n: int, defs) -> MacroSet:
    return MacroSet(free(n), [Macro(f"m{i}", Word(free(n), d)) for i, d in enumerate(defs)])


@settings(deadline=None, max_examples=300)
@given(chained_cases())
def test_segmentation_matches_the_trie_oracle(case):
    n, defs, word, exclude = case
    M = macro_set(n, defs)
    w = Word(free(n), word)
    assert gprime_length(w, M) == oracle_gprime(word, M)
    assert gprime_length(w, M, exclude=exclude) == oracle_gprime(word, M, exclude)
    assert [wrapped_length(m, M) for m in M] == [
        oracle_gprime(m.definition.data, M, m.name) for m in M]
    assert _macro_depths(M, DEFAULT_BUDGET) == oracle_macro_depths(M)
    assert monoid_depth(w, M) == oracle_depth(word, M)
    assert [monoid_depth(m, M) for m in M] == [
        oracle_depth(m.definition.data, M) for m in M]


@settings(deadline=None, max_examples=100)
@given(chained_cases())
def test_automaton_tables_follow_their_definition(case):
    """goto is the longest suffix that is a prefix, out the longest proper
    suffix that is a macro, both read off the definitions directly."""
    n, defs, _, _ = case
    M = macro_set(n, defs)
    goto, depth, name, out = M.automaton()
    prefix = {0: ()}  # state -> the prefix it stands for, along trie edges
    for s in range(len(depth)):
        for a in range(n):
            t = goto[s * n + a]
            if depth[t] == depth[s] + 1:
                prefix[t] = prefix[s] + (a,)
    prefixes = {d[:k] for d in defs for k in range(len(d) + 1)}
    assert sorted(prefix.values()) == sorted(prefixes)
    state = {p: s for s, p in prefix.items()}
    names = {d: f"m{i}" for i, d in enumerate(defs)}
    for s, p in prefix.items():
        assert depth[s] == len(p)
        assert name[s] == names.get(p)
        suffixes = [p[k:] for k in range(1, len(p) + 1)]
        assert out[s] == next((state[q] for q in suffixes if q in names), 0)
        for a in range(n):
            word = p + (a,)
            longest = next(word[k:] for k in range(len(word) + 1) if word[k:] in prefixes)
            assert goto[s * n + a] == state[longest]


@settings(deadline=None, max_examples=200)
@given(stemmed_cases())
def test_depths_on_shared_stems_match_the_oracle(case):
    n, defs = case
    M = macro_set(n, defs)
    assert _macro_depths(M, DEFAULT_BUDGET) == oracle_macro_depths(M)
    assert [monoid_depth(m, M) for m in M] == [oracle_depth(m.definition.data, M) for m in M]


@pytest.mark.parametrize("spec", [
    FamilySpec.poly_density_free(1, 1, 2, 30),
    FamilySpec.poly_density_free(1, 2, 3, 10),
    FamilySpec.poly_density_free(2, 1, 2, 16, seed=7, sampler="random"),
], ids=["lex-1-1-2-30", "lex-1-2-3-10", "random-2-1-2-16"])
def test_depths_of_poly_families_match_the_oracle(spec):
    M = build_macro_family(spec)
    assert _macro_depths(M, DEFAULT_BUDGET) == oracle_macro_depths(M)


def test_free_depths_need_no_budget_and_are_computed_once(monkeypatch):
    M = build_macro_family(FamilySpec.poly_density_free(1, 1, 2, 12))
    calls = []
    real = monoid._free_macro_depths
    monkeypatch.setattr(monoid, "_free_macro_depths", lambda M: calls.append(M) or real(M))
    word = (0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0)
    w = Word(M.monoid, word)
    assert monoid_depth(w, M) == monoid_depth(w, M, budget=1) == oracle_depth(word, M)
    assert [monoid_depth(m, M, budget=1) for m in M] == [monoid_depth(m, M) for m in M]
    assert calls == [M]


def oracle_trie(n: int, macros) -> Automaton:
    """The whole trie in one go, as the engine built it before it grew the
    trie in layers: every prefix is named by a dict, then the states are
    sorted by length, stably, so that within one length they keep the order
    in which the first macro extending them arrived."""
    ids: dict[tuple[int, ...], int] = {(): 0}  # prefix -> state, in order of arrival
    name: list[str | None] = [None]
    depth = [0]
    up = [0]  # state -> parent state * n + last letter
    for m in macros:
        w = m.definition.data
        end = len(w)
        s = ids.setdefault(w, len(name))
        if s < len(name):  # already a prefix of an earlier definition
            name[s] = m.name
            continue
        name.append(m.name)
        depth.append(end)
        while True:  # the missing prefixes, longest first, down to one that is there
            end -= 1
            t = ids.setdefault(w[:end], len(name))
            up.append(t * n + w[end])
            if t < len(name):
                break
            name.append(None)
            depth.append(end)
    order = sorted(range(len(name)), key=depth.__getitem__)
    rank = [0] * len(order)
    for s, old in enumerate(order):
        rank[old] = s
    goto = [0] * (len(order) * n)
    for old in order[1:]:
        parent, a = divmod(up[old], n)
        goto[rank[parent] * n + a] = rank[old]
    return Automaton(goto, [depth[s] for s in order], [name[s] for s in order], [])


@settings(deadline=None, max_examples=100)
@given(chained_cases())
def test_trie_edges_are_the_depth_increasing_edges_of_the_automaton(case):
    n, defs, _, _ = case
    macros = macro_set(n, defs).macros
    trie, full = oracle_trie(n, macros), MacroSet(free(n), macros).automaton()
    assert trie.out == [] and len(full.out) == len(full.depth)
    assert (trie.depth, trie.name) == (full.depth, full.name)
    goto, depth = full.goto, full.depth
    assert trie.goto == [t if depth[t] == depth[i // n] + 1 else 0 for i, t in enumerate(goto)]
    assert trie.complete() == full


@settings(deadline=None, max_examples=150)
@given(st.one_of(chained_cases().map(lambda c: c[:2]), stemmed_cases(), poly_free_specs),
       st.integers(0, 13))
def test_a_trie_grown_partway_is_the_full_trie_cut_at_that_depth(case, cut):
    """Growing to depth `cut` numbers the states of length <= cut as the
    full builder does; their rows hold the edges among them alone, and
    growing on to the end gives the full trie.  A polynomial family is
    built from its words, so its trie is grown before any `Macro` is."""
    if isinstance(case, FamilySpec):
        n, M = case.monoid.n, build_macro_family(case)
    else:
        n, M = case[0], macro_set(*case)
    grown = M.trie(cut)
    full = oracle_trie(n, M.macros)
    k = sum(d <= cut for d in full.depth)
    assert (grown.depth, grown.name, grown.out) == (full.depth[:k], full.name[:k], [])
    assert grown.goto == [t if t < k else 0 for t in full.goto[:k * n]]
    assert M.trie() is grown and grown == full


@settings(deadline=None, max_examples=150)
@given(st.one_of(chained_cases().map(lambda c: c[:2]), stemmed_cases()),
       st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(1, 14),
       st.sampled_from([30, 300, 10**7]))
def test_depth_grown_profiles_match_full_trie_profiles(case, s_values, r_max, budget):
    """The profile on a trie grown a layer per radius, and its budget error,
    against the same DP reading the full builder's trie from the start."""
    n, defs = case
    grown, full = macro_set(n, defs), macro_set(n, defs)
    table = oracle_trie(n, full.macros)
    full.trie = lambda depth=None: table

    def profile(M):
        try:
            return expansion_profile(M, s_values, r_max, budget=budget).entries
        except SphereBudgetError as exc:
            return exc.largest_completed

    assert profile(grown) == profile(full)
    assert grown.automaton() == MacroSet(free(n), grown.macros).automaton() == table.complete()


@settings(deadline=None, max_examples=100)
@given(st.one_of(chained_cases().map(lambda c: c[:2]), stemmed_cases()), st.integers(1, 5))
def test_automaton_after_a_partial_profile_is_a_fresh_build(case, radii):
    """A profile that stops after a few radii leaves a trie grown partway;
    segmentation then completes that same table, which must equal a build
    from nothing and the full builder's trie completed."""
    n, defs = case
    M = macro_set(n, defs)
    worsts = list(itertools.islice(_match_state_worsts(M, 10**7), radii))
    assert len(worsts) == radii
    assert M.trie(0).depth[-1] == min(radii + 1, max(map(len, defs)))
    fresh = MacroSet(free(n), M.macros).automaton()
    assert M.automaton() == fresh == oracle_trie(n, M.macros).complete()


def test_a_profile_leaves_the_failure_links_uncompleted():
    M = build_macro_family(FamilySpec.poly_density_free(1, 2, 3, 12))
    expansion_profile(M, [1, 2, 3], 12)
    trie = M.trie()
    assert trie.out == []  # the profile read trie edges alone
    assert M.automaton() is trie and len(trie.out) == len(trie.depth)  # completed in place
    assert M.trie() is trie and MacroSet(free(3), M.macros).automaton() == trie


def test_matches_behind_a_longer_prefix_come_through_output_links():
    # After "cabc" the automaton sits on that prefix of "cabcc", which is no
    # macro; "abc" and then "bc" hang off its output links.
    M = macro_set(3, [(2, 0, 1, 2, 2), (0, 1, 2), (1, 2)])
    word = Word(free(3), (2, 0, 1, 2, 0))  # "cabca"
    assert gprime_length(word, M) == 3  # c + abc + a
    assert gprime_length(word, M, exclude="m1") == 4  # c + a + bc + a
    assert gprime_length(word, M, exclude="m2") == 3
