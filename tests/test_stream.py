"""Tests for the seeded draw stream that synth reads (`macrolab.stream`)."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from macrolab.stream import blocks, draws

SEEDS = st.integers(0, 2**64 - 1)
USES = st.sampled_from([b"synth_flat", b"synth_mixed", b"", b"x" * 16])
BOUNDS = st.one_of(st.integers(1, 8), st.integers(1, 2**32),
                   st.sampled_from([2**31 + 1, 2**32 - 1, 2**32]))


def replay_below(seed, use):
    """Draws as `stream.draws` defines them, decoded word by word from hashlib."""
    def words():
        for i in itertools.count():
            block = hashlib.blake2b(i.to_bytes(8, "little"), key=seed.to_bytes(8, "little"),
                                    person=use).digest()
            yield from (int.from_bytes(block[j:j + 4], "little") for j in range(0, 64, 4))

    stream = words()

    def below(k):
        while (w := next(stream)) >= 2**32 - 2**32 % k:
            pass
        return w % k

    return below


@settings(deadline=None, max_examples=200)
@given(SEEDS, USES, st.lists(BOUNDS, min_size=1, max_size=40))
def test_draws_lie_below_k_and_repeat(seed, use, ks):
    first, again = draws(seed, use), draws(seed, use)
    got = [first(k) for k in ks]
    assert all(0 <= x < k for x, k in zip(got, ks))
    assert [again(k) for k in ks] == got


@settings(deadline=None, max_examples=100)
@given(SEEDS, USES, st.lists(BOUNDS, min_size=1, max_size=40))
def test_draws_follow_their_definition(seed, use, ks):
    oracle, below = replay_below(seed, use), draws(seed, use)
    assert [below(k) for k in ks] == [oracle(k) for k in ks]


@settings(deadline=None, max_examples=100)
@given(SEEDS, SEEDS, USES, USES)
def test_seeds_and_uses_give_different_streams(seed, other_seed, use, other_use):
    if (seed, use) == (other_seed, other_use):
        return
    a, b = draws(seed, use), draws(other_seed, other_use)
    assert [a(2**32) for _ in range(8)] != [b(2**32) for _ in range(8)]


def test_a_bound_past_two_to_the_32_is_an_error():
    below = draws(0, b"synth_mixed")
    assert below(2**32) < 2**32
    with pytest.raises(ValueError, match=r"1 <= k <= 2\*\*32, got k=4294967297"):
        below(2**32 + 1)


def test_blocks_read_the_prefix_then_the_counter():
    got = list(itertools.islice(blocks(7, b"use", b"ab"), 2))
    assert got == [hashlib.blake2b(b"ab" + i.to_bytes(8, "little"),
                                   key=(7).to_bytes(8, "little"), person=b"use").digest()
                   for i in range(2)]


def test_draws_are_pinned_across_pythons():
    # The stream is macrolab's own code over blake2b, so these hold on every
    # CPython; the seeded synth digests in test_outputs rest on them.
    below = draws(5, b"synth_mixed")
    assert [below(k) for k in (2, 6, 1000, 2**32)] == [1, 5, 216, 4267152866]
