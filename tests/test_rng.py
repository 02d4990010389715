import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import trial_matrix
from diskcover.rng import (bit_words, generator, keyed_bits, mask_bits,
                           mask_words, mix64, row_masks, streams,
                           trial_bits, trial_masks)


def test_mix64_stable_and_sensitive():
    a = mix64(1, 2, 3)
    assert a == mix64(1, 2, 3)
    assert a != mix64(1, 2, 4)
    assert a != mix64(1, 3, 2)
    assert 0 <= a < 2 ** 64


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4))
def test_mix64_prefix_mixed_once(prefix, rest):
    """A key mixed on from its prefix's key is the full chain's key, as the
    lane pass mixes (seed, stream tag, v) once per apex pair; and a stream
    drawn from that key is the stream `trial_bits` draws, alone or as one
    row of a block of keys."""
    key = mix64(*rest, key=mix64(*prefix))
    assert key == mix64(*prefix, *rest)
    if len(prefix) == 2:
        want = trial_bits(prefix[0], (prefix[1], *rest), 5, 9, 0.3)
        assert np.array_equal(keyed_bits([key], 5, 9, 0.3), want[None])
        block = keyed_bits([mix64(1), key, mix64(2)], 5, 9, 0.3)
        assert np.array_equal(block[1], want)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0, 1.5])
@pytest.mark.parametrize("trials, width", [(5, 9), (4, 8), (1, 1), (3, 0)])
def test_keyed_bits_block_is_the_stacked_one_key_matrices(p, trials, width):
    """A block of keys is the one-key matrices stacked, each that of
    numpy's Philox built from its key; 5 x 9 = 45 words is not a whole
    number of Philox's 4-word blocks."""
    keys = [mix64(k, 3) for k in range(6)]
    block = keyed_bits(keys, trials, width, p)
    assert block.shape == (len(keys), trials, width) and block.dtype == bool
    assert np.array_equal(block, np.stack(
        [keyed_bits([k], trials, width, p)[0] for k in keys]))
    for row, key in zip(block, keys):
        draws = np.random.Generator(np.random.Philox(key=key)).random(
            (trials, width))
        assert np.array_equal(row, draws < p)
    assert keyed_bits([], trials, width, p).shape == (0, trials, width)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=3),
       st.lists(st.tuples(st.integers(1, 50), st.integers(0, 12),
                          st.integers(0, 9)), min_size=1, max_size=6))
def test_streams_step_is_the_indexed_generator(seed, stream, steps):
    """Step i of `streams(seed, *stream)` draws what `generator(seed,
    *stream, i)` draws: integers, a permutation and raw words, whatever
    the draws of the step before left behind: each step ends with a
    buffered 32-bit half, which the re-key drops."""
    for i, (gen, (high, size, raw)) in enumerate(zip(streams(seed, *stream),
                                                     steps)):
        want = generator(seed, *stream, i)
        assert gen.integers(0, high, size).tolist() == want.integers(
            0, high, size).tolist()
        assert (gen.bit_generator.state["has_uint32"]
                == want.bit_generator.state["has_uint32"])
        assert np.array_equal(gen.permutation(size), want.permutation(size))
        assert np.array_equal(gen.bit_generator.random_raw(raw),
                              want.bit_generator.random_raw(raw))
        # one bounded integer more from an empty buffer leaves a half,
        # which must not reach the next step
        if not gen.bit_generator.state["has_uint32"]:
            gen.integers(0, 2 ** 31)
        assert gen.bit_generator.state["has_uint32"]


@settings(max_examples=100, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4),
       st.integers(0, 40))
def test_generator_is_the_keyed_philox(seed, stream, skip):
    """`generator` sets a Philox built from a fixed seed to the key's state:
    its draws are those of numpy's Philox built from the key itself, and
    building it asks the OS for no entropy."""
    want = np.random.Generator(np.random.Philox(key=mix64(seed, *stream)))
    got = generator(seed, *stream)
    assert np.array_equal(got.random(skip), want.random(skip))
    assert np.array_equal(got.bit_generator.random_raw(9),
                          want.bit_generator.random_raw(9))
    assert got.integers(0, 1000, 7).tolist() == want.integers(0, 1000, 7).tolist()


def test_generator_asks_no_os_entropy(monkeypatch):
    """numpy seeds a SeedSequence built with no entropy from
    `secrets.randbits`; a Philox built from a key builds one, and
    `generator` does not."""
    asked = []
    real = bit_generator.randbits
    monkeypatch.setattr(bit_generator, "randbits",
                        lambda k: asked.append(k) or real(k))
    want = np.random.Generator(np.random.Philox(key=mix64(3, 1, 2)))
    before = len(asked)
    assert before > 0
    assert generator(3, 1, 2).random() == want.random()
    steps = streams(3, 1)
    next(steps)
    assert next(steps).random() == generator(3, 1, 1).random()
    assert len(asked) == before


def test_generator_streams_independent():
    g1 = generator(7, 0)
    g2 = generator(7, 1)
    assert not np.array_equal(g1.random(8), g2.random(8))


def test_trial_matrix_deterministic():
    m1 = trial_matrix(3, (9,), 16, 10, 0.4)
    m2 = trial_matrix(3, (9,), 16, 10, 0.4)
    assert np.array_equal(m1, m2)
    assert m1.shape == (16, 10)
    assert m1.dtype == bool


def test_trial_masks_match_matrix():
    rows = trial_matrix(5, (1, 2), 12, 20, 0.5)
    masks = trial_masks(5, (1, 2), 12, 20, 0.5)
    assert len(masks) == 12
    for row, mask in zip(rows, masks):
        for v in range(20):
            assert bool(mask >> v & 1) == bool(row[v])


def _packed(rows) -> list[int]:
    return [sum(1 << v for v in np.flatnonzero(row).tolist()) for row in rows]


@pytest.mark.parametrize("p", [0.0, 2.0 ** -60, 3 * 2.0 ** -53, 0.5, 1.0])
def test_trial_masks_are_the_matrix_rows(p):
    # widths around whole 64-bit words, trial counts around a multiple of
    # Philox's 4-word block; 3 2^-53 keeps words with r >> 11 in {0, 1, 2},
    # 2^-60 only 0
    for width in (0, 1, 63, 64, 65, 128, 130):
        for trials in (1, 15, 16, 17, 65):
            stream = (width, trials)
            assert trial_masks(7, stream, trials, width, p) == _packed(
                trial_matrix(7, stream, trials, width, p))


def test_trial_masks_extreme_p():
    assert all(m == 0 for m in trial_masks(0, (0,), 8, 12, 0.0))
    full = (1 << 12) - 1
    assert all(m == full for m in trial_masks(0, (0,), 8, 12, 1.0))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([0, 1, 63, 64, 65, 128, 129, 4096]), st.integers(0, 5),
       st.floats(0, 1), st.integers(0, 2 ** 32), st.booleans())
def test_row_masks_match_per_bit_reference(width, rows, density, seed,
                                           transposed):
    """Bit v of mask i is entry (i, v), on both sides of the 128-column
    switch from words to bytes, and for a strided (transposed) matrix;
    `mask_bits` turns the masks back into the matrix. Word j of a row's
    `bit_words` is bits 64 j .. 64 j + 63 of its mask, and `mask_words`
    turns the masks back into those words."""
    rnd = np.random.default_rng(seed)
    if transposed:
        bits = (rnd.random((width, rows)) < density).T
    else:
        bits = rnd.random((rows, width)) < density
    want = [sum(1 << v for v in range(width) if row[v]) for row in bits]
    assert row_masks(bits) == want
    assert np.array_equal(mask_bits(want, width), bits)
    k = max(1, -(-width // 64))
    words = bit_words(bits)
    assert words.shape == (rows, k)
    assert words.tolist() == [[m >> 64 * j & (1 << 64) - 1 for j in range(k)]
                              for m in want]
    assert np.array_equal(mask_words(want, k), words)
