import numpy as np
import pytest

from diskcover.rng import generator, mix64, trial_masks, trial_matrix


def test_mix64_stable_and_sensitive():
    a = mix64(1, 2, 3)
    assert a == mix64(1, 2, 3)
    assert a != mix64(1, 2, 4)
    assert a != mix64(1, 3, 2)
    assert 0 <= a < 2 ** 64


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
    for width in (1, 63, 64, 65, 130):
        for trials in (1, 15, 16, 17, 65):
            stream = (width, trials)
            assert trial_masks(7, stream, trials, width, p) == _packed(
                trial_matrix(7, stream, trials, width, p))


def test_trial_masks_extreme_p():
    assert all(m == 0 for m in trial_masks(0, (0,), 8, 12, 0.0))
    full = (1 << 12) - 1
    assert all(m == full for m in trial_masks(0, (0,), 8, 12, 1.0))
