"""Stream addressing: what distinguishes two substreams and what does not."""

import numpy as np

from contrastlab.rng import substream


def draws(*args):
    return substream(*args).random(4)


def test_trailing_zeros_alias_up_to_four_words():
    # SeedSequence zero-pads the seed and path to four 32-bit words.
    np.testing.assert_array_equal(draws(62, 3), draws(62, 3, 0))
    np.testing.assert_array_equal(draws(62, 3), draws(62, 3, 0, 0))
    assert not np.array_equal(draws(62, 3), draws(62, 3, 0, 0, 0))
    assert not np.array_equal(draws(62, 3), draws(62, 3, 1))


def test_wide_seed_aliases_longer_path():
    # A seed of 2**32 or more spans two words: (lo + 2**32 * hi, p) = (lo, hi, p).
    np.testing.assert_array_equal(draws(5 + 2 ** 32 * 256, 1), draws(5, 256, 1))
