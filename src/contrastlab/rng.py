"""Seeded, splittable random streams.

All randomness flows through PCG64 generators derived from a master seed
plus an integer path, so any trial or sub-experiment can be reproduced in
isolation.  Streams are told apart by their path only up to NumPy's
zero padding (see :func:`substream`), so each call site keeps its paths at
one fixed length.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (master_seed, *path).

    Identical arguments always yield a bit-identical stream.  Distinct
    arguments do not always yield distinct streams: ``SeedSequence`` reads
    them as one list of 32-bit words and zero-pads that list to four words,
    so ``(62, 3)``, ``(62, 3, 0)`` and ``(62, 3, 0, 0)`` address one stream.
    A seed of 2**32 or more takes several words, so it can also alias a
    smaller seed with a longer path.  No two purposes share a stream today
    because, under each master seed, the first path entry names the purpose
    and every purpose uses paths of one fixed length.
    """
    seq = np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(seq))
