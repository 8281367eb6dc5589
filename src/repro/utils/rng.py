"""Random-number-generator helpers.

Every stochastic component of the library (noise sampling, twirl sampling,
synthetic calibrations) accepts a ``seed`` argument that is normalized through
:func:`as_generator` so results are reproducible end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` gives a fresh nondeterministic generator, an ``int`` or
    ``SeedSequence`` seeds a new PCG64 generator, and an existing generator is
    passed through unchanged (so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
