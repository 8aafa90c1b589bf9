"""Random-number-generator plumbing.

Every stochastic component of the library (random input vectors, synthetic
benchmark circuits, Monte-Carlo process variation) accepts either a seed or a
``numpy.random.Generator``.  Centralising the coercion keeps experiments
reproducible: the same seed always produces the same circuit, the same vector
set and the same Monte-Carlo samples.
"""

from __future__ import annotations

import hashlib

import numpy as np

RngLike = int | np.random.Generator | None


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``rng``.

    ``None`` produces a freshly seeded generator (non-reproducible), an
    integer is used as a seed, and an existing generator is passed through
    unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a random generator from {type(rng).__name__}")


def spawn_streams(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Return ``count`` independent generators derived from ``rng``.

    The streams are derived through ``SeedSequence.spawn`` (or
    ``Generator.spawn`` when an existing generator is passed), so stream
    ``i`` depends only on the root seed and ``i`` — never on how many other
    streams exist or in which order they are consumed.  This is what keeps
    a Monte-Carlo run's draws independent of its blocking: sample ``i``
    gets exactly ``streams[i]``, so solving
    :meth:`~repro.variation.qmc.ParameterDraws.slice` blocks of the drawn
    block gives bitwise the samples of one whole block.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return list(ensure_rng(rng).spawn(count))


def keyed_rng(seed: int, *key: int | str) -> np.random.Generator:
    """Return a generator deterministically keyed by ``(seed, *key)``.

    Unlike :func:`spawn_streams`, the derivation is *stateless*: the same
    ``(seed, key)`` always yields the same stream, independent of how many
    other streams exist or in which order they are created.  This is what
    the fault injector and the retry-backoff jitter need — a decision for
    (chunk 7, attempt 2) must be reproducible on its own, without replaying
    the decisions before it.  String key parts are hashed (SHA-256) to a
    stable integer, so the derivation never depends on ``PYTHONHASHSEED``.
    """
    entropy: list[int] = [int(seed)]
    for part in key:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode()).digest()[:8]
            entropy.append(int.from_bytes(digest, "big"))
        elif isinstance(part, (int, np.integer)):
            if int(part) < 0:
                raise ValueError(f"keyed_rng key parts must be non-negative, got {part}")
            entropy.append(int(part))
        else:
            raise TypeError(
                f"keyed_rng key parts must be int or str, got {type(part).__name__}"
            )
    return np.random.default_rng(entropy)
