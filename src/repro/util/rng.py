"""Explicit random generators: a seed or a caller-owned ``random.Random``.

Every randomized routine (the Karp-Luby estimator and sampler, the naive
Monte-Carlo baseline, the circuit samplers) takes ``seed`` or ``rng`` and
never touches the global ``random`` state, so batch runs are reproducible
job by job.
"""

from __future__ import annotations

import random


def resolve_rng(
    seed: int | None = None, rng: random.Random | None = None
) -> random.Random:
    """An explicit generator from either a seed or a caller-owned ``rng``.

    Passing both is an error — silently preferring one would make batch
    reproducibility depend on an invisible precedence rule.
    """
    if rng is not None:
        if seed is not None:
            raise ValueError("pass either seed or rng, not both")
        return rng
    return random.Random(seed)
