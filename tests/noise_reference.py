"""Repeated n-shot estimates of one probability, a reference for the tests.

No pfzeros task repeats a single cell's estimate: the noise task draws each
grid cell once (noisy_scan).  The acceptance criteria still check the
estimator's mean and its L(1-L)/n variance, so the sampler lives here, beside
the tests that use it.
"""

import numpy as np


def error_stats(
    L: float, n_shots: int, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical (mean, variance) of L-hat over repeated n-shot estimates.

    The estimator is unbiased with variance L(1-L)/n.
    """
    if not 0.0 <= L <= 1.0:
        raise ValueError("L must be a probability")
    if trials < 100:
        raise ValueError("need at least 100 trials for stable statistics")
    rng = np.random.default_rng((seed, n_shots, trials))
    draws = rng.binomial(n_shots, L, size=trials) / n_shots
    return float(draws.mean()), float(draws.var())
