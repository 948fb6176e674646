"""References for the noise tests: numpy's binomial samplers transcribed from C,
and repeated n-shot estimates of one probability.

No pfzeros task repeats a single cell's estimate: the noise task draws each
grid cell once (noisy_scan).  The acceptance criteria still check the
estimator's mean and its L(1-L)/n variance, so the sampler lives here, beside
the tests that use it.

binomial_inversion and binomial_btpe follow numpy's random_binomial_inversion
and random_binomial_btpe (numpy/random/src/distributions/distributions.c) line
for line, with libm's exp and log, drawing from an iterator of doubles.  Each
also returns the smallest gap it met, on the scale noise._MARGIN is measured
on: |a - b| / scale for a comparison a > b, and the distance to the nearest
integer / scale for a floor argument.  Where that gap is within the margin,
pfzeros hands the cell to numpy's own draw.
"""

import math
from collections import namedtuple

import numpy as np


def _gap(a, b, scale):
    return abs(a - b) / scale if math.isfinite(scale) else 0.0


def _floor_gap(x, scale):
    return _gap(x, round(x), scale)


def binomial_inversion(n, p, doubles):
    """(X, smallest gap) of random_binomial_inversion(n, p), p <= 0.5.

    The comparisons U > px are measured absolutely (their values lie in
    [0, 1]), and X > bound relative to bound's float argument.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    ex = np_ + 10.0 * math.sqrt(np_ * q + 1)
    bound = int(min(n, ex))
    x, px, u = 0, qn, next(doubles)
    closest = abs(u - px)
    while u > px:
        x += 1
        closest = min(closest, _gap(x, ex, ex))
        if x > bound:
            x, px, u = 0, qn, next(doubles)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
        closest = min(closest, abs(u - px))
    return x, closest


def _stirling(f, f2):
    return (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f / 166320.


Hat = namedtuple("Hat", "r q fm m root p1 xm xl xr c laml lamr p2 p3 p4")


def btpe_hat(n, p):
    """The set-up of random_binomial_btpe(n, p): the hat's regions end at p1 <
    p2 < p3 < p4, and U = next_double * p4."""
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    root = 2.195 * math.sqrt(n * r * q)
    p1 = math.floor(root - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    return Hat(r, q, fm, m, root, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4)


def binomial_btpe(n, p, doubles):
    """(count, smallest gap) of random_binomial_btpe(n, p), n min(p, 1 - p) > 30.

    The gap scales are those of noise._btpe_counts: each is the sum of the
    magnitudes that a comparison's or floor's two sides are made of, so it
    bounds how far a different log or a fused multiply-add can move them.
    """
    r, q, fm, m, root, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4 = btpe_hat(n, p)
    closest = min(_floor_gap(fm, fm), _floor_gap(root - 4.6 * q, root + 4.6 * q))

    while True:  # Step10
        nrq = n * r * q
        u = next(doubles) * p4
        v = next(doubles)
        closest = min(closest, _gap(u, p1, p4))
        if u <= p1:
            closest = min(closest, _floor_gap(xm - p1 * v + u, xm + p1 * v + u))
            y = math.floor(xm - p1 * v + u)
            break  # Step60
        closest = min(closest, _gap(u, p2, p4))
        if u <= p2:  # Step20
            x = xl + (u - p1) / c
            xs = abs(xl) + (u + p1) / c
            vs = v * c + 1.0 + (xm + xs) / p1
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            closest = min(closest, _gap(v, 1.0, vs))
            if v > 1.0:
                continue
            closest = min(closest, _floor_gap(x, xs))
            y = math.floor(x)
        else:
            closest = min(closest, _gap(u, p3, p4))
            if u <= p3:  # Step30
                if v == 0.0:
                    continue
                step = math.log(v) / laml
                closest = min(closest, _floor_gap(xl + step, abs(xl) + abs(step)))
                y = math.floor(xl + step)
                if y < 0:
                    continue
                vs = v * (u + p2) * laml
                v = v * (u - p2) * laml
            else:  # Step40
                if v == 0.0:
                    continue
                step = math.log(v) / lamr
                closest = min(closest, _floor_gap(xr - step, xr + abs(step)))
                y = math.floor(xr - step)
                if y > n:
                    continue
                vs = v * (u + p3) * lamr
                v = v * (u - p3) * lamr

        # Step50
        k = abs(y - m)
        if not (k > 20 and k < nrq / 2.0 - 1):
            s = r / q
            a = s * (n + 1)
            F = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    F *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    F /= a / i - s
            closest = min(closest, _gap(v, F, vs + F))
            if v > F:
                continue
            break

        # Step52
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        A = math.log(v) if v > 0.0 else -math.inf
        As = abs(A) + (vs / v if v > 0.0 else math.inf)
        closest = min(closest, _gap(A, t - rho, As + abs(t) + rho))
        if A < t - rho:
            break
        closest = min(closest, _gap(A, t + rho, As + abs(t) + rho))
        if A > t + rho:
            continue
        x1 = y + 1
        f1 = m + 1
        z = n + 1 - m
        w = n - y + 1
        terms = [xm * math.log(f1 / x1), (n - m + 0.5) * math.log(z / w),
                 (y - m) * math.log(w * r / (x1 * q)), _stirling(f1, f1 * f1),
                 _stirling(z, z * z), _stirling(x1, x1 * x1), _stirling(w, w * w)]
        bound = terms[0]
        for term in terms[1:]:
            bound += term
        closest = min(closest, _gap(A, bound, As + sum(abs(term) for term in terms)))
        if A > bound:
            continue
        break

    # Step60
    return (n - y if p > 0.5 else y), closest


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
