"""The normal CDF, the normal quantile and the Student-t quantile.

These are the only special functions the Monte Carlo bounds need (truncated
Gaussian sampling, Bonferroni-widened Wilson intervals, the t interval on a
fitted decay mass).  The module imports only numpy and math, which keeps the
package's start-up light.
"""

from __future__ import annotations

import math

import numpy as np

# Wichura, Algorithm AS 241 (PPND16), Appl. Statist. 37 (1988) 477-484.
# Numerator and denominator coefficients, constant term first.
_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_INTERMEDIATE = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)

# the t tail series is used while x = df / (df + t^2) stays below this
_TAIL_SERIES_X_MAX = 0.999
# largest df that t_quantile accepts; its stated accuracy is verified up to here
T_DF_MAX = 10**4


def normal_cdf(x: float) -> float:
    """Phi(x), the standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _rational(coeffs, r: np.ndarray) -> np.ndarray:
    """Ratio of the two polynomials in `coeffs`, each by Horner's rule."""
    num, den = (np.polyval(c[::-1], r) for c in coeffs)
    return num / den


def normal_quantile(p):
    """Phi^-1(p) by AS 241, elementwise over arrays; -inf at 0, +inf at 1,
    nan outside [0, 1].  A scalar in gives a numpy scalar out."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.full(p.shape, np.nan)
    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * _rational(_CENTRAL, r)
    tails = (np.abs(q) > 0.425) & (p > 0.0) & (p < 1.0)
    r = np.sqrt(-np.log(np.minimum(p[tails], 1.0 - p[tails])))
    val = np.where(r <= 5.0, _rational(_INTERMEDIATE, r - 1.6), _rational(_FAR, r - 5.0))
    out[tails] = np.where(q[tails] < 0.0, -val, val)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out[()]


def _t_series(start: int, stop: int, log_x: float, odd: bool) -> float:
    """sum_{k=start}^{stop-1} a_k x^k, with a_k = C(2k, k) / 4^k for even df
    and a_k = 4^k / ((2k + 1) C(2k, k)) for odd df."""
    if stop <= start:
        return 0.0
    four_k = 1 << 2 * start
    lead = four_k / ((2 * start + 1) * math.comb(2 * start, start)) if odd \
        else math.comb(2 * start, start) / four_k  # int / int rounds correctly
    k = np.arange(start, stop, dtype=float)
    ratio = (2 * k[:-1] + 2) / (2 * k[:-1] + 3) if odd else (2 * k[:-1] + 1) / (2 * k[:-1] + 2)
    coeffs = np.cumprod(np.concatenate(([lead], ratio)))
    # x^k from the exponent: repeated products would carry the rounding of x k times
    return float(np.sum(coeffs * np.exp(k * log_x)))


def _t_two_sided(t: float, df: int, tail: bool) -> tuple[float, float]:
    """(P(|T| >= t) if `tail` else P(|T| < t), log x) for t > 0, from the
    finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df).

    With x = cos^2(theta) = df / (df + t^2), P(|T| < t) is sin(theta) times a
    finite sum in x (even df), or (2/pi)(theta + sin(theta) cos(theta) times a
    finite sum) for odd df.  The same sums carried to infinity give 1, so the
    tail is their remainder, a series of positive terms; it is used when the
    tail is the smaller side and x <= 0.999 (at most about 40 / (1 - x) terms),
    so that neither side loses digits to 1 - P.
    """
    r = t / math.sqrt(df)
    if r > 1.0:  # keep r^2 from overflowing in the far tail
        log_x = -2.0 * math.log(r) - math.log1p(1.0 / (r * r))
        sin_theta = 1.0 / math.sqrt(1.0 + 1.0 / (r * r))
    else:
        log_x = -math.log1p(r * r)
        sin_theta = r / math.sqrt(1.0 + r * r)
    odd = bool(df % 2)
    m = (df - 1) // 2 if odd else df // 2
    scale = (2.0 / math.pi) * sin_theta * math.exp(0.5 * log_x) if odd else sin_theta
    if tail and log_x <= math.log(_TAIL_SERIES_X_MAX):
        return scale * _t_series(m, m + math.ceil(-40.0 / log_x) + 1, log_x, odd), log_x
    central = scale * _t_series(0, m, log_x, odd)
    if odd:
        central += (2.0 / math.pi) * math.atan(r)
    return (1.0 - central if tail else central), log_x


def t_quantile(q: float, df: int) -> float:
    """Student-t quantile for integer df >= 1: the t with P(T <= t) = q.

    Solves the closed-form CDF by Newton's method in (log t, log P) inside a
    shrinking bracket, until a step falls below the rounding of the sums.
    The one-sided tail p = min(q, 1 - q) is exact (1 - q is for q >= 1/2), and
    the target is the smaller side, 2p or 1 - 2p, of the two-sided probability.
    Against 40-digit references the error is at most 5 ulp at q = 0.975 for
    df 1-199, and below 1e-13 relative for df <= 10^4 and all q in
    [1e-300, 1 - 1e-16]; the central sums stand in for the tail series only
    for tails above 1e-3.  Larger df, where far tails would lose digits like
    eps / tail, and tails below 1e-300 are refused.
    """
    if not 1 <= df <= T_DF_MAX or int(df) != df:
        raise ValueError(f"t_quantile needs an integer 1 <= df <= {T_DF_MAX}, got {df}")
    if not 0.0 < q < 1.0:
        return -math.inf if q == 0.0 else math.inf if q == 1.0 else math.nan
    if q == 0.5:
        return 0.0
    p = q if q < 0.5 else 1.0 - q  # one-sided tail, exact
    if p < 1e-300:
        raise ValueError(f"t_quantile needs min(q, 1 - q) >= 1e-300, got {q}")
    tail = 2.0 * p < 0.5
    target = 2.0 * p if tail else 1.0 - 2.0 * p
    log_density = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                   - 0.5 * math.log(df * math.pi))
    lo, hi = 0.0, math.inf
    t = float(-normal_quantile(p))
    for _ in range(400):
        side, log_x = _t_two_sided(t, df, tail)
        if side <= 0.0:  # the tail underflowed: t is past the root
            hi, t = t, 0.5 * (lo + t)
            continue
        # g(log t) = log(side / target) decreases (tail) or increases in log t
        gap = math.log(side / target)
        if gap == 0.0:
            break
        if (gap > 0.0) == tail:
            lo = t
        else:
            hi = t
        # |dg / d log t| = 2 t f(t) / side, with f(t) = density * x^((df + 1) / 2)
        slope = math.exp(math.log(2.0 * t) + log_density + 0.5 * (df + 1) * log_x - math.log(side))
        nxt = t * math.exp(gap / slope if tail else -gap / slope)
        if not lo < nxt < hi:
            nxt = 2.0 * t if hi == math.inf else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            break
        step, t = abs(nxt - t), nxt
        if step <= 4.0 * math.ulp(t):  # below the rounding of the sums
            break
    return t if q > 0.5 else -t
