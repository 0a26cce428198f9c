"""Normal and chi-squared tails in numpy: the special functions scoring and
the rank statistics need.

erf and the scaled complement erfcx(x) = exp(x^2)*erfc(x) are Cody's
rational approximations (Math. Comp. 23, 1969) with the coefficients of
Cephes' ndtr.c (S. L. Moshier), highest degree first:

  erf(x)   = x*T(x^2)/U(x^2)   for |x| < 1
  erfcx(x) = P(x)/Q(x)         for 1 <= x < 8
  erfcx(x) = R(x)/S(x)         for x >= 8

Q, S and U have an implied leading coefficient 1. Against scipy they hold
to ~1e-15 relative; P/Q is only good to ~1e-11 below 1, so T/U takes it.
"""
from __future__ import annotations

import math

import numpy as np

_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

_SQRT1_2 = math.sqrt(0.5)
_LN2 = math.log(2.0)
# erfc is 0 in float64 beyond this: exp(-y^2) underflows (Cephes' MAXLOG)
_UNDERFLOW = math.sqrt(7.09782712893383996843e2)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# stirlerr(v) = S(1/v^2)/v beyond v = 15: 1/12 - 1/(360 v^2) + 1/(1260 v^4) - ...
_STIRLING = (1.0 / 1188, -1.0 / 1680, 1.0 / 1260, -1.0 / 360, 1.0 / 12)


def _horner(x, coeffs, monic: bool = False):
    """Polynomial in x, coefficients highest degree first; ``monic`` puts
    an implied 1 before them."""
    acc = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def _erf_small(x):
    """erf(x) for |x| < 1."""
    x2 = x * x
    return x * _horner(x2, _T) / _horner(x2, _U, monic=True)


def _erfcx_mid(x):
    """erfcx(x) for 1 <= x < 8."""
    return _horner(x, _P) / _horner(x, _Q, monic=True)


def neg_log_normal_sf(z):
    """-ln(1 - Phi(z)) elementwise, for |z| < 8*sqrt(2).

    No branch exponentiates a large argument, so the upper tail keeps every
    digit where 1 - Phi(z) is far below one ulp of 1. Each branch gathers
    its own elements, by index: on the scattered masks that scores make,
    that is several times faster than a boolean gather.
    """
    x = np.asarray(z, dtype=np.float64) * _SQRT1_2
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    mid = np.abs(flat) < 1.0
    up = flat >= 1.0
    i = np.flatnonzero(mid)
    out[i] = -np.log(0.5 - 0.5 * _erf_small(flat[i]))
    i = np.flatnonzero(up)
    xu = flat[i]
    out[i] = xu * xu + _LN2 - np.log(_erfcx_mid(xu))
    i = np.flatnonzero(~(mid | up))  # x <= -1, and nan
    xd = -flat[i]
    out[i] = -np.log1p(-0.5 * np.exp(-xd * xd) * _erfcx_mid(xd))
    return out.reshape(x.shape)


def erfc(y):
    """erfc(y) elementwise for y >= 0; 0 where it underflows."""
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    near = y < 1.0
    out[near] = 1.0 - _erf_small(y[near])
    for sel, num, den in (
        ((y >= 1.0) & (y < 8.0), _P, _Q),
        ((y >= 8.0) & (y <= _UNDERFLOW), _R, _S),
    ):
        ys = y[sel]
        out[sel] = np.exp(-ys * ys) * _horner(ys, num) / _horner(ys, den, monic=True)
    return out


def _stirlerr(v):
    """lgamma(v+1) - (v+1/2)*log(v) + v - log(sqrt(2*pi)) for v > 0: the
    Stirling series beyond 15, where lgamma would cancel digits."""
    out = np.empty_like(v)
    small = v <= 15.0
    vs = v[small]
    out[small] = [math.lgamma(u + 1.0) for u in vs]
    out[small] -= (vs + 0.5) * np.log(vs) - vs + _LOG_SQRT_2PI
    inv2 = 1.0 / (v[~small] * v[~small])
    out[~small] = _horner(inv2, _STIRLING) / v[~small]
    return out


def _bd0(v, h: float):
    """v*log(v/h) + h - v, as a series in (v-h)/(v+h) near v = h (Loader
    2000), where the direct form cancels."""
    d = v - h
    out = v * np.log(v / h) - d
    near = np.abs(d) < 0.1 * (v + h)
    e = d[near] / (v[near] + h)
    e2 = e * e
    tail = np.zeros_like(e)
    for k in range(10, 0, -1):  # |e| < 0.1: ten terms reach 1e-20
        tail = (tail + 1.0 / (2 * k + 1)) * e2
    out[near] = d[near] * e + 2.0 * v[near] * e * tail
    return out


def chi2_sf(stat: float, df: int) -> float:
    """Chi-squared survival at ``stat`` >= 0 with an integer ``df`` >= 1.

    With h = stat/2, the tail is the Poisson sum of h^v e^-h / v! over the
    integers v < df/2 for even df, and erfc(sqrt(h)) plus the same sum over
    the half-integers v < df/2 for odd df. Each term's log is Loader's
    saddle-point form, -log(sqrt(2*pi*v)) - stirlerr(v) - bd0(v, h), which
    keeps ~1e-13 where j*log(h) - h - lgamma(j+1) would cancel ~1e-12, and
    the terms are summed shifted by the largest, so neither a large df nor a
    large h overflows or loses the small tail.
    """
    h = 0.5 * stat
    if h < 1e-36:  # 1 - p <= erf(sqrt(h)) < 2e-18, under half an ulp of 1
        return 1.0
    if df % 2:
        p = float(erfc(math.sqrt(h)))
        orders = np.arange(df // 2) + 0.5
    else:
        p = math.exp(-h)  # the v = 0 term
        orders = np.arange(1.0, df // 2)
    if orders.size:
        log_terms = -0.5 * np.log(2.0 * math.pi * orders) - _stirlerr(orders) - _bd0(orders, h)
        top = float(log_terms.max())
        p += math.exp(top) * float(np.exp(log_terms - top).sum())
    return min(p, 1.0)
