"""Spectral predictions for Erdos-Renyi graphs near the connectivity threshold.

For G(n, p) with p = gamma * log n / n, gamma > 1, the degree window is
governed by the rate function h(c) = (1 + c) log(1 + c) - c: the extreme
degrees concentrate at (1 + c) p n where h(c) = 1/gamma. Everything here is
closed-form evaluation of those roots plus explicit (clamped) failure
probability bounds; Monte Carlo validation lives in the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .certify import GENERAL_ALPHA_SUP
from .errors import BracketError, ConsistencyError, DomainError, InputError, NumericalError
from .graphs import _is_integer

__all__ = [
    "h_func",
    "gamma_roots",
    "gamma_roots_eps",
    "ErPrediction",
    "er_prediction",
    "er_failure_probability",
]

VACUOUS_VERDICT = "prediction only — certificate vacuous at this n"
CERTIFIABLE_VERDICT = "prediction within certifiable range"

_ROOT_XTOL = 1e-13
# scipy.optimize.brentq's defaults: its rtol floor, 4 * machine epsilon, and
# its iteration cap
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def h_func(c):
    """Rate function (1 + c) log(1 + c) - c.

    Zero at c = 0, strictly decreasing on (-1, 0], strictly increasing on
    [0, inf), with limit 1 as c -> -1.
    """
    if c <= -1.0:
        raise DomainError(f"h is defined on (-1, inf), got {c}")
    return (1.0 + c) * math.log1p(c) - c


def _brent(f, xa, xb, xtol):
    """Root of f in the bracket [xa, xb] by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4,
    in the form of scipy's brentq.c: the same bracket, step and bisection
    tests in the same order, with brentq's default rtol and iteration cap,
    so every root is bitwise what scipy.optimize.brentq returns.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericalError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations",
                         residual=abs(fcur))


def _h_root(target, lo, hi):
    return _brent(lambda c: h_func(c) - target, lo, hi, _ROOT_XTOL)


def _h_root_negative(target):
    # h decreases from 1 to 0 on (-1, 0], so a root exists iff 0 < target < 1;
    # above h(lo) = 1 - 3.55e-14 it lies left of the bracket
    lo = -1.0 + 1e-15
    if target > h_func(lo):
        raise DomainError(f"gamma is too close to the window's lower end: h(c) = {target!r} "
                          f"has its negative root within 1e-15 of -1")
    return _h_root(target, lo, -1e-300)


def _h_root_positive(target):
    # h increases from 0 on [0, inf); h(e - 1) = 1 bounds the roots we need
    hi = math.e - 1.0
    while h_func(hi) < target:
        hi *= 2.0
    return _h_root(target, 1e-300, hi)


def gamma_roots(gamma):
    """Both solutions of h(c) = 1/gamma, as (c_minus, c_plus).

    c_minus lies in (-1, 0) and increases with gamma; c_plus lies in
    (0, e - 1) and decreases with gamma. Both tend to 0 as gamma -> inf and
    to (-1, e - 1) as gamma -> 1.
    """
    if not gamma > 1.0:
        raise DomainError(f"gamma must exceed 1, got {gamma}")
    target = 1.0 / gamma
    return _h_root_negative(target), _h_root_positive(target)


def gamma_roots_eps(gamma, eps):
    """Perturbed degree-window roots used by the finite-n certificate.

    c_minus solves gamma * h(c - eps) = 1 + eps with c < 0; c_plus solves
    gamma * h(c + eps) = 1 + eps with c > 0. Requires 0 < eps < 1 and
    1 + eps < gamma < 1 + eps**-2; inside that window the roots sandwich
    strictly between the unperturbed ones and 0.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not (1.0 + eps < gamma < 1.0 + eps ** -2):
        raise DomainError(
            f"gamma={gamma} outside the window (1 + eps, 1 + eps^-2) for eps={eps}"
        )
    target = (1.0 + eps) / gamma
    c_minus = _h_root_negative(target) + eps
    c_plus = _h_root_positive(target) - eps
    cm0, cp0 = gamma_roots(gamma)
    if not (-1.0 < cm0 <= c_minus < 0.0 < c_plus <= cp0):
        raise ConsistencyError(
            f"perturbed roots ({c_minus}, {c_plus}) escape the sandwich "
            f"({cm0}, {cp0}) at gamma={gamma}, eps={eps}"
        )
    return c_minus, c_plus


def _log_n_and_p(n, gamma):
    """(log n, p = gamma log n / n); an n with no float value has no p."""
    try:
        float(n)
    except OverflowError:
        raise InputError(f"need n <= {sys.float_info.max:.6g}, got a larger integer") from None
    logn = math.log(n)
    return logn, gamma * logn / n


def er_failure_probability(n, gamma, eps):
    """Explicit bound on the probability that G(n, p) misses its profile.

    Evaluates (1/(c_minus + eps)^2 + (1 + c_plus - eps)/(c_plus - eps))
    * (log n)^4 * n^-eps * exp(2 p k_plus) + 2 n^-gamma with the perturbed
    roots and k_plus = ceil((1 + c_plus - eps) * gamma * log n), clamped to
    [0, 1]. Degenerate denominators and overflowing exponents clamp to 1
    (a vacuous but valid bound).
    """
    if n < 3:
        raise InputError(f"need n >= 3, got {n}")
    c_minus, c_plus = gamma_roots_eps(gamma, eps)
    logn, p = _log_n_and_p(n, gamma)
    if (c_minus + eps) == 0.0 or (c_plus - eps) <= 0.0:
        return 1.0
    k_plus = math.ceil((1.0 + c_plus - eps) * gamma * logn)
    exp_arg = 2.0 * p * k_plus
    if exp_arg > 700.0:
        return 1.0
    lead = 1.0 / (c_minus + eps) ** 2 + (1.0 + c_plus - eps) / (c_plus - eps)
    value = lead * logn ** 4 * n ** (-eps) * math.exp(exp_arg) + 2.0 * n ** (-gamma)
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class ErPrediction:
    """Predicted expander profile of G(n, p) at p = gamma * log n / n."""

    n: int
    gamma: float
    eps: float
    p: float
    d_ref: float
    alpha_pred: float
    c_minus_pred: float
    c_plus_pred: float
    c_minus_eps: float
    c_plus_eps: float
    failure_prob_bound: float
    verdict: str


def er_prediction(n, gamma, eps):
    """Assemble the predicted profile of G(n, p) with its failure bound.

    alpha_pred = 6 / sqrt(gamma * log n) is honest about finite n: when it
    exceeds 1/5 no certificate can follow and the verdict says so.
    """
    if not (_is_integer(n) and n >= 3):
        raise InputError(f"need integer n >= 3, got {n!r}")
    n = int(n)
    logn, p = _log_n_and_p(n, gamma)
    if p > 1.0:
        raise DomainError(f"gamma * log n / n = {p:.4f} exceeds 1 at n={n}")
    c_minus, c_plus = gamma_roots(gamma)
    c_minus_e, c_plus_e = gamma_roots_eps(gamma, eps)
    alpha_pred = 6.0 / math.sqrt(gamma * logn)
    verdict = VACUOUS_VERDICT if alpha_pred > GENERAL_ALPHA_SUP else CERTIFIABLE_VERDICT
    return ErPrediction(
        n=n, gamma=float(gamma), eps=float(eps), p=p, d_ref=gamma * logn,
        alpha_pred=alpha_pred, c_minus_pred=c_minus, c_plus_pred=c_plus,
        c_minus_eps=c_minus_e, c_plus_eps=c_plus_e,
        failure_prob_bound=er_failure_probability(n, gamma, eps),
        verdict=verdict,
    )
