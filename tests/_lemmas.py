"""Lemma helpers of the paper's proofs that no command runs.

Each function evaluates one step of an argument the certificate rests on:
the half-circle and kernel-stability lemmas about stable states, the cubic
fixed point of the order-parameter recursion and the recursion's validity
limit, the degree-to-profile implication, the mixing inequalities a
report fails on, and the G(n, p) tail, norm and concentration bounds
behind the p >= (1 + eps) log n / n theorem. The
tests check them against brute force, Monte Carlo and the library's own
recursion; the package itself calls none of them.
"""

import functools
import math

import numpy as np

from kurasync import BracketError, ConsistencyError, DomainError, InputError, wrap_phases
from kurasync.certify import _bisect, _fixed_point
from kurasync.dynamics import _check_state

CUBIC_ALPHA_SUP = 0.2055  # cubic discriminant is negative strictly below this
ROOT_TOL = 1e-12

# (alpha_param, n, bound on the symmetrization factor at that point)
SYMMETRIZATION_MILESTONES = (
    (2.0, 4, 7.91),
    (3.0, 120, 4.98),
    (5.0, 880, 3.994),
    (25.0, 450000, 2.996),
)


# -- stable states ----------------------------------------------------------


def rotate_to_real_rho1(theta):
    """Shift by a global constant so rho_1 is real and nonnegative.

    A state with rho_1 = 0 is returned unchanged (no preferred frame).
    """
    theta = np.asarray(theta, dtype=np.float64)
    r = np.mean(np.exp(1j * theta))
    if abs(r) < 1e-15:
        return theta.copy()
    return wrap_phases(theta - np.angle(r))


def kernel_K(a, b):
    """sin(|a| - min(|b|, pi/2)); equals -cos(a) once |b| >= pi/2."""
    return float(np.sin(abs(a) - min(abs(b), np.pi / 2)))


def kernel_stability_violations(g, theta, tol_per_degree=1e-9):
    """Vertices y where sum_x A[x,y] K(theta_x, theta_y) < -tol*deg(y).

    The state must be pre-rotated (rho_1 real, nonnegative); every true
    stable state then yields an empty list. Returns (vertex, deficit) pairs.
    """
    theta = _check_state(g, theta)
    A = g.adjacency()
    # K(a, b) expands to sin|a| cos(m_b) - cos|a| sin(m_b), m_b = min(|b|, pi/2),
    # so both matvecs are shared across all y
    m = np.minimum(np.abs(theta), np.pi / 2)
    s_abs = A @ np.sin(np.abs(theta))
    c_abs = A @ np.cos(np.abs(theta))
    sums = np.cos(m) * s_abs - np.sin(m) * c_abs
    degs = g.degrees
    out = []
    for y in np.nonzero(sums < -tol_per_degree * np.maximum(degs, 1))[0]:
        out.append((int(y), float(sums[y])))
    return out


def s_func(a):
    """sin^2(a) on |a| <= pi/2, then the plateau value 1."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    out = np.where(a <= np.pi / 2, np.sin(a) ** 2, 1.0)
    return float(out) if out.ndim == 0 else out


def arc_set(theta, psi):
    """Vertices with cos(theta_x) <= cos(psi), i.e. |theta_x| >= psi."""
    if not (0.0 <= psi <= np.pi):
        raise InputError(f"arc angle must lie in [0, pi], got {psi}")
    theta = np.asarray(theta, dtype=np.float64)
    return np.nonzero(np.abs(theta) >= psi)[0]


def half_circle_check(g, theta):
    """True iff the state lies in the open half circle |theta| < pi/2.

    Preconditions (caller's contract): pre-rotated, classified stable, and
    g connected. When true the half-circle lemma forces the synchronized
    state, so max |theta| < 1e-6 is asserted; a violation means the state
    was misclassified or the flow is buggy and raises ConsistencyError.
    """
    theta = _check_state(g, theta)
    if len(arc_set(theta, np.pi / 2)) > 0:
        return False
    spread = float(np.max(np.abs(theta))) if g.n else 0.0
    if spread >= 1e-6:
        raise ConsistencyError(
            f"stable state confined to a half circle has phase spread {spread:.3e}"
        )
    return True


# -- the order-parameter recursion ------------------------------------------


def cubic_root_a(alpha):
    """Unique real root of a^3 + (2a-1)... the order-parameter cubic.

    Solves a**3 + (2*alpha - 1)*a**2 + 2*alpha**2*a - 2*alpha**4 = 0 by
    bisection on [2*alpha**4, 1] to absolute tolerance 1e-12. The root is
    the fixed point of the general-mode recursion and decreases in alpha.
    """
    if not (0.0 < alpha < CUBIC_ALPHA_SUP):
        raise DomainError(
            f"cubic has a unique real root only for alpha in (0, {CUBIC_ALPHA_SUP}), got {alpha}"
        )

    def p(a):
        return a ** 3 + (2.0 * alpha - 1.0) * a ** 2 + 2.0 * alpha ** 2 * a - 2.0 * alpha ** 4

    lo, hi = 2.0 * alpha ** 4, 1.0
    if p(lo) >= 0.0 or p(hi) <= 0.0:  # cannot happen in the gated domain
        raise DomainError(f"root bracket [2*alpha^4, 1] is invalid at alpha={alpha}")
    lo, hi = _bisect(lambda a: p(a) < 0.0, lo, hi, ROOT_TOL)
    return 0.5 * (lo + hi)


@functools.cache
def order_param_validity_limit(regular_mode=True, tol=1e-9):
    """Largest alpha (to tol) where order_param_bounds still succeeds.

    Recomputed by bisection on the recursion itself rather than hard-coded,
    so a change to the recursion moves the limit with it.
    """
    def ok(x):
        try:
            a, _, _ = _fixed_point(x, regular_mode)
        except DomainError:
            return False
        return a >= 1.0 - 3.0 * x - 1e-12

    lo, hi = 0.15, 0.30
    if not ok(lo) or ok(hi):
        raise BracketError("validity-limit bracket [0.15, 0.30] is invalid")
    return _bisect(ok, lo, hi, tol)[0]


# -- degrees and profiles ---------------------------------------------------


def degree_implies_profile(d_min, d_max, alpha, d_ref):
    """Smallest (c_minus, c_plus) box certified by degree extrema plus alpha.

    Reads the degree-to-sandwich implication in reverse: a graph with
    ||Delta_A|| <= alpha*d_ref and degrees in [d_min, d_max] is an expander
    with c_minus = d_min/d_ref - 1 - alpha and c_plus = d_max/d_ref - 1 + alpha.
    """
    if not d_ref > 0:
        raise InputError(f"d_ref must be positive, got {d_ref}")
    if d_min > d_max:
        raise InputError(f"d_min {d_min} exceeds d_max {d_max}")
    return d_min / d_ref - 1.0 - alpha, d_max / d_ref - 1.0 + alpha


def mixing_violations(report):
    """The entries of a MixingReport whose slack lies below -allowance, the
    mixing inequalities the measured profile fails on."""
    return [e for e in report.entries if e.slack < -report.allowance]


# -- G(n, p) tail, norm and concentration bounds ----------------------------


def chernoff_degree_bound(n, gamma, eps):
    """Union bound 2 * n^(1 - eps^2 * gamma / 3) on any degree deviating
    from pn by a factor eps, clamped to 1."""
    if not n >= 1:
        raise InputError(f"need n >= 1, got {n}")
    if not (eps > 0.0 and gamma > 0.0):
        raise InputError(f"need eps > 0 and gamma > 0, got eps={eps}, gamma={gamma}")
    return min(1.0, 2.0 * n ** (1.0 - eps * eps * gamma / 3.0))


def binom_tail_ratio_check(n, p, k, c, side):
    """Tail-to-point mass ratio of Bin(n-1, p) against its closed-form bound.

    side 'below' compares P(X <= k)/P(X = k) with 1/c^2 under the
    hypotheses 0 < c < 1, p <= c/(1 - c^2), k <= (1-c)pn; side 'above'
    compares P(X >= k)/P(X = k) with 1 + 1/c under c > 0, k >= (1+c)pn.
    Sums run in log space relative to the point mass, so no underflow.
    Returns (bound, exact_ratio).
    """
    if side not in ("below", "above"):
        raise InputError(f"side must be 'below' or 'above', got {side!r}")
    if not (isinstance(n, int) and n >= 2):
        raise InputError(f"need integer n >= 2, got {n!r}")
    if not (0.0 < p < 1.0):
        raise InputError(f"need 0 < p < 1, got {p}")
    if not (isinstance(k, int) and 0 <= k <= n - 1):
        raise InputError(f"need integer k in [0, {n - 1}], got {k!r}")
    if side == "below":
        if not (0.0 < c < 1.0):
            raise DomainError(f"side 'below' needs 0 < c < 1, got {c}")
        if p > c / (1.0 - c * c):
            raise DomainError(f"p={p} exceeds c/(1 - c^2) = {c / (1.0 - c * c):.6f}")
        if k > (1.0 - c) * p * n:
            raise DomainError(f"k={k} exceeds (1 - c)pn = {(1.0 - c) * p * n:.6f}")
        bound = 1.0 / (c * c)
        js = range(0, k + 1)
    else:
        if not c > 0.0:
            raise DomainError(f"side 'above' needs c > 0, got {c}")
        if k < (1.0 + c) * p * n:
            raise DomainError(f"k={k} is below (1 + c)pn = {(1.0 + c) * p * n:.6f}")
        bound = 1.0 + 1.0 / c
        js = range(k, n)

    m = n - 1
    log_p, log_q = math.log(p), math.log(1.0 - p)

    def log_pmf(j):
        return (
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            + j * log_p + (m - j) * log_q
        )

    anchor = log_pmf(k)
    ratio = math.fsum(math.exp(log_pmf(j) - anchor) for j in js)
    return bound, ratio


def symmetrization_factor(alpha_param, n):
    """f(alpha, n) = 2*sqrt(2)*exp(1/(2*alpha))*(1 + sqrt(2*alpha*log n/n))."""
    if not alpha_param > 0.0:
        raise InputError(f"alpha_param must be positive, got {alpha_param}")
    if not n >= 3:
        raise InputError(f"need n >= 3, got {n}")
    return (
        2.0 * math.sqrt(2.0) * math.exp(0.5 / alpha_param)
        * (1.0 + math.sqrt(2.0 * alpha_param * math.log(n) / n))
    )


def symmetrization_norm_bound(n, p, alpha_param=25.0):
    """Upper bound f(alpha_param, n) * sqrt(n p (1-p)) on the expected
    operator norm of the centered adjacency matrix of G(n, p).

    alpha_param is the free moment parameter of the trace argument; 25 is
    the best tabulated row and fine for all but tiny n.
    """
    if not (0.0 < p < 1.0):
        raise InputError(f"need 0 < p < 1, got {p}")
    return symmetrization_factor(alpha_param, n) * math.sqrt(n * p * (1.0 - p))


def concentration_tail(n, p, t):
    """Threshold and tail of the norm concentration estimate.

    Returns (4*sqrt(p(1-p)n) + t, min(1, 2*exp(-t^2/4))): the probability
    that the centered adjacency norm exceeds the threshold is at most the
    tail. Stated for n >= 1000.
    """
    if n < 1000:
        raise DomainError(f"concentration estimate is stated for n >= 1000, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"need p in [0, 1], got {p}")
    if not t > 0.0:
        raise InputError(f"need t > 0, got {t}")
    threshold = 4.0 * math.sqrt(p * (1.0 - p) * n) + t
    return threshold, min(1.0, 2.0 * math.exp(-t * t / 4.0))


def concentration_tail_gamma(n, gamma):
    """Specialization at p = gamma*log n/n, t = 2*sqrt(gamma*log n):
    threshold at most 6*sqrt(gamma*log n), tail 2*n^-gamma."""
    if not gamma > 0.0:
        raise InputError(f"need gamma > 0, got {gamma}")
    if n < 1000:
        raise DomainError(f"concentration estimate is stated for n >= 1000, got {n}")
    glog = gamma * math.log(n)
    return 6.0 * math.sqrt(glog), min(1.0, 2.0 * n ** (-gamma))
