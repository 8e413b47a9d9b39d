"""Certificates of global synchronization from an expander profile.

Three layers, all exact arithmetic on scale-free quantities (fractions of n,
ratios of arc masses), so a certificate is independent of graph size:

* order-parameter bounds: a monotone two-variable recursion whose limit a
  lower-bounds rho_1^2 at any stable state, giving the budget
  (1/n) sum_x s(theta_x) <= alpha^2 / a;
* a closed-form sufficient condition in alpha, c_minus, c_plus;
* an amplification engine that replays arc-growth steps (small-arc,
  large-arc, geometric tail) and passes when the certified mass-times-sin^2
  accounting strictly exceeds the budget.

The engine tracks arc mass as a ratio to the unknown starting mass c_0.
Each small-arc step also records the scenario in which its absolute cap
(rho * alpha * n) binds; the final check takes the minimum over the main
chain and all recorded cap scenarios, which is the worst case over c_0 of
the telescoping mass sum.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import BracketError, DomainError, InputError, ScheduleError
from .spectral import ExpanderProfile, json_number

__all__ = [
    "OrderParamBounds",
    "order_param_bounds",
    "CertResult",
    "theorem_condition",
    "SmallArcStep",
    "LargeArcStep",
    "TailStep",
    "Schedule",
    "preset_regular_schedule",
    "TraceRow",
    "AmplificationTrace",
    "amplification_run",
    "max_alpha_regular",
    "min_ramanujan_degree",
]

GENERAL_ALPHA_SUP = 0.2
FIXED_POINT_TOL = 1e-14
FIXED_POINT_MAX_ITERS = 10 ** 6


def _bisect(inside, lo, hi, tol):
    """Halve [lo, hi] until it is at most tol wide, or until its midpoint
    rounds to an endpoint; inside(lo) holds and inside(hi) fails on entry,
    and both stay so. Returns the final (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class OrderParamBounds:
    """Certified lower bounds at a stable state: rho_1^2 >= a, |rho_2|^2 >= b.

    s_budget stores alpha**2 / a exactly as computed; it upper-bounds the
    average of s(theta_x) over vertices and is what amplification must beat.
    """

    a: float
    b: float
    s_budget: float
    alpha: float
    regular_mode: bool
    iterations: int


def _fixed_point(alpha, regular_mode):
    # coupling constant: the general argument loses 4*alpha per round trip,
    # the regular-graph refinement only 3*alpha
    coef = 3.0 if regular_mode else 4.0
    a, b = 0.0, 0.0
    two_a2 = 2.0 * alpha * alpha
    for k in range(1, FIXED_POINT_MAX_ITERS + 1):
        a_next = 0.5 * (1.0 + b - coef * alpha)
        if a_next <= 0.0:
            raise DomainError(
                f"order-parameter recursion is vacuous at alpha={alpha} (nonpositive first bound)"
            )
        b_next = (1.0 - two_a2 / a_next) ** 2
        if a_next < a or b_next < b:
            raise DomainError(
                f"order-parameter recursion lost monotonicity at alpha={alpha} (step {k})"
            )
        if abs(a_next - a) < FIXED_POINT_TOL:
            return a_next, b_next, k
        a, b = a_next, b_next
    raise DomainError(
        f"order-parameter recursion did not converge in {FIXED_POINT_MAX_ITERS} iterations "
        f"at alpha={alpha}"
    )


def order_param_bounds(alpha, regular_mode=False):
    """Iterate the paired lower-bound recursion to its limit.

    a_{k+1} = (1 + b_k - 4*alpha)/2 (3*alpha in regular mode) and
    b_{k+1} = (1 - 2*alpha^2/a_{k+1})^2 from a_0 = b_0 = 0, stopping when
    |a_{k+1} - a_k| < 1e-14. Monotone increase of both sequences is checked
    every step. Past the mode's validity limit the recursion either stalls
    against a spurious low fixed point or stops being monotone; both raise
    DomainError, as does a limit below the linear bound 1 - 3*alpha.
    """
    if not 0.0 <= alpha < math.inf:
        raise InputError(f"alpha must be finite and nonnegative, got {alpha}")
    if not regular_mode and alpha > GENERAL_ALPHA_SUP + 1e-12:
        raise DomainError(
            f"general mode requires alpha <= {GENERAL_ALPHA_SUP}, got {alpha}"
        )
    a, b, iters = _fixed_point(alpha, regular_mode)
    if a < 1.0 - 3.0 * alpha - 1e-12:
        raise DomainError(
            f"recursion converged to the spurious branch at alpha={alpha} "
            f"(a={a:.6f} < 1 - 3*alpha={1.0 - 3.0 * alpha:.6f})"
        )
    s_budget = alpha * alpha / a
    return OrderParamBounds(
        a=a, b=b, s_budget=s_budget, alpha=alpha,
        regular_mode=bool(regular_mode), iterations=iters,
    )


@dataclass(frozen=True)
class CertResult:
    verdict: str  # pass | fail
    condition1: float
    condition2: float
    reasons: tuple = ()


def theorem_condition(profile):
    """Closed-form sufficient condition on (alpha, c_minus, c_plus).

    condition1 = 64*alpha*(1 + 2*c_plus - c_minus) / (1 + c_minus)^2
    condition2 = 64*alpha*(1 + c_plus)*log((1 + c_plus + alpha)/(2*alpha))
                 / ((1 + c_minus)*(1 + 5*c_plus - 4*c_minus))

    Pass iff both are below 1, alpha <= 1/5 and c_minus > -1. alpha = 0 is
    the degenerate limit where both conditions vanish.
    """
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    reasons = []
    if cm <= -1.0:
        return CertResult(
            verdict="fail", condition1=math.inf, condition2=math.inf,
            reasons=("spectral window reaches -1: the graph may be disconnected",),
        )
    if alpha == 0.0:
        c1, c2 = 0.0, 0.0
    else:
        c1 = 64.0 * alpha * (1.0 + 2.0 * cp - cm) / (1.0 + cm) ** 2
        c2 = (
            64.0 * alpha * (1.0 + cp) * math.log((1.0 + cp + alpha) / (2.0 * alpha))
            / ((1.0 + cm) * (1.0 + 5.0 * cp - 4.0 * cm))
        )
    if alpha > GENERAL_ALPHA_SUP:
        reasons.append(f"alpha={alpha} exceeds the 1/5 gate")
    if c1 >= 1.0:
        reasons.append(f"condition1={c1:.6f} is not below 1")
    if c2 >= 1.0:
        reasons.append(f"condition2={c2:.6f} is not below 1")
    verdict = "pass" if not reasons else "fail"
    return CertResult(verdict=verdict, condition1=c1, condition2=c2, reasons=tuple(reasons))


@dataclass(frozen=True)
class SmallArcStep:
    """Arc growth driven by edge counts within a small set; needs eps and rho."""

    eps: float
    rho: float
    kind: str = field(default="small_arc", init=False, repr=False)


@dataclass(frozen=True)
class LargeArcStep:
    """Arc growth once the mass ratio has cleared the (1+c_plus+alpha)/(2*alpha) gate."""

    eps: float
    kind: str = field(default="large_arc", init=False, repr=False)


@dataclass(frozen=True)
class TailStep:
    """Terminal step: geometric series of large-arc spends driving mass to 1/2."""

    eps: float
    kind: str = field(default="tail", init=False, repr=False)


_STEP_KINDS = {"small_arc": SmallArcStep, "large_arc": LargeArcStep, "tail": TailStep}


@dataclass(frozen=True)
class Schedule:
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise InputError("schedule has no steps")
        for i, s in enumerate(steps):
            if not isinstance(s, (SmallArcStep, LargeArcStep, TailStep)):
                raise InputError(f"step {i} has unknown type {type(s).__name__}")
            if not s.eps > 0.0:
                raise InputError(f"step {i}: eps must be positive, got {s.eps}")
            if isinstance(s, SmallArcStep) and not s.rho > 0.0:
                raise InputError(f"step {i}: rho must be positive, got {s.rho}")
            if isinstance(s, TailStep) and i != len(steps) - 1:
                raise InputError("a tail step must be the last step")

    @classmethod
    def from_json_dict(cls, data):
        raw = data.get("steps") if isinstance(data, dict) else None
        if not isinstance(raw, list):
            raise InputError("schedule JSON must be an object with a 'steps' list")
        steps = []
        for i, d in enumerate(raw):
            kind = d.get("kind") if isinstance(d, dict) else None
            step_type = _STEP_KINDS.get(kind) if isinstance(kind, str) else None
            if step_type is None:
                raise InputError(f"step {i} must be an object with a known kind, got {d!r}")
            names = [f.name for f in dataclasses.fields(step_type) if f.init]
            try:
                steps.append(step_type(**{k: json_number(d, k) for k in names}))
            except (KeyError, TypeError, ValueError, OverflowError):
                raise InputError(
                    f"step {i} ({kind}) needs numeric {' and '.join(names)}, got {d!r}"
                ) from None
        return cls(steps=tuple(steps))


def preset_regular_schedule():
    """The hand-tuned schedule for near-regular profiles: three small-arc
    steps, four large-arc steps, then the tail, all with fixed eps/rho."""
    return Schedule(
        steps=(
            SmallArcStep(eps=0.23, rho=0.38),
            SmallArcStep(eps=0.23, rho=0.38),
            SmallArcStep(eps=0.23, rho=0.38),
            LargeArcStep(eps=0.184),
            LargeArcStep(eps=0.184),
            LargeArcStep(eps=0.184),
            LargeArcStep(eps=0.184),
            TailStep(eps=0.184),
        )
    )


@dataclass(frozen=True)
class TraceRow:
    k: int
    beta: float
    mass_ratio: float  # certified |C_beta| / |C_{pi/2}|, worst case
    mass_frac: float  # certified |C_beta| / n; 0.0 until an absolute bound exists
    step_kind: str
    cap_hit: str  # none | alpha_n | half_n
    status: str  # ok | infeasible | below_zero


@dataclass(frozen=True)
class AmplificationTrace:
    rows: tuple
    verdict: str  # pass | fail
    final_check_lhs: float
    final_check_rhs: float
    mode: str
    alpha: float
    reason: str = ""


class _Refuted(Exception):
    """An engine cannot certify the profile; the message is the fail reason."""


def _spend(x, paper_proof):
    # pi*x/2 dominates asin(x) on [0, 1], so the paper_proof variant is
    # strictly more conservative step by step
    if paper_proof:
        return 0.5 * math.pi * x
    return math.asin(x)


def _tail_spend(x, delta, paper_proof):
    # angle spent by the tail's geometric run of steps, sines x, x/(1+delta), ...
    if x == 0.0:
        return 0.0
    if paper_proof:
        # closed form of the geometric series of pi*x/2 spends
        if math.isfinite(delta):
            return 0.5 * math.pi * x * (1.0 + delta) / delta
        return 0.5 * math.pi * x
    total = 0.0
    xj = x
    j = 0
    while xj > 1e-9 and j < 400:
        total += math.asin(xj)
        xj /= 1.0 + delta
        j += 1
    return total + 0.5 * math.pi * xj / delta


def _schedule_run(profile, schedule, mode, rows):
    """Replay schedule step by step, appending a row per step; returns the
    certified mass. A step that cannot be taken appends its row, marked
    with the ratio as it stood before the step, and raises _Refuted."""
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    paper_proof = mode == "paper_proof"
    gate = (1.0 + cp + alpha) / (2.0 * alpha) if alpha > 0.0 else math.inf
    beta = 0.5 * math.pi
    ratio = 1.0
    cap_candidates = []
    saw_small_arc = False
    for i, step in enumerate(schedule.steps, start=1):
        if not step.eps < 1.0 + cm:
            raise ScheduleError(
                f"step {i}: eps={step.eps} must be below 1 + c_minus = {1.0 + cm}"
            )
        denom = 1.0 + cm - step.eps
        delta = step.eps / (cp - cm) if cp > cm else math.inf
        small_arc = isinstance(step, SmallArcStep)
        tail = isinstance(step, TailStep)
        if small_arc:
            x = 2.0 * (1.0 + step.rho) * alpha / denom
        else:
            if not (ratio >= gate or saw_small_arc):
                raise ScheduleError(
                    f"step {i}: large-arc step before the mass-ratio gate "
                    f"{gate:.4f} (ratio is {ratio:.4f} and no small-arc cap is available)"
                )
            x = 2.0 * (1.0 + cp + alpha) / (denom * ratio) if math.isfinite(ratio) else 0.0
        if x > 1.0:
            rows.append(TraceRow(i, beta, ratio, 0.0, step.kind, "none", "infeasible"))
            raise _Refuted(f"step {i}: required sine {x:.4f} exceeds 1")
        beta_new = beta - (_tail_spend(x, delta, paper_proof) if tail else _spend(x, paper_proof))
        if beta_new < 0.0:
            rows.append(TraceRow(i, beta_new, ratio, 0.0, step.kind, "none", "below_zero"))
            raise _Refuted(f"step {i}: angle budget exhausted" + (" in the tail" if tail else ""))
        beta = beta_new
        if tail:  # always the last step
            rows.append(TraceRow(i, beta, ratio, 0.5, step.kind, "half_n", "ok"))
            return min([0.5 * math.sin(beta) ** 2] + cap_candidates)
        ratio = ratio * (1.0 + delta) if math.isfinite(delta) else math.inf
        if small_arc:
            # scenario where the rho*alpha*n cap binds at this step: that
            # mass sits beyond the new beta and already contributes to the sum
            cap_candidates.append(step.rho * alpha * math.sin(beta) ** 2)
            saw_small_arc = True
        rows.append(TraceRow(i, beta, ratio, 0.0, step.kind,
                             "alpha_n" if small_arc else "none", "ok"))
    raise _Refuted("schedule has no tail step, so no absolute mass bound exists")


def _auto_proof_run(profile, rows):
    """Aggregate replay of the sufficient-condition proof.

    Stage 1 (small-arc regime, eps = (1+c_minus)/2, rho = 1) spends at most
    (pi/4) * stage1_frac of angle, where stage1_frac bounds both the per-step
    cost times the step count and the leftover rounding step; the tail spends
    at most (pi/16) * condition1. The two scenario values are the alpha*n cap
    at the stage-1 angle and the half-mass bound at the final angle. Appends
    the two stage rows and returns the certified mass, or raises _Refuted.
    """
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    if alpha > GENERAL_ALPHA_SUP:
        raise _Refuted(f"alpha={alpha} exceeds the 1/5 gate")
    if alpha == 0.0:
        raise _Refuted("alpha = 0 leaves no strict margin over the zero budget")
    cond = theorem_condition(profile)
    c1, c2 = cond.condition1, cond.condition2
    stage1_frac = max(16.0 * alpha / (1.0 + cm), c2)
    if c1 >= 1.0 or stage1_frac >= 1.0:
        raise _Refuted(
            f"closed-form condition fails (condition1={c1:.4f}, stage1 fraction={stage1_frac:.4f})"
        )
    gate = (1.0 + cp + alpha) / (2.0 * alpha)
    beta_mid = 0.5 * math.pi - 0.25 * math.pi * stage1_frac
    beta_final = beta_mid - (math.pi / 16.0) * c1
    branch_lhs = alpha * math.sin(beta_mid) ** 2
    main_lhs = 0.5 * math.sin(beta_final) ** 2
    rows.append(TraceRow(1, beta_mid, gate, 0.0, "stage1", "alpha_n", "ok"))
    rows.append(TraceRow(2, beta_final, gate, 0.5, "tail", "half_n", "ok"))
    return min(branch_lhs, main_lhs)


def amplification_run(profile, schedule=None, mode="numeric"):
    """Replay an amplification schedule against a profile.

    mode numeric uses exact asin spends and a truncated tail series; mode
    paper_proof replaces every asin(x) by its overestimate pi*x/2 and sums
    the tail in closed form, so it never passes where numeric mode fails.
    With schedule None, mode must be paper_proof and the aggregate replay of
    the closed-form proof is used. The budget recursion runs in regular
    mode exactly when the profile has the shape (alpha, -alpha, alpha) with
    alpha > 0.

    Returns a trace that passes when the certified mass (final_check_lhs)
    strictly exceeds the budget (final_check_rhs). Failing to certify is a
    fail verdict, never an exception. Where no certified mass is reached (a
    window reaching c_minus = -1, an alpha outside the budget recursion's
    domain, an infeasible step or exhausted angle, whose row is marked, no
    tail step, a failed closed-form condition) lhs is 0 and rhs the budget,
    or inf if none was computed. A step with eps not below 1 + c_minus, or a
    large-arc step before its mass-ratio gate, is a ScheduleError.
    """
    if mode not in ("numeric", "paper_proof"):
        raise InputError(f"mode must be 'numeric' or 'paper_proof', got {mode!r}")
    if schedule is None and mode != "paper_proof":
        raise InputError("numeric mode needs an explicit schedule")
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    rows = [TraceRow(0, 0.5 * math.pi, 1.0, 0.0, "start", "none", "ok")]
    budget = math.inf
    try:
        if cm <= -1.0:
            raise _Refuted("spectral window reaches -1: the graph may be disconnected")
        regular = alpha > 0.0 and cm == -alpha and cp == alpha
        try:
            budget = order_param_bounds(alpha, regular_mode=regular).s_budget
        except DomainError as exc:
            raise _Refuted(str(exc)) from None
        if schedule is None:
            lhs = _auto_proof_run(profile, rows)
        else:
            lhs = _schedule_run(profile, schedule, mode, rows)
    except _Refuted as exc:
        lhs, reason = 0.0, str(exc)
    else:
        reason = "" if lhs > budget else (
            f"certified mass {lhs:.6g} does not exceed the budget {budget:.6g}")
    return AmplificationTrace(
        rows=tuple(rows), verdict="fail" if reason else "pass", final_check_lhs=lhs,
        final_check_rhs=budget, mode=mode, alpha=alpha, reason=reason,
    )


def max_alpha_regular(schedule, lo, hi, tol=1e-5, mode="numeric"):
    """Largest alpha in [lo, hi] (bisection to tol) certified for the
    regular-shape profile (alpha, -alpha, alpha).

    Each alpha is run as amplification_run(profile, schedule, mode). The
    pass region is assumed to be an interval, verified by requiring a pass
    at lo and a fail at hi.
    """
    if not (0.0 <= lo < hi < math.inf):
        raise InputError(f"need 0 <= lo < hi < inf, got lo={lo}, hi={hi}")
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol}")

    def passes(a):
        prof = ExpanderProfile(n=1, d_ref=1.0, alpha=a, c_minus=-a, c_plus=a)
        return amplification_run(prof, schedule, mode=mode).verdict == "pass"

    if not passes(lo):
        raise BracketError(f"amplification already fails at the lower endpoint {lo}")
    if passes(hi):
        raise BracketError(f"amplification still passes at the upper endpoint {hi}")
    return _bisect(passes, lo, hi, tol)[0]


def min_ramanujan_degree(alpha_threshold):
    """Smallest d >= 3 with 2*sqrt(d-1)/d <= alpha_threshold.

    The spectral radius bound 2*sqrt(d-1)/d of an optimal d-regular graph
    is decreasing in d, so the answer is the ceiling of the closed-form
    root refined by a short upward scan.
    """
    t = float(alpha_threshold)
    if not (0.0 < t <= 1.0):
        raise InputError(f"threshold must lie in (0, 1], got {alpha_threshold}")
    # larger root of t^2 d^2 - 4d + 4 = 0
    root = (2.0 + 2.0 * math.sqrt(max(0.0, 1.0 - t * t))) / (t * t)
    d = max(3, int(root) - 2)
    while 2.0 * math.sqrt(d - 1.0) / d > t:
        d += 1
    return d
