"""Expander-profile measurement and mixing-bound verification.

A profile (n, d_ref, alpha, c_minus, c_plus) asserts two operator bounds:
the centered adjacency Delta_A = A - (d_ref/n) J has norm at most
alpha * d_ref, and the centered Laplacian Delta_L = L - d_ref I + (d_ref/n) J
is sandwiched between c_minus * d_ref and c_plus * d_ref on all of R^n.
Both are measured here with iterative extremal-eigenvalue solves whose
accuracy is certified by explicit residual norms, never by iteration count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import InputError, NumericalError
from .graphs import _is_integer, edges_between

__all__ = [
    "ExpanderProfile",
    "MixingEntry",
    "MixingReport",
    "centered_adjacency_alpha",
    "centered_laplacian_extremes",
    "expander_profile",
    "degree_bounds_from_profile",
    "check_mixing_bounds",
]

DEFAULT_TOL = 1e-8

# vertex counts at or below this use an exact dense eigensolve; ARPACK-style
# iteration is unreliable when ncv cannot exceed n
_DENSE_CUTOFF = 8


def _json_fields(pairs):
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def record_json(record):
    """JSON form of a dataclass record: its fields, tuples as lists."""
    return dataclasses.asdict(record, dict_factory=_json_fields)


def read_json(path):
    """Parse a JSON file; a file that does not parse is an InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{path} is not valid JSON: {exc}") from None


def json_number(obj, key, kind=float):
    """obj[key], which must be a JSON number, as kind.

    An int is accepted where a float is wanted, as --config accepts it; a
    bool, a string, or a fraction where an int is wanted raises TypeError.
    """
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        want = "an integer" if kind is int else "a number"
        raise TypeError(f"{key} must be {want}, got {value!r}")
    return kind(value)


def write_json(path, obj):
    """Write obj as JSON: indent 2, sorted keys, trailing newline."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows):
    """Write a header and rows as CSV, floats as repr(float(v)).

    float() drops numpy's repr (np.float64 is a float subclass), so every
    float is written as the shortest text that reads back to the same double.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


@dataclass(frozen=True)
class ExpanderProfile:
    """Measured or asserted expansion parameters of one graph."""

    n: int
    d_ref: float
    alpha: float
    c_minus: float
    c_plus: float
    tol: float = 0.0
    source: str = "asserted"

    def __post_init__(self):
        for name in ("d_ref", "alpha", "c_minus", "c_plus", "tol"):
            value = getattr(self, name)
            if not -np.inf < value < np.inf:
                raise InputError(f"profile field {name} is not finite: {value}")
        if self.n < 1:
            raise InputError(f"profile needs n >= 1, got {self.n}")
        if not self.d_ref > 0:
            raise InputError(f"profile needs d_ref > 0, got {self.d_ref}")
        if self.alpha < 0:
            raise InputError(f"profile needs alpha >= 0, got {self.alpha}")
        if self.c_plus < self.c_minus:
            raise InputError(
                f"profile needs c_plus >= c_minus, got {self.c_minus}, {self.c_plus}"
            )
        if self.tol < 0:
            raise InputError("profile tol must be nonnegative")
        if self.source not in ("measured", "asserted"):
            raise InputError(f"profile source must be measured|asserted, got {self.source!r}")

    @classmethod
    def from_json_dict(cls, obj):
        try:
            return cls(
                n=json_number(obj, "n", int),
                d_ref=json_number(obj, "d_ref"),
                alpha=json_number(obj, "alpha"),
                c_minus=json_number(obj, "c_minus"),
                c_plus=json_number(obj, "c_plus"),
                tol=json_number(obj, "tol") if "tol" in obj else 0.0,
                source=str(obj.get("source", "asserted")),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed profile JSON: {exc}")


def _centered_adjacency_matvec(g, d_ref):
    A = g.adjacency()
    scale = d_ref / g.n

    def mv(x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return A @ x - scale * x.sum()

    return mv


def _centered_laplacian_matvec(g, d_ref):
    A = g.adjacency()
    degs = g.degrees.astype(np.float64)
    scale = d_ref / g.n

    def mv(x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return degs * x - A @ x - d_ref * x + scale * x.sum()

    return mv


def _dense_from_matvec(mv, n):
    cols = [mv(col) for col in np.eye(n)]
    return np.column_stack(cols)


def _extreme_eigenpair(mv, n, which, tol_abs, norm_bound=None):
    """One extremal eigenpair of the symmetric operator given by mv.

    which is 'LM', 'SA' or 'LA'. The result is certified by the explicit
    residual ||M v - lambda v|| <= tol_abs; failing that after escalating
    the Krylov space raises NumericalError with the best residual seen.

    ARPACK iterates to machine precision unless norm_bound, a bound on
    ||M||, is given; it then stops once its own residual estimate, at most
    tol_abs / norm_bound * |lambda|, shows tol_abs is met. Machine precision
    relative to |lambda| lies below rounding noise when |lambda| << ||M||,
    and ARPACK then runs to maxiter on a tight cluster of extreme
    eigenvalues (seen on twisted odd cycles).
    """
    if n <= _DENSE_CUTOFF:
        # exact small-matrix path assembled column by column from the
        # implicit operator; the rank-one correction is still never formed
        # at scale
        M = _dense_from_matvec(mv, n)
        vals, vecs = np.linalg.eigh(M)
        if which == "SA":
            idx = 0
        elif which == "LA":
            idx = n - 1
        else:
            idx = int(np.argmax(np.abs(vals)))
        lam, v = float(vals[idx]), vecs[:, idx]
        resid = float(np.linalg.norm(M @ v - lam * v))
        return lam, v, resid

    op = LinearOperator((n, n), matvec=mv, dtype=np.float64)
    v0 = np.random.default_rng(12345).standard_normal(n)  # fixed: reproducible runs
    tol = 0 if norm_bound is None else tol_abs / norm_bound
    best = None
    for ncv in (min(n - 1, 20), min(n - 1, 60), min(n - 1, 160)):
        try:
            vals, vecs = eigsh(op, k=1, which=which, v0=v0, ncv=ncv, maxiter=200 * n, tol=tol)
        except ArpackNoConvergence:
            continue
        lam, v = float(vals[0]), vecs[:, 0]
        resid = float(np.linalg.norm(mv(v) - lam * v))
        if best is None or resid < best[2]:
            best = (lam, v, resid)
        if resid <= tol_abs:
            return lam, v, resid
    raise NumericalError(
        f"eigensolver residual did not reach {tol_abs:.3e}"
        + (f" (best {best[2]:.3e})" if best else " (no converged run)"),
        residual=None if best is None else best[2],
    )


def _check_scale(d_ref, tol):
    # both scale the eigensolver's stopping residual, which must be a finite bound
    for name, value in (("d_ref", d_ref), ("tol", tol)):
        if not 0 < value < np.inf:
            raise InputError(f"{name} must be finite and positive, got {value}")


def centered_adjacency_alpha(g, d_ref, tol=DEFAULT_TOL):
    """alpha = ||Delta_A|| / d_ref with residual-certified accuracy tol*d_ref."""
    _check_scale(d_ref, tol)
    mv = _centered_adjacency_matvec(g, d_ref)
    lam, _, _ = _extreme_eigenpair(mv, g.n, "LM", tol * d_ref)
    return abs(lam) / d_ref


def centered_laplacian_extremes(g, d_ref, tol=DEFAULT_TOL):
    """(c_minus, c_plus): extreme eigenvalues of Delta_L divided by d_ref."""
    _check_scale(d_ref, tol)
    mv = _centered_laplacian_matvec(g, d_ref)
    lo, _, _ = _extreme_eigenpair(mv, g.n, "SA", tol * d_ref)
    hi, _, _ = _extreme_eigenpair(mv, g.n, "LA", tol * d_ref)
    return lo / d_ref, hi / d_ref


def expander_profile(g, d_ref=None, tol=DEFAULT_TOL):
    """Measure the full profile of a graph.

    d_ref defaults to the average degree 2|E|/n. Pass the model parameter
    (d for regular graphs, p*n for G(n, p)) when the generator is known;
    the report records which was used via the d_ref field itself.
    """
    if d_ref is None:
        if g.m == 0:
            raise InputError("empty graph has no average degree; pass d_ref explicitly")
        d_ref = 2.0 * g.m / g.n
    alpha = centered_adjacency_alpha(g, d_ref, tol)
    c_minus, c_plus = centered_laplacian_extremes(g, d_ref, tol)
    return ExpanderProfile(
        n=g.n, d_ref=float(d_ref), alpha=alpha, c_minus=c_minus,
        c_plus=c_plus, tol=tol, source="measured",
    )


def degree_bounds_from_profile(profile):
    """Closed-form degree interval implied by a profile:
    (1+c_minus)*d - d/n <= d_min <= d_max <= (1+c_plus)*d + 1 - d/n.
    """
    d, n = profile.d_ref, profile.n
    lo = (1.0 + profile.c_minus) * d - d / n
    hi = (1.0 + profile.c_plus) * d + 1.0 - d / n
    return lo, hi


@dataclass(frozen=True)
class MixingEntry:
    lemma: str
    X_size: int
    Y_size: int
    lower: float | None
    value: float
    upper: float | None
    slack: float


@dataclass(frozen=True)
class MixingReport:
    entries: tuple
    skipped: tuple
    passed: bool
    allowance: float
    trials: int
    seed: int

    def worst(self):
        return min((e.slack for e in self.entries), default=float("inf"))


def _candidate_battery(g):
    """Deterministic stress sets checked on every run, beyond random draws,
    as sorted int64 index arrays.

    Connected (breadth-first) balls are the sharp case for the quadratic
    internal-edge bound on sparse graphs, so they are always included. The
    balls of a source are prefixes of one search to n/2 vertices: a search
    cut off at k vertices visits exactly the first k of a longer one.
    """
    n = g.n
    degs = g.degrees
    half = max(1, n // 2)
    hub = int(np.argmax(degs))
    sets = [np.array([np.argmin(degs)]), np.array([hub])]
    if g.m:
        eu, ev = g.edge_arrays()
        sets.append(np.array([eu[0], ev[0]]))
    sets.append(np.sort(np.concatenate(([hub], g.neighbors(hub)))[:half]))
    for src in sorted({0, hub}):
        # breadth-first from src, neighbours in increasing order; the list
        # being walked is the queue
        order, seen = [src], {src}
        for x in order:
            if len(order) >= half:
                break
            new = [y for y in g.neighbors(x).tolist() if y not in seen]
            seen.update(new)
            order.extend(new)
        order = np.array(order[:half], dtype=np.int64)
        size = 4
        while size <= half:
            sets.append(np.sort(order[:size]))
            size *= 2
        if half >= 4:
            sets.append(np.sort(order))
    return sets


def _discrepancy_search(g, d_ref, x, sign, theta):
    """Hill-climb sign*(e(X,X) - (d/n)|X|^2) - theta*|X| over vertex flips;
    returns X as a sorted int64 index array.

    Each step takes the better of the best add and drop while it gains over
    1e-12, for at most 20n steps, and stops at a drop that empties X. With s[j]
    the neighbours of j in X, adding j gains sign*(2s_j - (d/n)(2|X|+1))
    - theta and dropping it sign*(-2s_j + (d/n)(2|X|-1)) + theta. The
    search keeps up = sign*s outside X and down = -sign*s in X (-inf
    elsewhere), which a flip moves by one on the flipped vertex's
    neighbours. Multiplying by sign = +-1 is exact, so the gains are
    2*up - sign*(d/n)(2|X|+1) - theta and 2*down + sign*(d/n)(2|X|-1) +
    theta to the bit; as s is integer-valued they are strictly increasing
    in up and down, so the first argmax of up (down) is the best add
    (drop). Where no flip gains, up[a] + down[b] <= sign*d_ref/n + 1e-12, so
    no swap gains (up[a] + down[b] > sign*A[a, b]) if 1e-12*n < d_ref < n.
    """
    n = g.n
    scale = d_ref / n
    inside = x > 0.5
    s = g.adjacency() @ x
    up = np.where(inside, -np.inf, sign * s)
    down = np.where(inside, -sign * s, -np.inf)
    k = int(inside.sum())

    def flip(i, src, dst):
        # i leaves the side scored by src for the one scored by dst
        dst[i], src[i] = -src[i], -np.inf
        nb = g.neighbors(i)
        src[nb] += sign
        dst[nb] -= sign

    for _ in range(20 * n):
        a, b = int(np.argmax(up)), int(np.argmax(down))
        gain_add = 2.0 * up[a] - sign * scale * (2 * k + 1) - theta
        gain_drop = 2.0 * down[b] + sign * scale * (2 * k - 1) + theta
        if gain_add >= gain_drop and gain_add > 1e-12:
            flip(a, up, down)
            k += 1
        elif k > 1 and gain_drop > 1e-12:
            flip(b, down, up)
            k -= 1
        else:
            break
    return np.flatnonzero(down > -np.inf)


def _adversarial_battery(g, d_ref, skipped):
    """Sets that stress the internal-edge bound hardest.

    Random and ball candidates sit far inside alpha*d*|X| on non-sparse
    graphs; the near-extremal sets concentrate where the extreme
    eigenvectors of Delta_A do. Threshold cuts of those eigenvectors are
    refined by a single-flip hill climb in Dinkelbach rounds on |quadratic
    form| / |X|. Deterministic given the graph; a failed solve goes to skipped.
    """
    n = g.n
    if n < 8 or g.m == 0:
        return []
    mv = _centered_adjacency_matvec(g, d_ref)
    out = []
    for which, sign in (("LA", 1.0), ("SA", -1.0)):
        try:
            _, vec, _ = _extreme_eigenpair(mv, n, which, 1e-4 * max(d_ref, 1.0))
        except NumericalError:
            skipped.add(f"adversarial_{which}")
            continue
        for v in (vec, -vec):
            order = np.argsort(-v)
            out.extend(np.sort(order[: max(1, n // frac)]) for frac in (8, 4, 2))
            x0 = np.zeros(n)
            x0[order[: max(1, n // 4)]] = 1.0
            theta = 0.0
            for _ in range(4):
                xs = _discrepancy_search(g, d_ref, x0, sign, theta)
                kk = len(xs)
                x0 = np.zeros(n)
                x0[xs] = 1.0
                qf = x0 @ mv(x0)
                theta = sign * (qf / kk)
            out.append(xs)
    return out


def check_mixing_bounds(g, profile, trials, seed):
    """Verify every applicable mixing inequality on sampled vertex sets.

    Checks, per set X (exact counts from graph-core, double-sum convention):
      internal_pairs      |e(X,X) - (d/n)|X|^2| <= alpha*d*|X|
      cut_to_complement   (1+c-)(d/n)|X||Xc| <= e(X,Xc) <= (1+c+)(d/n)|X||Xc|
      incident_edge_mass  (1+c-(1-r)-alpha)*d|X| <= e(X,V) <= (1+c+(1-r)+alpha)*d|X|,
                          r = |X|/n
    and per nested pair X within Y (Y = X plus floor(delta*|X|) outside
    vertices, |Y| <= n/2, delta = eps/(c+ - c-), eps drawn in (0, 1+c-)):
      nested_cut          (1+c- -eps)(d/n)|X||Yc| <= e(X,Yc) <= (1+c+ +eps)(d/n)|X||Yc|
      small_set_outflow   e(X,Yc) >= (1+c- -eps)/(2(1+rho)alpha) * e(X,X),
                          rho = |X|/(alpha*n) (tightest legal choice)
    Sets mix a deterministic battery (degree extremes, a neighborhood,
    breadth-first balls, and eigenvector-guided discrepancy sets that
    nearly saturate the internal-edge bound) with uniform random sets of
    size 1..n/2. Pass means every slack >= -10*tol*d_ref*n, tolerance for
    profile measurement error only. Lemmas whose hypotheses cannot be met
    here, and failed extreme eigensolves (adversarial_LA, adversarial_SA),
    are reported in skipped, never silently passed.
    """
    if not _is_integer(trials) or trials < 1:
        raise InputError(f"trials must be a positive integer, got {trials!r}")
    if profile.source != "measured":
        raise InputError("mixing check requires a measured profile")
    if profile.n != g.n:
        raise InputError("profile vertex count does not match the graph")
    n = g.n
    d = profile.d_ref
    alpha = profile.alpha
    cm, cp = profile.c_minus, profile.c_plus
    allowance = 10.0 * profile.tol * d * n
    degs = g.degrees
    rng = np.random.default_rng(seed)
    entries = []
    skipped = set()

    def record(lemma, xs, ys_size, lower, value, upper):
        slacks = []
        if lower is not None:
            slacks.append(value - lower)
        if upper is not None:
            slacks.append(upper - value)
        entries.append(
            MixingEntry(
                lemma=lemma, X_size=len(xs), Y_size=ys_size,
                lower=lower, value=float(value), upper=upper,
                slack=float(min(slacks)),
            )
        )

    def check_single(xs):
        # cuts are counted from degrees: e(X, V-X) = sum of deg x over X - e(X, X)
        k = len(xs)
        exx = edges_between(g, xs, xs)
        inc = int(degs[xs].sum())
        mean = (d / n) * k * k
        record("internal_pairs", xs, k, mean - alpha * d * k, exx, mean + alpha * d * k)
        if k < n:
            base = (d / n) * k * (n - k)
            record("cut_to_complement", xs, n - k,
                   (1.0 + cm) * base, inc - exx, (1.0 + cp) * base)
        dens = k / n
        record("incident_edge_mass", xs, n,
               (1.0 + cm * (1.0 - dens) - alpha) * d * k, inc,
               (1.0 + cp * (1.0 - dens) + alpha) * d * k)
        return exx, inc

    def check_pair(xs, exx, inc):
        if 1.0 + cm <= 0 or cp - cm <= 0:
            skipped.update({"nested_cut", "small_set_outflow"})
            return
        k = len(xs)
        if k > n // 2:
            return
        eps = float(rng.uniform(0.05, 0.95)) * (1.0 + cm)
        delta = eps / (cp - cm)
        # |Y| <= n/2, so V-Y is never empty
        extra = min(int(delta * k), n // 2 - k)
        ys = xs
        if extra > 0:
            # the sorted complement of X, as np.setdiff1d gives it
            outside = np.ones(n, dtype=bool)
            outside[xs] = False
            extras = rng.choice(np.flatnonzero(outside), size=extra, replace=False)
            ys = np.concatenate([xs, extras])
        # e(X, V-Y) = sum of deg x over X - e(X, Y)
        cut = inc - edges_between(g, xs, ys)
        base = (d / n) * k * (n - len(ys))
        record("nested_cut", xs, len(ys),
               (1.0 + cm - eps) * base, cut, (1.0 + cp + eps) * base)
        if alpha > 0:
            rho = k / (alpha * n)
            record("small_set_outflow", xs, len(ys),
                   (1.0 + cm - eps) / (2.0 * (1.0 + rho) * alpha) * exx, cut, None)
        else:
            skipped.add("small_set_outflow")

    for xs in _candidate_battery(g) + _adversarial_battery(g, d, skipped):
        check_single(xs)
    for _ in range(trials):
        size = int(rng.integers(1, max(2, n // 2 + 1)))
        xs = np.sort(rng.choice(n, size=size, replace=False))
        check_pair(xs, *check_single(xs))

    passed = all(e.slack >= -allowance for e in entries)
    return MixingReport(
        entries=tuple(entries), skipped=tuple(sorted(skipped)), passed=passed,
        allowance=allowance, trials=int(trials),
        seed=int(seed) if _is_integer(seed) else seed,
    )
