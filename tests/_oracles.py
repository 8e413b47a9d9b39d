"""Independent oracles the tests check library results against.

Everything here recomputes quantities by a route the library does not take:
dense eigendecompositions built straight from edge arrays, central finite
differences, brute-force double loops in pure python, sign-scan root
finding on fine grids, and extended-precision binomial sums. The
``*_reference`` functions are instead frozen copies of earlier library
code, which faster or merged versions must reproduce bit for bit.
"""

import csv
import math
from collections import deque
from types import SimpleNamespace

import numpy as np

from kurasync import (
    AmplificationTrace,
    DomainError,
    GenerationError,
    InputError,
    ScheduleError,
    SmallArcStep,
    TailStep,
    order_param_bounds,
    theorem_condition,
)
from kurasync.certify import TraceRow


def canonical_graph_arrays(n, edges):
    """(eu, ev, indptr, indices) as lists, by python sets and sorting.

    Pairs are oriented u < v, deduplicated in a set and sorted; each
    vertex's neighbor list is built and sorted on its own.
    """
    pairs = set()
    for u, v in edges:
        u, v = int(u), int(v)
        pairs.add((u, v) if u < v else (v, u))
    ordered = sorted(pairs)
    neighbors = [[] for _ in range(n)]
    for u, v in ordered:
        neighbors[u].append(v)
        neighbors[v].append(u)
    indptr, indices = [0], []
    for row in neighbors:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    return [u for u, _ in ordered], [v for _, v in ordered], indptr, indices


def pairing_reference(n, d, seed, max_restarts=10000):
    """Pairing-model sampler matching stubs one pair at a time in python.

    The sequential loop the library's round-at-a-time sampler must reproduce:
    for equal (n, d, seed, max_restarts) it consumes the same random stream
    and returns the same graph, as canonical_graph_arrays lists, or raises
    the same GenerationError.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_restarts):
        pending = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(pending)
        present = set()
        while len(pending):
            leftover = []
            progressed = False
            for i in range(0, len(pending) - 1, 2):
                a, b = int(pending[i]), int(pending[i + 1])
                key = (a, b) if a < b else (b, a)
                if a == b or key in present:
                    leftover.append(a)
                    leftover.append(b)
                else:
                    present.add(key)
                    progressed = True
            if len(pending) % 2:
                leftover.append(int(pending[-1]))
            if leftover and not progressed:
                break  # stuck: remaining stubs admit no legal pair
            pending = np.array(leftover, dtype=np.int64)
            rng.shuffle(pending)
        else:
            return canonical_graph_arrays(n, present)
    raise GenerationError(
        f"no simple {d}-regular pairing on {n} vertices in {max_restarts} restarts"
    )


def dense_adjacency(g):
    A = np.zeros((g.n, g.n))
    eu, ev = g.edge_arrays()
    A[eu, ev] = 1.0
    A[ev, eu] = 1.0
    return A


def dense_alpha(g, d_ref):
    """||A - (d/n)J|| / d via full eigendecomposition (n <= 600)."""
    M = dense_adjacency(g) - (d_ref / g.n) * np.ones((g.n, g.n))
    w = np.linalg.eigvalsh(M)
    return max(abs(w[0]), abs(w[-1])) / d_ref


def dense_laplacian_extremes(g, d_ref):
    A = dense_adjacency(g)
    M = np.diag(A.sum(axis=1)) - A - d_ref * np.eye(g.n) \
        + (d_ref / g.n) * np.ones((g.n, g.n))
    w = np.linalg.eigvalsh(M)
    return w[0] / d_ref, w[-1] / d_ref


def dense_hessian(g, theta):
    """Kuramoto energy Hessian scattered entry by entry from the edge list."""
    H = np.zeros((g.n, g.n))
    eu, ev = g.edge_arrays()
    c = np.cos(theta[eu] - theta[ev])
    np.add.at(H, (eu, ev), -c)
    np.add.at(H, (ev, eu), -c)
    np.add.at(H, (eu, eu), c)
    np.add.at(H, (ev, ev), c)
    return H


def dense_min_eig_orthogonal(H):
    """Smallest eigenvalue of H on the complement of the all-ones vector.

    Restricts H to an orthonormal basis of that complement, taken from a QR
    factorization, and runs a full eigvalsh.
    """
    n = H.shape[0]
    if n == 1:
        return 0.0
    basis = np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]])
    q, _ = np.linalg.qr(basis)
    B = q[:, 1:]
    return float(np.linalg.eigvalsh(B.T @ H @ B)[0])


def edge_list_text(g):
    """The edge-list file format, one f-string per line."""
    eu, ev = g.edge_arrays()
    lines = [f"{g.n} {g.m}\n"]
    for u, v in zip(eu, ev):
        lines.append(f"{u} {v}\n")
    return "".join(lines)


def bf_energy(g, theta):
    eu, ev = g.edge_arrays()
    return sum(1.0 - math.cos(theta[u] - theta[v]) for u, v in zip(eu, ev))


def bf_edges_between(g, xs, ys):
    """Exact double-sum count, pure python over the edge list."""
    xset = {int(x) for x in xs}
    yset = {int(y) for y in ys}
    total = 0
    for u, v in zip(*g.edge_arrays()):
        u, v = int(u), int(v)
        if u in xset and v in yset:
            total += 1
        if v in xset and u in yset:
            total += 1
    return total


def fd_gradient(func, theta, h=1e-5):
    out = np.zeros(len(theta))
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (func(up) - func(dn)) / (2.0 * h)
    return out


def fd_jacobian(vec_func, theta, h=1e-5):
    n = len(theta)
    out = np.zeros((n, n))
    for i in range(n):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[:, i] = (vec_func(up) - vec_func(dn)) / (2.0 * h)
    return out


def sign_scan_roots(func, lo, hi, points):
    xs = np.linspace(lo, hi, points)
    vals = func(xs)
    s = np.signbit(vals)
    idx = np.flatnonzero(s[:-1] != s[1:])
    return [float(xs[i] + xs[i + 1]) / 2.0 for i in idx]


def exact_binom_ratio(n, p, k, side):
    """Tail/point ratio for Bin(n-1, p) summed at 60 significant digits."""
    from mpmath import binomial, mp, mpf

    with mp.workdps(60):
        pp, qq = mpf(p), 1 - mpf(p)

        def pmf(j):
            return binomial(n - 1, j) * pp ** j * qq ** (n - 1 - j)

        point = pmf(k)
        js = range(0, k + 1) if side == "below" else range(k, n)
        return float(sum(pmf(j) for j in js) / point)


def er_degree_sequence(n, p, seed):
    """Degree sequence of G(n, p) without building the graph.

    Consumes the uniform stream in the same row-major pair order as the
    generator, so for equal (n, p, seed) it reproduces the generator's
    degrees exactly (asserted in tests).
    """
    rng = np.random.default_rng(seed)
    counts = np.arange(n - 1, 0, -1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    mask = rng.random(int(offsets[-1])) < p
    deg = np.concatenate([np.add.reduceat(mask, offsets[:-1]), [0]]).astype(np.int64)
    flat = np.flatnonzero(mask)
    rows = np.searchsorted(offsets, flat, side="right") - 1
    deg += np.bincount(flat - offsets[rows] + rows + 1, minlength=n)
    return deg


def er_edges_reference(n, p, seed):
    """Edge arrays (u, v) of G(n, p) from one draw of all C(n, 2) uniforms.

    np.triu_indices lists the pairs row-major, the order the generator
    walks them, and a pair is an edge where its uniform is below p. The
    generator, which draws the same stream block by block, must return
    these arrays exactly.
    """
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return iu[keep], iv[keep]


def centered_norm_floor(g, d_ref, iters=24, seed=0):
    """Lower estimate of ||A - (d/n)J|| by fixed-iteration power method.

    Iterates the squared operator so the two spectral edges cannot cancel.
    Always a floor: Rayleigh quotients never exceed the true norm.
    """
    A = g.adjacency()
    scale = d_ref / g.n

    def mv(x):
        return A @ x - scale * x.sum()

    x = np.random.default_rng(seed).standard_normal(g.n)
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = mv(mv(x))
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
    return math.sqrt(np.linalg.norm(mv(mv(x))))


def _bfs_ball_reference(g, src, size):
    seen = {int(src)}
    order = [int(src)]
    q = deque([int(src)])
    while q and len(order) < size:
        x = q.popleft()
        for y in g.neighbors(x):
            y = int(y)
            if y not in seen:
                seen.add(y)
                order.append(y)
                q.append(y)
                if len(order) >= size:
                    break
    return order[:size]


def candidate_battery_reference(g):
    """The mixing check's deterministic stress sets, as unsorted lists.

    Frozen copy of the battery that ran one breadth-first search per ball;
    the library's battery must give the same sets in the same order.
    """
    n = g.n
    degs = g.degrees
    half = max(1, n // 2)
    sets = [[int(np.argmin(degs))], [int(np.argmax(degs))]]
    if g.m:
        eu, ev = g.edge_arrays()
        sets.append([int(eu[0]), int(ev[0])])
    hub = int(np.argmax(degs))
    nbhd = [hub] + [int(y) for y in g.neighbors(hub)]
    sets.append(nbhd[:half] if len(nbhd) > half else nbhd)
    for src in {0, hub}:
        size = 4
        while size <= half:
            sets.append(_bfs_ball_reference(g, src, size))
            size *= 2
        if half >= 4:
            sets.append(_bfs_ball_reference(g, src, half))
    return [s for s in sets if s]


def discrepancy_search_reference(g, d_ref, x, sign, theta):
    """Frozen copy of the mixing check's flip search, which rebuilt both
    gain arrays at every step and chose swaps by a second selection.

    The library's search must return the same vertex set for every start.
    """
    A = g.adjacency()
    n = g.n
    scale = d_ref / n
    x = x.astype(np.float64).copy()
    s = A @ x
    k = int(round(x.sum()))
    for _ in range(20 * n):
        gain_add = sign * (2.0 * s - scale * (2 * k + 1)) - theta
        gain_add[x > 0.5] = -np.inf
        gain_drop = sign * (-2.0 * s + scale * (2 * k - 1)) + theta
        gain_drop[x < 0.5] = -np.inf
        ia, idr = int(np.argmax(gain_add)), int(np.argmax(gain_drop))
        if gain_add[ia] >= gain_drop[idr] and gain_add[ia] > 1e-12:
            x[ia] = 1.0
            s[g.neighbors(ia)] += 1.0
            k += 1
            continue
        if k > 1 and gain_drop[idr] > 1e-12:
            x[idr] = 0.0
            s[g.neighbors(idr)] -= 1.0
            k -= 1
            continue
        into = np.where(x > 0.5, -np.inf, sign * 2.0 * s)
        outof = np.where(x > 0.5, sign * 2.0 * s, np.inf)
        a, b = int(np.argmax(into)), int(np.argmin(outof))
        if k >= 2 and np.isfinite(into[a]) and np.isfinite(outof[b]) \
                and into[a] - outof[b] - 2.0 * sign * A[a, b] > 1e-12:
            x[a] = 1.0
            s[g.neighbors(a)] += 1.0
            x[b] = 0.0
            s[g.neighbors(b)] -= 1.0
            continue
        break
    return np.flatnonzero(x > 0.5)


def _ref_wrap_phases(theta):
    w = np.mod(np.asarray(theta, dtype=np.float64), 2.0 * np.pi)
    return np.where(w > np.pi, w - 2.0 * np.pi, w)


def _ref_check_state(g, theta):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (g.n,):
        raise InputError(f"state has shape {theta.shape}, graph has n={g.n}")
    return theta


def _ref_energy(g, theta):
    theta = _ref_check_state(g, theta)
    eu, ev = g.edge_arrays()
    if len(eu) == 0:
        return 0.0
    half = 0.5 * (theta[eu] - theta[ev])
    return float(2.0 * np.sum(np.sin(half) ** 2))


def _ref_gradient(g, theta):
    theta = _ref_check_state(g, theta)
    z = np.exp(1j * theta)
    az = g.adjacency() @ z
    return np.imag(z * np.conj(az))


def _ref_daido(theta, k=1):
    theta = np.asarray(theta, dtype=np.float64)
    return complex(np.mean(np.exp(1j * k * theta)))


def flow_reference(g, theta0, grad_tol=1e-10, step_cap=10 ** 6, dt_init=None):
    """The adaptive Euler flow as it stood before its per-step rework.

    A frozen copy of the library's earlier flow, energy, gradient,
    wrap_phases and daido bodies, which evaluated exp(i*theta) twice per
    accepted state (once for the gradient, once for rho_1). The library's
    flow must return bitwise the same fields; this copy must not follow
    later library changes. Returns a SimpleNamespace with FlowResult's fields.
    """
    theta = _ref_wrap_phases(_ref_check_state(g, theta0))
    d_max = int(g.degrees.max()) if g.n else 0
    if d_max == 0:
        grad = _ref_gradient(g, theta)
        gn = float(np.max(np.abs(grad))) if g.n else 0.0
        return SimpleNamespace(
            final=theta, steps=0, terminated="converged",
            times=np.array([0.0]), energies=np.array([_ref_energy(g, theta)]),
            grad_norms=np.array([gn]), rho1s=np.array([abs(_ref_daido(theta))]),
        )
    dt_cap = 1.0 / (2.0 * d_max)
    dt = dt_init if dt_init is not None else 1.0 / (4.0 * d_max)
    dt = min(dt, dt_cap)
    t = 0.0
    ene = _ref_energy(g, theta)
    grad = _ref_gradient(g, theta)
    gn = float(np.max(np.abs(grad)))
    times, energies, grad_norms, rho1s = [t], [ene], [gn], [abs(_ref_daido(theta))]
    steps = 0
    terminated = "converged"
    while gn >= grad_tol:
        if steps >= step_cap:
            terminated = "step_cap"
            break
        trial = _ref_wrap_phases(theta - dt * grad)
        ene_trial = _ref_energy(g, trial)
        if ene_trial <= ene:
            if np.array_equal(trial, theta):
                # dt * grad underflowed every phase ulp: float64 cannot
                # resolve further descent (happens near minima with E > 0)
                terminated = "stalled"
                break
            theta = trial
            ene = ene_trial
            t += dt
            steps += 1
            grad = _ref_gradient(g, theta)
            gn = float(np.max(np.abs(grad)))
            times.append(t)
            energies.append(ene)
            grad_norms.append(gn)
            rho1s.append(abs(_ref_daido(theta)))
            dt = min(dt * 1.2, dt_cap)
        else:
            dt *= 0.5
            if dt < 1e-18:
                terminated = "stalled"
                break
    return SimpleNamespace(
        final=theta, steps=steps, terminated=terminated,
        times=np.asarray(times), energies=np.asarray(energies),
        grad_norms=np.asarray(grad_norms), rho1s=np.asarray(rho1s),
    )


# Frozen copies of the four CSV writers as they stood before all CSV went
# through spectral.write_csv: the flow.csv and trace.csv writers (then
# methods of FlowResult and AmplificationTrace), simulate's runs.csv block
# and the sweeps' writer. Every CSV sidecar the CLI writes must match them
# byte for byte.

def flow_csv_reference(path, res):
    """flow.csv from a FlowResult; its fields hold np.float64 values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "energy", "grad_norm", "rho1"])
        for row in zip(res.times, res.energies, res.grad_norms, res.rho1s):
            w.writerow([repr(float(v)) for v in row])


def trace_csv_reference(path, trace):
    """trace.csv from an AmplificationTrace."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "beta_k", "mass_frac", "step_kind"])
        for r in trace.rows:
            w.writerow([r.k, repr(r.beta), repr(r.mass_frac), r.step_kind])


def runs_csv_reference(path, rows):
    """runs.csv from simulate's report rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        cols = list(rows[0].keys())
        w.writerow(cols)
        for r in rows:
            w.writerow([r[c] for c in cols])


def sweep_csv_reference(path, header, rows):
    """sweep.csv from a header and row tuples."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


# Frozen copy of the amplification engine as it stood while two trace
# constructors and a regular_mode knob were in place. The library engine,
# which builds every trace in one place and detects the budget recursion
# from the profile, must match it field for field and error for error.

def _ref_fail_trace(rows, rhs, mode, alpha, reason):
    return AmplificationTrace(
        rows=tuple(rows), verdict="fail", final_check_lhs=0.0,
        final_check_rhs=rhs, mode=mode, alpha=alpha, reason=reason,
    )


def _ref_final_trace(rows, lhs, budget, mode, alpha):
    passed = lhs > budget
    return AmplificationTrace(
        rows=tuple(rows), verdict="pass" if passed else "fail", final_check_lhs=lhs,
        final_check_rhs=budget, mode=mode, alpha=alpha,
        reason="" if passed else
        f"certified mass {lhs:.6g} does not exceed the budget {budget:.6g}",
    )


def _ref_spend(x, paper_proof):
    if paper_proof:
        return 0.5 * math.pi * x
    return math.asin(x)


def _ref_tail_spend(x, delta, paper_proof):
    if x == 0.0:
        return 0.0
    if paper_proof:
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


def _ref_schedule_run(profile, schedule, mode, budget):
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    paper_proof = mode == "paper_proof"
    gate = (1.0 + cp + alpha) / (2.0 * alpha) if alpha > 0.0 else math.inf
    beta = 0.5 * math.pi
    ratio = 1.0
    rows = [TraceRow(0, beta, 1.0, 0.0, "start", "none", "ok")]
    cap_candidates = []
    saw_small_arc = False
    main_lhs = None

    def fail(i, at_beta, step, status, reason):
        rows.append(TraceRow(i, at_beta, ratio, 0.0, step.kind, "none", status))
        return _ref_fail_trace(rows, budget, mode, alpha, f"step {i}: {reason}")

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
            return fail(i, beta, step, "infeasible", f"required sine {x:.4f} exceeds 1")
        beta_new = beta - (_ref_tail_spend(x, delta, paper_proof) if tail
                           else _ref_spend(x, paper_proof))
        if beta_new < 0.0:
            return fail(i, beta_new, step, "below_zero",
                        "angle budget exhausted" + (" in the tail" if tail else ""))
        beta = beta_new
        if tail:
            main_lhs = 0.5 * math.sin(beta) ** 2
            rows.append(TraceRow(i, beta, ratio, 0.5, step.kind, "half_n", "ok"))
            continue
        ratio = ratio * (1.0 + delta) if math.isfinite(delta) else math.inf
        if small_arc:
            cap_candidates.append(step.rho * alpha * math.sin(beta) ** 2)
            saw_small_arc = True
        rows.append(TraceRow(i, beta, ratio, 0.0, step.kind,
                             "alpha_n" if small_arc else "none", "ok"))
    if main_lhs is None:
        return _ref_fail_trace(rows, budget, mode, alpha,
                               "schedule has no tail step, so no absolute mass bound exists")
    return _ref_final_trace(rows, min([main_lhs] + cap_candidates), budget, mode, alpha)


def _ref_auto_proof_run(profile, budget):
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    mode = "paper_proof"
    cond = theorem_condition(profile)
    rows = [TraceRow(0, 0.5 * math.pi, 1.0, 0.0, "start", "none", "ok")]
    if alpha > 0.2:
        return _ref_fail_trace(rows, budget, mode, alpha, f"alpha={alpha} exceeds the 1/5 gate")
    if alpha == 0.0:
        return _ref_fail_trace(rows, budget, mode, alpha,
                               "alpha = 0 leaves no strict margin over the zero budget")
    c1, c2 = cond.condition1, cond.condition2
    stage1_frac = max(16.0 * alpha / (1.0 + cm), c2)
    if c1 >= 1.0 or stage1_frac >= 1.0:
        return _ref_fail_trace(
            rows, budget, mode, alpha,
            f"closed-form condition fails (condition1={c1:.4f}, stage1 fraction={stage1_frac:.4f})",
        )
    gate = (1.0 + cp + alpha) / (2.0 * alpha)
    beta_mid = 0.5 * math.pi - 0.25 * math.pi * stage1_frac
    beta_final = beta_mid - (math.pi / 16.0) * c1
    branch_lhs = alpha * math.sin(beta_mid) ** 2
    main_lhs = 0.5 * math.sin(beta_final) ** 2
    rows.append(TraceRow(1, beta_mid, gate, 0.0, "stage1", "alpha_n", "ok"))
    rows.append(TraceRow(2, beta_final, gate, 0.5, "tail", "half_n", "ok"))
    return _ref_final_trace(rows, min(branch_lhs, main_lhs), budget, mode, alpha)


def amplification_reference(profile, schedule=None, mode="numeric", regular_mode=None):
    """The amplification trace of profile under schedule, or the error it raises."""
    if mode not in ("numeric", "paper_proof"):
        raise InputError(f"mode must be 'numeric' or 'paper_proof', got {mode!r}")
    if schedule is None and mode != "paper_proof":
        raise InputError("numeric mode needs an explicit schedule")
    alpha, cm, cp = profile.alpha, profile.c_minus, profile.c_plus
    if regular_mode is None:
        regular_mode = alpha > 0.0 and cm == -alpha and cp == alpha
    start_row = TraceRow(0, 0.5 * math.pi, 1.0, 0.0, "start", "none", "ok")
    if cm <= -1.0:
        return _ref_fail_trace([start_row], math.inf, mode, alpha,
                               "spectral window reaches -1: the graph may be disconnected")
    try:
        budget = order_param_bounds(alpha, regular_mode=regular_mode).s_budget
    except DomainError as exc:
        return _ref_fail_trace([start_row], math.inf, mode, alpha, str(exc))
    if schedule is None:
        return _ref_auto_proof_run(profile, budget)
    return _ref_schedule_run(profile, schedule, mode, budget)
