"""The homogeneous Kuramoto model on a graph: energy landscape and flow.

Phases live in (-pi, pi] with pi kept at the branch point. The energy is
E(theta) = (1/2) * sum_{x,y} A[x,y] (1 - cos(theta_x - theta_y)), evaluated
per edge as 2 sin^2(delta/2) because the textbook form loses the monotone
descent property to cancellation once the flow is nearly converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InputError
from .graphs import _is_integer
from .spectral import _extreme_eigenpair

__all__ = [
    "wrap_phases",
    "random_phases",
    "energy",
    "gradient",
    "hessian",
    "daido",
    "flow",
    "flow_batch",
    "classify_equilibrium",
    "FlowResult",
    "FlowBatch",
    "EquilibriumReport",
]

GRAD_TOL = 1e-10
STEP_CAP = 10 ** 6

# classification of states with at least this many vertices runs the sparse
# eigensolver, smaller ones a dense eigvalsh. Per call on a 2-core VM, for
# G(n, 10/n): n=200 dense 2.6 ms, sparse 3.0 ms; n=300 dense 6.9 ms, sparse
# 4.1 ms; n=1000 dense 94 ms, sparse 8 ms. A twisted cycle, whose clustered
# low spectrum is the slow case for Lanczos, takes 18 ms sparse at n=300 and
# 0.16 s at n=1000, against 17 ms and 0.24 s for a dense QR restriction
_SPARSE_MIN_N = 300

# numpy evaluates z * np.conj(w) in place in the temporary, operands
# swapped, once that temporary holds 256 KiB (16384 complex values), and a
# complex product is not bitwise commutative. One state's gradient swaps
# from this n on; a block must swap per row length, never per block size
_ELIDE_N = (256 * 1024) // 16

# element budget of one flow_batch block: a row holds O(n + m) floats (its
# state, gradient and per-edge energy terms), so a block of
# _FLOW_BLOCK // (n + m) rows holds a few MiB whatever the run count
_FLOW_BLOCK = 1 << 16


def wrap_phases(theta):
    """Normalize phases into (-pi, pi], choosing pi at the branch point."""
    # asarray keeps a 0-d array for scalar input, which np.mod turns into a
    # numpy scalar that cannot be written in place
    w = np.asarray(np.mod(np.asarray(theta, dtype=np.float64), 2.0 * np.pi))
    np.subtract(w, 2.0 * np.pi, out=w, where=w > np.pi)
    return w


def random_phases(n, seed):
    """Uniform i.i.d. phases, one per vertex."""
    rng = np.random.default_rng(seed)
    return wrap_phases(rng.uniform(-np.pi, np.pi, size=n))


def _check_state(g, theta):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (g.n,):
        raise InputError(f"state has shape {theta.shape}, graph has n={g.n}")
    return theta


def _check_grad_tol(grad_tol):
    if not 0.0 < grad_tol < np.inf:
        raise InputError(f"grad_tol must be finite and positive, got {grad_tol}")


def _check_block(g, thetas):
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != g.n:
        raise InputError(f"state block has shape {thetas.shape}, graph has n={g.n}")
    return thetas


def energy(g, theta):
    """E of one state, or an array of one E per row of an (R, n) block.

    Each row's edge terms are gathered C-contiguously, so its sum is bit
    for bit the sum of that state alone; the terms of a Fortran-ordered
    gather (``theta[:, eu]``) are summed in another order.
    """
    theta = np.asarray(theta, dtype=np.float64)
    block = _check_block(g, theta) if theta.ndim == 2 else _check_state(g, theta)[None]
    eu, ev = g.edge_arrays()
    half = block.take(eu, axis=1)
    half -= block.take(ev, axis=1)
    half *= 0.5
    np.sin(half, out=half)
    np.square(half, out=half)
    energies = 2.0 * half.sum(axis=1)
    return energies if theta.ndim == 2 else float(energies[0])


def _gradients(A, theta):
    """(gradients, |rho_1| per row) of an (R, n) block from one exp(i*theta).

    Every row is bit for bit what the one-state expressions
    imag(z * conj(A @ z)) and abs(complex(z.sum() / n)) give. So the complex
    product runs on C-contiguous rows, in the operand order that expression
    multiplies in (see _ELIDE_N), and |rho_1| is hypot of the mean's parts,
    as abs(complex) computes it (np.abs of a complex array can differ in
    the last ulp). The mean is the sum over n, bitwise what daido gives.
    """
    z = np.exp(1j * theta)
    az = np.ascontiguousarray((A @ z.T).T)
    np.conj(az, out=az)
    if theta.shape[1] >= _ELIDE_N:
        prod = np.multiply(az, z, out=az)
    else:
        prod = np.multiply(z, az)
    rho = z.sum(axis=1) / theta.shape[1]
    return np.imag(prod), np.hypot(rho.real, rho.imag)


def gradient(g, theta):
    """Component x: sum_z A[x,z] sin(theta_x - theta_z)."""
    return _gradients(g.adjacency(), _check_state(g, theta)[None])[0][0]


def _hessian_parts(g, theta):
    """(diag, W) with Hessian = diag(diag) - W.

    The Hessian is the Laplacian of the graph with signed edge weights
    cos(theta_u - theta_v); W holds them as CSR over both orientations, on
    the adjacency's own index arrays. The cosine takes |theta_u - theta_v|
    so both orientations of an edge carry bitwise the same weight.
    """
    A = g.adjacency()
    rows = np.repeat(np.arange(g.n), g.degrees)
    w = np.cos(np.abs(theta[rows] - theta[A.indices]))
    W = csr_matrix((w, A.indices, A.indptr), shape=A.shape)
    return np.bincount(rows, weights=w, minlength=g.n), W


def _dense_hessian(diag, W):
    H = -W.toarray()
    np.fill_diagonal(H, diag)
    return H


def hessian(g, theta):
    """Dense Hessian; rows sum to zero (global rotation symmetry)."""
    theta = _check_state(g, theta)
    return _dense_hessian(*_hessian_parts(g, theta))


def daido(theta, k=1):
    """Order parameter rho_k = (1/n) sum_x exp(i k theta_x)."""
    if not _is_integer(k) or k < 1:
        raise InputError(f"order parameter index must be a positive integer, got {k!r}")
    theta = np.asarray(theta, dtype=np.float64)
    return complex(np.mean(np.exp(1j * k * theta)))


@dataclass
class FlowResult:
    final: np.ndarray
    steps: int
    terminated: str  # converged | step_cap | stalled
    times: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    rho1s: np.ndarray


@dataclass
class FlowBatch:
    """The final fields of each run of flow_batch; row i started at thetas[i]."""
    final: np.ndarray  # (R, n)
    steps: np.ndarray  # int64
    terminated: np.ndarray  # str: converged | step_cap | stalled
    energy: np.ndarray
    grad_norm: np.ndarray
    rho1: np.ndarray


_EXITS = np.array(["converged", "step_cap", "stalled"])


def _integrate(g, theta, grad_tol, step_cap, out, first, path=None):
    """Flow each row of the (R, n) block theta; write its finals to row
    first + i of out.

    The rows share every array operation but nothing else: each keeps its
    own dt, accept/reject decision, t, steps and exit, and leaves the
    block when it exits. path, when given, collects (t, energy, grad_norm,
    rho1) of row 0's start and of each state it accepts; flow passes it
    with a block of one row.
    """
    theta = wrap_phases(theta)
    A = g.adjacency()
    grad, rho1 = _gradients(A, theta)
    gn = np.abs(grad).max(axis=1)
    ene = energy(g, theta)
    rows = np.arange(first, first + len(theta))
    t = np.zeros(len(theta))
    steps = np.zeros(len(theta), dtype=np.int64)
    # an edgeless graph has zero gradient, so no row takes a step
    dt_cap = 1.0 / (2.0 * max(int(g.degrees.max()), 1))
    dt = np.full(len(theta), 0.5 * dt_cap)
    stalled = np.zeros(len(theta), dtype=bool)
    if path is not None:
        path.append((t[0], ene[0], gn[0], rho1[0]))
    while len(rows):
        live = (gn >= grad_tol) & (steps < step_cap) & ~stalled
        if not live.all():
            # a row tests its exits in this order before each trial; a NaN
            # gradient norm ends it as converged
            why = np.where(~(gn >= grad_tol), 0, np.where(stalled, 2, 1))
            gone = ~live
            at = rows[gone]
            out.final[at] = theta[gone]
            out.steps[at] = steps[gone]
            out.terminated[at] = _EXITS[why[gone]]
            out.energy[at] = ene[gone]
            out.grad_norm[at] = gn[gone]
            out.rho1[at] = rho1[gone]
            rows, theta, grad, rho1, gn, ene, t, steps, dt = (
                x[live] for x in (rows, theta, grad, rho1, gn, ene, t, steps, dt))
            if not len(rows):
                break
        trial = wrap_phases(theta - dt[:, None] * grad)
        ene_trial = energy(g, trial)
        ok = ene_trial <= ene
        # dt * grad underflowed every phase ulp: float64 cannot resolve
        # further descent (happens near minima with E > 0)
        stalled = ok & (trial == theta).all(axis=1)
        if not ok.all():
            dt[~ok] *= 0.5
            stalled |= ~ok & (dt < 1e-18)
        accept = ok & ~stalled
        if accept.any():
            np.copyto(theta, trial, where=accept[:, None])
            np.copyto(ene, ene_trial, where=accept)
            np.add(t, dt, out=t, where=accept)
            steps += accept
            np.minimum(dt * 1.2, dt_cap, out=dt, where=accept)
            at = slice(None) if accept.all() else np.flatnonzero(accept)
            grad[at], rho1[at] = _gradients(A, theta[at])
            gn[at] = np.abs(grad[at]).max(axis=1)
            if path is not None and accept[0]:
                path.append((t[0], ene[0], gn[0], rho1[0]))


def _flow_rows(g, thetas, grad_tol, step_cap, path=None):
    """flow_batch's finals of a checked (R, n) block, one memory-bounded
    block of rows after another; path goes to _integrate."""
    _check_grad_tol(grad_tol)
    if not _is_integer(step_cap) or step_cap < 0:
        raise InputError(f"step_cap must be a non-negative integer, got {step_cap!r}")
    r = len(thetas)
    out = FlowBatch(np.empty_like(thetas), np.zeros(r, dtype=np.int64),
                    np.empty(r, dtype=_EXITS.dtype), np.empty(r), np.empty(r), np.empty(r))
    size = max(1, _FLOW_BLOCK // (g.n + g.m))
    for first in range(0, r, size):
        _integrate(g, thetas[first:first + size], grad_tol, step_cap, out, first, path)
    return out


def flow_batch(g, thetas, grad_tol=GRAD_TOL, step_cap=STEP_CAP):
    """flow from each row of the (R, n) block thetas, all rows at once.

    Row i of the result holds bitwise the final fields of flow(g,
    thetas[i]): its final state, steps, exit, energy, gradient norm and
    rho_1. No trajectory is kept (flow keeps its one row's). The rows are
    integrated as one array: each trial is one energy call for the block,
    and each step one exp(i*theta), one sparse product A @ Z and one
    reduction per field for the rows that accepted it. The bits survive
    because each reduction runs over one C-contiguous row: the energy's
    edge terms are gathered with take (a Fortran-ordered theta[:, eu] sums
    in another order), rho_1 is hypot of the row mean's parts (np.abs of
    a complex array can miss abs(complex) by an ulp), and the gradient's
    complex product keeps the one-state operand order (see _ELIDE_N).
    At most _FLOW_BLOCK // (n + m) rows (at least one) are integrated
    together, so a run count never multiplies the O(m) memory of one
    flow's energy terms. The caller's thetas are never modified.
    """
    return _flow_rows(g, _check_block(g, thetas), grad_tol, step_cap)


def flow(g, theta0, grad_tol=GRAD_TOL, step_cap=STEP_CAP):
    """Integrate d(theta)/dt = -grad E with adaptive explicit Euler.

    A step is accepted only if the energy does not increase; the step size
    starts at 1/(4*d_max), halves on rejection, grows by 1.2 on acceptance,
    and never exceeds 1/(2*d_max), the stability ceiling of the explicit
    scheme. Terminates converged when the sup norm of the gradient drops
    below grad_tol, step_cap after that many accepted steps, or stalled if
    the step underflows (no representable phase change can lower the
    energy; this is the generic exit near minima with positive energy,
    where the descent per step falls below the energy ulp before grad_tol
    is met).

    This is flow_batch's integrator on a block of one row, the only row
    whose trajectory it records. Each trial state costs one energy call;
    each accepted state adds one exp(i*theta) and one sparse product,
    which give both its gradient and its rho_1. The caller's theta0 is
    never modified. Every field of the result is bit-identical to the
    earlier flow kept in the tests as flow_reference, which evaluated
    exp(i*theta) twice per accepted state and ran one state at a time.
    """
    path = []
    out = _flow_rows(g, _check_state(g, theta0)[None], grad_tol, step_cap, path)
    times, energies, grad_norms, rho1s = (np.asarray(col) for col in zip(*path))
    return FlowResult(
        final=out.final[0], steps=int(out.steps[0]), terminated=str(out.terminated[0]),
        times=times, energies=energies, grad_norms=grad_norms, rho1s=rho1s,
    )


@dataclass(frozen=True)
class EquilibriumReport:
    classification: str  # not_equilibrium | stable | strict_saddle | degenerate
    gradient_norm: float
    hessian_min_eig_orth: float
    rho1: float
    rho2: complex


def _restricted_min_eig(g, theta, tol):
    """Smallest Hessian eigenvalue on the complement of the all-ones vector.

    The rotation mode (all-ones, eigenvalue 0) is a symmetry, not an
    instability. A shift lifts it to s, above the Gershgorin bound
    2 * d_max of every other eigenvalue, and s bounds the shifted
    operator's norm. Below _SPARSE_MIN_N vertices the shift is s / n per
    entry and a dense solve is exact on any graph. From there up the shift
    is s times each connected component's mean of x, which lifts every
    component's all-ones vector, so one sparse solve gives the least of the
    components' restricted minima. On a disconnected graph all but one of
    those all-ones vectors are zero modes inside the complement, hence the
    min with 0; unlifted, a Lanczos solve can converge past such a zero
    (seen on two identical components at the synchronized state).
    """
    n = g.n
    if n == 1:
        return 0.0
    diag, W = _hessian_parts(g, theta)
    s = 4.0 * max(int(g.degrees.max()), 1) + 1.0
    if n < _SPARSE_MIN_N:
        M = _dense_hessian(diag, W)
        M += s / n
        return float(np.linalg.eigvalsh(M)[0])
    # imported here: the module adds about 1 MB to every process, and
    # nothing else in the package needs it
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(W, directed=False)
    size = np.bincount(labels)

    def mv(x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return diag * x - W @ x + s * (np.bincount(labels, weights=x) / size)[labels]

    lam, _, _ = _extreme_eigenpair(mv, n, "SA", tol, norm_bound=s)
    return min(0.0, lam) if count > 1 else lam


def classify_equilibrium(g, theta, grad_tol=GRAD_TOL):
    """Classify a state from its gradient norm and restricted Hessian.

    not_equilibrium if the sup-norm gradient is at least grad_tol. Otherwise
    stable, strict_saddle or degenerate according to the sign of the minimum
    Hessian eigenvalue on the subspace orthogonal to the all-ones vector,
    against the threshold eig_tol = 1e-8 * max(d_max, 1). Degenerate is
    surfaced as its own class; third-order saddles exist and coercing them
    either way would be wrong.

    The all-ones direction is removed by a shift that lifts its eigenvalue
    above the rest of the spectrum, never by forming a basis of the
    complement. From _SPARSE_MIN_N (300) vertices up the Hessian stays
    sparse, a per-component mean shift lifts every connected component's
    all-ones vector, and one eigensolve serves the whole graph; the value
    carries the residual bound eig_tol / 10: it lies within eig_tol / 10 of
    an eigenvalue of the restricted Hessian, or NumericalError is raised.
    Smaller states take an exact dense eigensolve.
    """
    _check_grad_tol(grad_tol)
    theta = _check_state(g, theta)
    eig_tol = 1e-8 * max(int(g.degrees.max()), 1)
    gn = float(np.max(np.abs(gradient(g, theta))))
    min_eig = _restricted_min_eig(g, theta, eig_tol / 10.0)
    if gn >= grad_tol:
        cls = "not_equilibrium"
    elif min_eig > eig_tol:
        cls = "stable"
    elif min_eig < -eig_tol:
        cls = "strict_saddle"
    else:
        cls = "degenerate"
    return EquilibriumReport(
        classification=cls, gradient_norm=gn, hessian_min_eig_orth=min_eig,
        rho1=abs(daido(theta)), rho2=daido(theta, 2),
    )
