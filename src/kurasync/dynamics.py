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

from .errors import ConsistencyError, InputError
from .spectral import _extreme_eigenpair, write_csv

__all__ = [
    "wrap_phases",
    "random_phases",
    "energy",
    "gradient",
    "hessian",
    "daido",
    "rotate_to_real_rho1",
    "kernel_K",
    "kernel_stability_violations",
    "s_func",
    "arc_set",
    "half_circle_check",
    "flow",
    "classify_equilibrium",
    "FlowResult",
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


def energy(g, theta):
    theta = _check_state(g, theta)
    eu, ev = g.edge_arrays()
    if len(eu) == 0:
        return 0.0
    half = theta[eu]
    half -= theta[ev]
    half *= 0.5
    np.sin(half, out=half)
    np.square(half, out=half)
    return float(2.0 * half.sum())


def _gradient_rho1(A, theta):
    """(gradient, |rho_1|) of a checked state from one exp(i*theta).

    rho_1 is the sum over n, which is bit for bit what daido's mean gives.
    """
    z = np.exp(1j * theta)
    grad = np.imag(z * np.conj(A @ z))
    return grad, abs(complex(z.sum() / len(z)))


def gradient(g, theta):
    """Component x: sum_z A[x,z] sin(theta_x - theta_z)."""
    return _gradient_rho1(g.adjacency(), _check_state(g, theta))[0]


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
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InputError(f"order parameter index must be a positive integer, got {k!r}")
    theta = np.asarray(theta, dtype=np.float64)
    return complex(np.mean(np.exp(1j * k * theta)))


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


@dataclass
class FlowResult:
    final: np.ndarray
    steps: int
    terminated: str  # converged | step_cap | stalled
    times: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    rho1s: np.ndarray

    @property
    def energy_trace(self):
        return list(zip(self.times.tolist(), self.energies.tolist()))

    def to_csv(self, path):
        write_csv(path, ["time", "energy", "grad_norm", "rho1"],
                  zip(self.times, self.energies, self.grad_norms, self.rho1s))


def flow(g, theta0, grad_tol=GRAD_TOL, step_cap=STEP_CAP, dt_init=None):
    """Integrate d(theta)/dt = -grad E with adaptive explicit Euler.

    A step is accepted only if the energy does not increase; the step size
    halves on rejection, grows by 1.2 on acceptance, and never exceeds
    1/(2*d_max), the stability ceiling of the explicit scheme. Terminates
    converged when the sup norm of the gradient drops below grad_tol,
    step_cap after that many accepted steps, or stalled if the step
    underflows (no representable phase change can lower the energy; this
    is the generic exit near minima with positive energy, where the
    descent per step falls below the energy ulp before grad_tol is met).

    Each trial state costs one energy call; each accepted state adds one
    exp(i*theta) and one sparse matvec, which give both its gradient and
    its rho_1. The caller's theta0 is never modified. Every field of the
    result is bit-identical to the earlier flow kept in the tests as
    flow_reference, which evaluated exp(i*theta) twice per accepted state.
    """
    if not grad_tol > 0:
        raise InputError(f"grad_tol must be positive, got {grad_tol}")
    theta = wrap_phases(_check_state(g, theta0))
    A = g.adjacency()
    grad, rho1 = _gradient_rho1(A, theta)
    gn = float(np.abs(grad).max())
    ene = energy(g, theta)
    t = 0.0
    times, energies, grad_norms, rho1s = [t], [ene], [gn], [rho1]
    steps = 0
    terminated = "converged"
    # an edgeless graph has zero gradient, so the loop below never runs
    dt_cap = 1.0 / (2.0 * max(int(g.degrees.max()), 1))
    dt = min(dt_init if dt_init is not None else 0.5 * dt_cap, dt_cap)
    while gn >= grad_tol:
        if steps >= step_cap:
            terminated = "step_cap"
            break
        trial = wrap_phases(theta - dt * grad)
        ene_trial = energy(g, trial)
        if ene_trial <= ene:
            if (trial == theta).all():
                # dt * grad underflowed every phase ulp: float64 cannot
                # resolve further descent (happens near minima with E > 0)
                terminated = "stalled"
                break
            theta = trial
            ene = ene_trial
            t += dt
            steps += 1
            grad, rho1 = _gradient_rho1(A, theta)
            gn = float(np.abs(grad).max())
            times.append(t)
            energies.append(ene)
            grad_norms.append(gn)
            rho1s.append(rho1)
            dt = min(dt * 1.2, dt_cap)
        else:
            dt *= 0.5
            if dt < 1e-18:
                terminated = "stalled"
                break
    return FlowResult(
        final=theta, steps=steps, terminated=terminated,
        times=np.asarray(times), energies=np.asarray(energies),
        grad_norms=np.asarray(grad_norms), rho1s=np.asarray(rho1s),
    )


@dataclass(frozen=True)
class EquilibriumReport:
    classification: str  # not_equilibrium | stable | strict_saddle | degenerate
    gradient_norm: float
    hessian_min_eig_orth: float
    rho1: float
    rho2: complex


def _min_eig_off_ones(diag, W, s, tol):
    """Smallest eigenvalue of diag(diag) - W off the all-ones vector, n >= 2.

    The rank-one term s * mean(x) lifts the all-ones eigenvalue 0 to s,
    above the Gershgorin bound 2 * d_max of every other eigenvalue, so the
    smallest eigenvalue of the shifted operator is the minimum on the
    complement, and s bounds the shifted operator's norm.
    """
    n = len(diag)
    if n < _SPARSE_MIN_N:
        M = _dense_hessian(diag, W)
        M += s / n
        return float(np.linalg.eigvalsh(M)[0])

    def mv(x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return diag * x - W @ x + s * x.mean()

    lam, _, _ = _extreme_eigenpair(mv, n, "SA", tol, norm_bound=s)
    return lam


def _restricted_min_eig(g, theta, tol):
    """Smallest Hessian eigenvalue on the complement of the all-ones vector.

    The rotation mode (all-ones, eigenvalue 0) is a symmetry, not an
    instability. On a disconnected graph the Hessian is block diagonal and
    every component's all-ones vector is a zero mode, all but one of them
    inside the complement: the minimum is 0 or less, and each component is
    solved on its own. A Lanczos solve of the whole graph can converge to
    the next eigenvalue up instead of that zero (seen on two identical
    components at the synchronized state).
    """
    if g.n == 1:
        return 0.0
    diag, W = _hessian_parts(g, theta)
    s = 4.0 * max(int(g.degrees.max()), 1) + 1.0
    # the dense solve below _SPARSE_MIN_N is exact on any graph
    if g.n >= _SPARSE_MIN_N:
        # imported here: the module adds about 1 MB to every process, and
        # nothing else in the package needs it
        from scipy.sparse.csgraph import connected_components

        count, labels = connected_components(W, directed=False)
        if count > 1:
            order = np.argsort(labels, kind="stable")
            blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
            return min([0.0] + [_min_eig_off_ones(diag[b], W[b][:, b], s, tol)
                                for b in blocks if len(b) > 1])
    return _min_eig_off_ones(diag, W, s, tol)


def classify_equilibrium(g, theta, grad_tol=GRAD_TOL, eig_tol=None):
    """Classify a state from its gradient norm and restricted Hessian.

    not_equilibrium if the sup-norm gradient is at least grad_tol. Otherwise
    stable, strict_saddle or degenerate according to the sign of the minimum
    Hessian eigenvalue on the subspace orthogonal to the all-ones vector,
    against the threshold eig_tol (default 1e-8 * d_max). Degenerate is
    surfaced as its own class; third-order saddles exist and coercing them
    either way would be wrong.

    The all-ones direction is removed by a rank-one shift that lifts its
    eigenvalue above the rest of the spectrum, never by forming a basis of
    the complement. From _SPARSE_MIN_N (300) vertices up the Hessian stays
    sparse, each connected component is solved on its own, and the value
    carries the residual bound eig_tol / 10: it lies within eig_tol / 10 of
    an eigenvalue of the restricted Hessian, or NumericalError is raised.
    Smaller states take an exact dense eigensolve.
    """
    if not grad_tol > 0:
        raise InputError(f"grad_tol must be positive, got {grad_tol}")
    theta = _check_state(g, theta)
    if eig_tol is None:
        eig_tol = 1e-8 * max(int(g.degrees.max()) if g.n else 1, 1)
    if not eig_tol > 0:
        raise InputError(f"eig_tol must be positive, got {eig_tol}")
    gn = float(np.max(np.abs(gradient(g, theta)))) if g.n else 0.0
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
