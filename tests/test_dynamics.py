"""Oscillator energy landscape, gradient flow, and state classification.

Energy is checked against a pure-python edge sum, the gradient against a
central finite difference of the energy, and the Hessian against a finite
difference of the gradient, so an error in any one of the three closed
forms cannot hide.
"""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from kurasync import (
    ConsistencyError,
    Graph,
    InputError,
    NumericalError,
    arc_set,
    classify_equilibrium,
    daido,
    energy,
    flow,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    gradient,
    half_circle_check,
    hessian,
    kernel_K,
    kernel_stability_violations,
    random_phases,
    rotate_to_real_rho1,
    s_func,
    wrap_phases,
)
from kurasync import cli, dynamics, spectral
from kurasync.dynamics import _SPARSE_MIN_N

from _oracles import (
    bf_energy,
    dense_hessian,
    dense_min_eig_orthogonal,
    fd_gradient,
    fd_jacobian,
    flow_reference,
)

# cycle flows crawl near saddles; every cycle flow below caps its steps
CYCLE_CAP = 20000


def sample_pairs(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 30))
        g = gen_erdos_renyi(n, float(rng.uniform(0.1, 0.9)), int(rng.integers(10 ** 6)))
        out.append((g, rng.uniform(-np.pi, np.pi, size=n)))
    return out


def test_energy_matches_brute_force():
    for g, theta in sample_pairs(30, 0):
        assert energy(g, theta) == pytest.approx(bf_energy(g, theta), abs=1e-10)


def test_energy_symmetries():
    g = gen_erdos_renyi(25, 0.4, 1)
    theta = random_phases(25, 2)
    e0 = energy(g, theta)
    assert energy(g, theta + 1.234) == pytest.approx(e0, abs=1e-9)
    assert energy(g, wrap_phases(theta + 2 * np.pi)) == pytest.approx(e0, abs=1e-9)
    assert energy(g, np.zeros(25)) == 0.0
    assert energy(g, -theta) == pytest.approx(e0, abs=1e-9)


def test_gradient_matches_finite_difference():
    for g, theta in sample_pairs(15, 3):
        ref = fd_gradient(lambda t: energy(g, t), theta)
        assert np.max(np.abs(gradient(g, theta) - ref)) < 1e-7


def test_hessian_matches_finite_difference():
    for g, theta in sample_pairs(8, 4):
        H = hessian(g, theta)
        ref = fd_jacobian(lambda t: gradient(g, t), theta)
        assert np.max(np.abs(H - ref)) < 1e-7
        assert np.max(np.abs(H - H.T)) == 0.0
        assert np.max(np.abs(H.sum(axis=1))) < 1e-12


def test_equilibria_have_zero_gradient():
    g = gen_named("complete", 12)
    assert np.max(np.abs(gradient(g, np.full(12, 0.7)))) < 1e-14

    # q-twisted states are exact equilibria of the cycle
    n = 10
    cyc = gen_named("cycle", n)
    for q in (1, 2, 3):
        tw = wrap_phases(2.0 * np.pi * q * np.arange(n) / n)
        assert np.max(np.abs(gradient(cyc, tw))) < 1e-14


def test_daido_order_parameters():
    theta = np.full(8, 0.3)
    assert daido(theta) == pytest.approx(np.exp(0.3j), abs=1e-15)
    assert daido(theta, 2) == pytest.approx(np.exp(0.6j), abs=1e-15)

    n = 12
    tw = 2.0 * np.pi * np.arange(n) / n
    assert abs(daido(tw)) < 1e-14
    assert abs(daido(tw, 2)) < 1e-14
    assert daido(tw, n) == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(InputError):
        daido(theta, 0)
    with pytest.raises(InputError):
        daido(theta, 1.5)


def test_wrap_and_rotate():
    w = wrap_phases(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi]))
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert w[1] == np.pi and w[2] == np.pi

    theta = random_phases(40, 5) * 0.3 + 1.1
    rot = rotate_to_real_rho1(theta)
    r = daido(rot)
    assert abs(r.imag) < 1e-12
    assert r.real >= 0.0
    assert energy(gen_erdos_renyi(40, 0.2, 6), rot) == pytest.approx(
        energy(gen_erdos_renyi(40, 0.2, 6), theta), abs=1e-9)

    # rho_1 = 0 has no preferred frame: state comes back unchanged
    tw = 2.0 * np.pi * np.arange(4) / 4
    assert np.array_equal(rotate_to_real_rho1(tw), tw)


def test_kernel_closed_form():
    grid = np.linspace(-np.pi, np.pi, 41)
    for a in grid:
        for b in grid:
            expect = math.sin(abs(a) - min(abs(b), math.pi / 2))
            assert kernel_K(a, b) == pytest.approx(expect, abs=1e-15)
            if abs(b) >= math.pi / 2:
                assert kernel_K(a, b) == pytest.approx(-math.cos(a), abs=1e-15)


def test_kernel_violations_on_stable_and_unstable_states():
    g = gen_named("complete", 8)
    assert kernel_stability_violations(g, np.zeros(8)) == []

    # stable twisted state on the 10-cycle: clean after rotation
    cyc = gen_named("cycle", 10)
    tw = rotate_to_real_rho1(wrap_phases(2.0 * np.pi * np.arange(10) / 10))
    assert kernel_stability_violations(cyc, tw) == []

    # antipodal pair is a strict saddle; the kernel test must flag it
    pair = gen_named("path", 2)
    state = rotate_to_real_rho1(np.array([0.0, np.pi]))
    viols = kernel_stability_violations(pair, state)
    assert viols == [(1, pytest.approx(-1.0, abs=1e-12))]


def test_s_func_plateau():
    assert s_func(0.0) == 0.0
    assert s_func(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert s_func(2.0) == 1.0
    assert s_func(-0.4) == s_func(0.4)
    grid = np.linspace(0, np.pi / 2, 100)
    assert np.max(np.abs(s_func(grid) - np.sin(grid) ** 2)) < 1e-15


def test_arc_set():
    theta = np.array([0.1, -2.0, 1.4, 3.0, -0.2])
    assert arc_set(theta, 1.0).tolist() == [1, 2, 3]
    assert arc_set(theta, 0.0).tolist() == [0, 1, 2, 3, 4]
    assert arc_set(theta, np.pi).tolist() == []
    with pytest.raises(InputError):
        arc_set(theta, -0.1)
    with pytest.raises(InputError):
        arc_set(theta, 4.0)


def test_half_circle_check():
    g = gen_named("complete", 6)
    assert half_circle_check(g, np.zeros(6)) is True
    assert half_circle_check(g, np.array([0.0, 0.1, 2.0, 0.0, 0.0, 0.0])) is False
    # confined to the half circle but visibly spread: the caller broke the
    # stable-state precondition and must hear about it
    with pytest.raises(ConsistencyError):
        half_circle_check(g, np.full(6, 1e-3))


def test_flow_synchronizes_complete_graph():
    g = gen_named("complete", 10)
    res = flow(g, random_phases(10, 0))
    assert res.terminated == "converged"
    assert res.steps < 500
    assert abs(daido(res.final)) > 1.0 - 1e-6
    assert res.energies[-1] < 1e-18
    assert res.grad_norms[-1] < 1e-10
    assert np.all(np.diff(res.energies) <= 0.0)
    assert np.all(np.diff(res.times) > 0.0)
    assert len(res.times) == res.steps + 1


def test_flow_from_equilibrium_is_immediate():
    g = gen_named("complete", 7)
    res = flow(g, np.full(7, 0.4))
    assert res.steps == 0 and res.terminated == "converged"


def test_flow_stalls_at_twisted_minimum():
    # seed 1 descends into the q=1 twisted well of the 10-cycle; energy
    # resolution runs out before the gradient target, hence "stalled"
    g = gen_named("cycle", 10)
    res = flow(g, random_phases(10, 1), step_cap=CYCLE_CAP)
    assert res.terminated == "stalled"
    assert abs(daido(res.final)) < 1e-6
    assert res.energies[-1] == pytest.approx(1.909830056250527, abs=1e-12)
    assert 0.0 < res.grad_norms[-1] < 1e-6

    rep = classify_equilibrium(g, res.final, grad_tol=1e-6)
    assert rep.classification == "stable"


def test_flow_honors_step_cap():
    g = gen_named("cycle", 12)
    res = flow(g, random_phases(12, 7), step_cap=5)
    assert res.terminated == "step_cap"
    assert res.steps == 5


def test_flow_rejects_bad_arguments():
    g = gen_named("cycle", 5)
    with pytest.raises(InputError):
        flow(g, np.zeros(4))
    with pytest.raises(InputError):
        flow(g, np.zeros(5), grad_tol=0.0)


def test_flow_csv_round_trip(tmp_path):
    g = gen_named("complete", 6)
    res = flow(g, random_phases(6, 3))
    path = tmp_path / "flow.csv"
    res.to_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "time,energy,grad_norm,rho1"
    assert len(lines) == len(res.times) + 1
    last = [float(tok) for tok in lines[-1].split(",")]
    assert last[1] == float(res.energies[-1])  # repr round trip is exact
    assert res.energy_trace[0] == (0.0, float(res.energies[0]))


FLOW_FIELDS = ("steps", "terminated", "final", "times", "energies", "grad_norms", "rho1s")
FLOW_GRAPHS = ("cycle", "path", "star", "complete", "two_cliques_bridged", "er", "regular",
               "edgeless")


@st.composite
def flow_cases(draw):
    """(graph, theta0, flow keyword arguments) over every graph kind and exit."""
    kind = draw(st.sampled_from(FLOW_GRAPHS), label="kind")
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    rng = np.random.default_rng(seed)
    if kind == "cycle":
        g = gen_named("cycle", draw(st.integers(3, 16), label="n"))
        # near a twisted state, which stalls at positive energy
        q = draw(st.integers(0, g.n // 4), label="twist")
    elif kind == "two_cliques_bridged":
        g = gen_named(kind, 2 * draw(st.integers(2, 8), label="half"))
    elif kind == "er":
        n = draw(st.integers(1, 40), label="n")
        g = gen_erdos_renyi(n, draw(st.floats(0.02, 0.9), label="p"), seed)
    elif kind == "regular":
        d = draw(st.integers(1, 5), label="d")
        n = draw(st.integers(d + 1, 30), label="n")
        g = gen_random_regular(n + (n * d) % 2, d, seed)
    elif kind == "edgeless":
        g = Graph(draw(st.integers(1, 12), label="n"), np.empty((0, 2), dtype=np.int64))
    else:
        g = gen_named(kind, draw(st.integers(1, 16), label="n"))
    # phases outside (-pi, pi], and values on the wrap's branch point
    theta0 = rng.uniform(-7.0, 7.0, size=g.n)
    if kind == "cycle" and q:
        theta0 = 2.0 * np.pi * q * np.arange(g.n) / g.n + rng.normal(0.0, 1e-3, size=g.n)
    for i, v in draw(st.lists(st.tuples(st.integers(0, g.n - 1),
                                        st.sampled_from([np.pi, -np.pi, 3 * np.pi, -0.0])),
                              max_size=3), label="special phases"):
        theta0[i] = v
    # the cap keeps the rare flow that creeps past a saddle from taking seconds
    kwargs = draw(st.fixed_dictionaries(
        {"step_cap": st.integers(0, 40) | st.just(3000)},
        optional={"dt_init": st.floats(1e-6, 5.0),
                  "grad_tol": st.sampled_from([1e-14, 1e-6, 1e-2])},
    ), label="flow arguments")
    return g, theta0, kwargs


class _ExpCountingNumpy:
    """numpy, with every np.exp call counted."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


@settings(max_examples=150, deadline=None)
@given(flow_cases())
# the three exits, pinned: converged, step_cap, and stalled in the twisted well
@example((gen_named("complete", 10), random_phases(10, 0), {}))
@example((gen_named("cycle", 12), random_phases(12, 7), {"step_cap": 5}))
@example((gen_named("cycle", 10), random_phases(10, 1), {"step_cap": CYCLE_CAP}))
def test_flow_is_bitwise_the_reference_flow(case):
    g, theta0, kwargs = case
    before = theta0.tobytes()
    counting = _ExpCountingNumpy()
    with mock.patch.object(dynamics, "np", counting):
        res = flow(g, theta0, **kwargs)
    ref = flow_reference(g, theta0, **kwargs)
    event(f"terminated {res.terminated}")
    for name in FLOW_FIELDS:
        got, want = getattr(res, name), getattr(ref, name)
        if isinstance(want, np.ndarray):
            # tobytes compares every bit, the sign of zero included
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name
    # one exp(i*theta) per accepted state, gradient and rho_1 included
    assert counting.exp_calls == res.steps + 1
    wrap_phases(theta0)
    assert theta0.tobytes() == before


def test_classify_equilibrium_all_classes():
    comp = gen_named("complete", 10)
    rep = classify_equilibrium(comp, np.zeros(10))
    assert rep.classification == "stable"
    # Hessian at sync is the graph Laplacian; K_10 has connectivity 10
    assert rep.hessian_min_eig_orth == pytest.approx(10.0, abs=1e-9)
    assert rep.rho1 == pytest.approx(1.0, abs=1e-12)
    assert rep.rho2 == pytest.approx(1.0 + 0.0j, abs=1e-12)

    cyc = gen_named("cycle", 10)
    tw = wrap_phases(2.0 * np.pi * np.arange(10) / 10)
    rep = classify_equilibrium(cyc, tw)
    assert rep.classification == "stable"
    # cos(2 pi/10) times the cycle spectral gap 2 - 2cos(2 pi/10)
    expect = math.cos(0.2 * math.pi) * (2.0 - 2.0 * math.cos(0.2 * math.pi))
    assert rep.hessian_min_eig_orth == pytest.approx(expect, abs=1e-12)
    assert rep.rho1 < 1e-14

    pair = gen_named("path", 2)
    rep = classify_equilibrium(pair, np.array([0.0, np.pi]))
    assert rep.classification == "strict_saddle"
    assert rep.hessian_min_eig_orth == pytest.approx(-2.0, abs=1e-12)

    # quarter-twisted 4-cycle: all edge weights vanish, Hessian is zero
    four = gen_named("cycle", 4)
    rep = classify_equilibrium(four, wrap_phases(0.5 * np.pi * np.arange(4)))
    assert rep.classification == "degenerate"
    assert abs(rep.hessian_min_eig_orth) < 1e-12

    rep = classify_equilibrium(comp, random_phases(10, 9))
    assert rep.classification == "not_equilibrium"
    assert rep.gradient_norm > 1.0


@st.composite
def hessian_states(draw):
    """(graph, state, kind) on either side of the sparse-classification crossover."""
    sparse = draw(st.booleans(), label="sparse side")
    n = draw(st.integers(_SPARSE_MIN_N, _SPARSE_MIN_N + 40) if sparse else st.integers(3, 40),
             label="n")
    kind = draw(st.sampled_from(
        ["twisted_cycle", "er", "star_antipodal", "edgeless", "two_components"]), label="kind")
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    # near-synchronized states keep every edge weight positive
    spread = draw(st.sampled_from([0.05, np.pi]), label="spread")
    theta = spread / np.pi * random_phases(n, seed)
    if kind == "twisted_cycle":
        q = draw(st.integers(0, n - 1), label="q")
        return gen_named("cycle", n), wrap_phases(2.0 * np.pi * q * np.arange(n) / n), kind
    if kind == "er":
        p = min(1.0, draw(st.floats(1.0, 12.0), label="mean degree") / n)
        return gen_erdos_renyi(n, p, seed), theta, kind
    if kind == "star_antipodal":
        theta[0] = np.pi
        return gen_named("star", n), theta, kind
    if kind == "edgeless":
        return gen_erdos_renyi(n, 0.0, seed), theta, kind
    # two paths, often identical, at the synchronized state or a random one
    k = draw(st.one_of(st.just(n // 2), st.integers(1, n - 1)), label="split")
    eu, ev = gen_named("path", k).edge_arrays()
    fu, fv = gen_named("path", n - k).edge_arrays()
    edges = np.concatenate([np.column_stack((eu, ev)), np.column_stack((fu, fv)) + k])
    if spread < 1:
        return Graph(n, edges), np.zeros(n), "two_components_synchronized"
    return Graph(n, edges), theta, kind


@settings(max_examples=120, deadline=None)
@given(hessian_states())
def test_classification_matches_dense_qr_oracle(state):
    g, theta, kind = state
    event(f"{kind}, {'sparse' if g.n >= _SPARSE_MIN_N else 'dense'}")
    d_max = int(g.degrees.max())
    eig_tol = 1e-8 * max(d_max, 1)
    # a large gradient tolerance sends every state to the eigenvalue step
    rep = classify_equilibrium(g, theta, grad_tol=1e6)
    ref = dense_min_eig_orthogonal(dense_hessian(g, theta))
    want = "stable" if ref > eig_tol else "strict_saddle" if ref < -eig_tol else "degenerate"
    assert rep.classification == want
    assert abs(rep.hessian_min_eig_orth - ref) <= 1e-9 * max(d_max, 1)
    if kind in ("edgeless", "two_components_synchronized"):
        assert want == "degenerate"


def _no_convergence(op, **kwargs):
    raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((op.shape[0], 0)))


def test_classification_failure_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(spectral, "eigsh", _no_convergence)
    n = _SPARSE_MIN_N
    g = gen_erdos_renyi(n, 0.05, 1)
    with pytest.raises(NumericalError):
        classify_equilibrium(g, random_phases(n, 2))
    # below the crossover the dense eigensolve never calls eigsh
    small = gen_named("cycle", n - 1)
    assert classify_equilibrium(small, np.zeros(n - 1)).classification == "stable"

    monkeypatch.setattr(sys, "argv", [
        "kurasync", "simulate", "--gen", f"er:{n},0.05", "--seed", "0",
        "--step-cap", "5", "--classify"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2


def test_classification_memory_stays_below_dense():
    n = 4000
    g = gen_erdos_renyi(n, 10.0 / n, 3)
    theta = random_phases(n, 4)
    tracemalloc.start()
    try:
        rep = classify_equilibrium(g, theta, grad_tol=1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.classification == "strict_saddle"
    # one dense n x n float64 Hessian alone would take 8 n^2 = 128 MB
    assert peak < 8 * n * n / 20


def test_classify_equilibrium_arguments():
    g = gen_named("complete", 5)
    with pytest.raises(InputError):
        classify_equilibrium(g, np.zeros(5), grad_tol=0.0)
    with pytest.raises(InputError):
        classify_equilibrium(g, np.zeros(5), eig_tol=-1.0)


def test_random_phases_deterministic():
    a = random_phases(50, 4)
    b = random_phases(50, 4)
    assert np.array_equal(a, b)
    assert a.shape == (50,)
    assert np.all(a > -np.pi) and np.all(a <= np.pi)
    assert not np.array_equal(a, random_phases(50, 5))
