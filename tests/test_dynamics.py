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
    classify_equilibrium,
    daido,
    energy,
    flow,
    flow_batch,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    gradient,
    hessian,
    random_phases,
    wrap_phases,
)
from kurasync import cli, dynamics, spectral
from kurasync.dynamics import _ELIDE_N, _FLOW_BLOCK, _SPARSE_MIN_N, _gradients

from _lemmas import (
    arc_set,
    half_circle_check,
    kernel_K,
    kernel_stability_violations,
    rotate_to_real_rho1,
    s_func,
)
from _oracles import (
    bf_energy,
    dense_hessian,
    dense_min_eig_orthogonal,
    fd_gradient,
    fd_jacobian,
    _ref_daido,
    _ref_energy,
    _ref_gradient,
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
    for grad_tol in (0.0, np.inf, np.nan):
        with pytest.raises(InputError):
            flow(g, np.zeros(5), grad_tol=grad_tol)
    # step_cap=2.5 once took 3 steps, -3 ended at once as step_cap, and
    # flow_batch raised TypeError on None
    for step_cap in (2.5, np.float64(3.0), -3, None, True):
        with pytest.raises(InputError, match="step_cap must be a non-negative integer"):
            flow(g, np.zeros(5), step_cap=step_cap)
        with pytest.raises(InputError, match="step_cap must be a non-negative integer"):
            flow_batch(g, np.zeros((2, 5)), step_cap=step_cap)
    assert flow(g, random_phases(5, 0), step_cap=np.int64(2)).steps == 2


def test_flow_csv_round_trip(tmp_path):
    # flow.csv is run 0 of simulate, the flow from random_phases(n, seed)
    g = gen_named("complete", 6)
    res = flow(g, random_phases(6, 3))
    cli.run(["simulate", "--gen", "complete:6", "--seed", "3", "--out", str(tmp_path)])
    lines = (tmp_path / "flow.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "time,energy,grad_norm,rho1"
    assert len(lines) == len(res.times) + 1
    last = [float(tok) for tok in lines[-1].split(",")]
    assert last[1] == float(res.energies[-1])  # repr round trip is exact
    assert next(zip(res.times, res.energies)) == (0.0, res.energies[0])


FLOW_FIELDS = ("steps", "terminated", "final", "times", "energies", "grad_norms", "rho1s")
FLOW_GRAPHS = ("cycle", "path", "star", "complete", "two_cliques_bridged", "er", "regular",
               "edgeless", "disconnected")


@st.composite
def flow_graphs(draw):
    """(graph, kind, seed) over every graph kind the flow is checked on."""
    kind = draw(st.sampled_from(FLOW_GRAPHS), label="kind")
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    if kind == "cycle":
        g = gen_named("cycle", draw(st.integers(3, 16), label="n"))
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
    elif kind == "disconnected":
        # a cycle, a clique and an isolated vertex
        a, b = draw(st.integers(3, 8), label="cycle n"), draw(st.integers(2, 6), label="clique n")
        cycle = np.column_stack(gen_named("cycle", a).edge_arrays())
        clique = np.column_stack(np.triu_indices(b, 1)) + a
        g = Graph(a + b + 1, np.concatenate((cycle, clique)))
    else:
        g = gen_named(kind, draw(st.integers(1, 16), label="n"))
    return g, kind, seed


@st.composite
def flow_starts(draw, g, kind, rng):
    """One start: phases outside (-pi, pi], near a twisted state of a cycle
    (which stalls at positive energy) or at an equilibrium, and values on
    the wrap's branch point."""
    theta0 = rng.uniform(-7.0, 7.0, size=g.n)
    shape = draw(st.sampled_from(["uniform", "twisted", "equilibrium"]), label="start")
    if shape == "twisted" and kind == "cycle":
        q = draw(st.integers(0, g.n // 4), label="twist")
        theta0 = 2.0 * np.pi * q * np.arange(g.n) / g.n + rng.normal(0.0, 1e-3, size=g.n)
    elif shape == "equilibrium":
        theta0 = np.full(g.n, theta0[0])
    for i, v in draw(st.lists(st.tuples(st.integers(0, g.n - 1),
                                        st.sampled_from([np.pi, -np.pi, 3 * np.pi, -0.0])),
                              max_size=3), label="special phases"):
        theta0[i] = v
    return theta0


# the cap keeps the rare flow that creeps past a saddle from taking seconds
FLOW_KWARGS = st.fixed_dictionaries(
    {"step_cap": st.integers(0, 40) | st.just(3000)},
    optional={"grad_tol": st.sampled_from([1e-14, 1e-6, 1e-2])},
)


@st.composite
def flow_cases(draw):
    """(graph, theta0, flow keyword arguments) over every graph kind and exit."""
    g, kind, seed = draw(flow_graphs())
    theta0 = draw(flow_starts(g, kind, np.random.default_rng(seed)))
    return g, theta0, draw(FLOW_KWARGS, label="flow arguments")


@st.composite
def flow_batch_cases(draw):
    """(graph, (R, n) starts, flow keyword arguments, block budget)."""
    g, kind, seed = draw(flow_graphs())
    rng = np.random.default_rng(seed)
    rows = draw(st.integers(1, 8), label="rows")
    thetas = np.array([draw(flow_starts(g, kind, rng)) for _ in range(rows)])
    # None keeps the package's budget; 1 makes every row a block of its
    # own, and two rows' worth splits the block in pairs
    budget = draw(st.sampled_from([None, 1, 2 * (g.n + g.m)]), label="budget")
    return g, thetas, draw(FLOW_KWARGS, label="flow arguments"), budget


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


def assert_rows_are_flows(g, thetas, batch, **kwargs):
    """Each row of batch holds bitwise the finals of flow_reference and of
    flow from the same row of thetas."""
    assert batch.final.shape == thetas.shape and batch.final.dtype == np.float64
    for i, theta0 in enumerate(thetas):
        ref = flow_reference(g, theta0, **kwargs)
        one = flow(g, theta0, **kwargs)
        got = (batch.final[i], int(batch.steps[i]), str(batch.terminated[i]),
               batch.energy[i], batch.grad_norm[i], batch.rho1[i])
        for res in (ref, one):
            want = (res.final, res.steps, res.terminated,
                    res.energies[-1], res.grad_norms[-1], res.rho1s[-1])
            for name, a, b in zip(FLOW_BATCH_FIELDS, got, want):
                # tobytes compares every bit, the sign of zero included
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (i, name)


FLOW_BATCH_FIELDS = ("final", "steps", "terminated", "energy", "grad_norm", "rho1")


@settings(max_examples=100, deadline=None)
@given(flow_batch_cases())
@example((gen_named("complete", 10), np.array([random_phases(10, 0)]), {}, None))
@example((Graph(1, np.empty((0, 2), dtype=np.int64)), np.array([[4.0], [-np.pi], [-0.0]]),
          {}, 1))
# a NaN phase makes a NaN gradient norm, which ends its row as converged
@example((gen_named("cycle", 6), np.array([random_phases(6, 1), [0.5, np.nan, 0, 0, 0, 0]]),
          {}, None))
def test_flow_batch_rows_are_bitwise_the_reference_flow(case):
    g, thetas, kwargs, budget = case
    before = thetas.tobytes()
    with mock.patch.object(dynamics, "_FLOW_BLOCK", budget or dynamics._FLOW_BLOCK):
        batch = flow_batch(g, thetas, **kwargs)
    for why in set(batch.terminated):
        event(f"terminated {why}")
    event(f"block of {max(1, (budget or dynamics._FLOW_BLOCK) // (g.n + g.m))} rows")
    assert_rows_are_flows(g, thetas, batch, **kwargs)
    assert thetas.tobytes() == before


def test_flow_batch_mixes_exits_in_one_block():
    # 40 cycle flows end in all three exits; the rows leave the block one
    # by one, and with a budget of 3 rows the block is also split
    g = gen_named("cycle", 10)
    thetas = np.array([random_phases(10, s) for s in range(40)])
    for budget in (dynamics._FLOW_BLOCK, 3 * (g.n + g.m)):
        with mock.patch.object(dynamics, "_FLOW_BLOCK", budget):
            batch = flow_batch(g, thetas, step_cap=400)
        assert set(batch.terminated) == {"converged", "stalled", "step_cap"}
        assert_rows_are_flows(g, thetas, batch, step_cap=400)


def test_flow_batch_block_past_numpy_elision_size():
    # 20 rows of 1000 phases: the block's complex temporaries pass 256 KiB,
    # where numpy would reorder a written z * conj(w), while one row's stay
    # below it
    g = gen_erdos_renyi(1000, 0.02, 0)
    thetas = np.array([random_phases(g.n, s) for s in range(20)])
    assert thetas.size >= _ELIDE_N > g.n
    assert_rows_are_flows(g, thetas, flow_batch(g, thetas, step_cap=25), step_cap=25)


def test_flow_batch_shapes_and_arguments():
    g = gen_named("cycle", 5)
    empty = flow_batch(g, np.empty((0, 5)))
    assert empty.final.shape == (0, 5) and len(empty.steps) == len(empty.terminated) == 0
    for bad in (np.zeros(5), np.zeros((2, 4)), np.zeros((1, 2, 5))):
        with pytest.raises(InputError):
            flow_batch(g, bad)
    for grad_tol in (0.0, np.inf, np.nan):
        with pytest.raises(InputError):
            flow_batch(g, np.zeros((2, 5)), grad_tol=grad_tol)
    with pytest.raises(InputError):
        energy(g, np.zeros((2, 4)))


def test_block_kernels_are_bitwise_the_serial_kernels():
    # a block's energies, gradients and rho_1 row by row against the
    # frozen one-state bodies, on rows long enough for SIMD loops and
    # pairwise sums to matter, in blocks past numpy's elision size, and on
    # rows that are themselves past it (the product's operands swap there)
    for g, rows in ((gen_named("cycle", 10), 30), (gen_erdos_renyi(1000, 0.02, 0), 30),
                    (gen_random_regular(300, 7, 1), 60),
                    (gen_named("cycle", _ELIDE_N - 1), 2), (gen_named("cycle", _ELIDE_N), 2)):
        thetas = np.array([random_phases(g.n, s) for s in range(rows)])
        energies = energy(g, thetas)
        grads, rho1s = _gradients(g.adjacency(), thetas)
        for i, theta in enumerate(thetas):
            assert energies[i].tobytes() == np.float64(_ref_energy(g, theta)).tobytes()
            assert energy(g, theta) == energies[i] and type(energy(g, theta)) is float
            assert grads[i].tobytes() == _ref_gradient(g, theta).tobytes()
            assert gradient(g, theta).tobytes() == grads[i].tobytes()
            assert rho1s[i] == abs(_ref_daido(theta))


def test_numpy_facts_the_flow_engine_relies_on():
    # flow_batch reproduces one-state flows bit for bit only because of
    # these properties of numpy's reductions; a numpy that changes one of
    # them fails here by name rather than only in a benchmark digest
    rng = np.random.default_rng(0)
    block = rng.uniform(0.0, 1.0, size=(200, 4000))
    cols = rng.integers(0, 4000, size=3000)
    rows = [block[i, cols].sum() for i in range(len(block))]
    # a fancy-indexed gather is Fortran-ordered and its row sums run in
    # another order than the sum of each row alone
    gathered = block[:, cols]
    assert gathered.flags.f_contiguous and not gathered.flags.c_contiguous
    assert any(a != b for a, b in zip(gathered.sum(axis=1), rows))
    # np.take along axis 1 is C-contiguous, and its row sums are the serial sums
    taken = np.take(block, cols, axis=1)
    assert taken.flags.c_contiguous
    assert taken.sum(axis=1).tobytes() == np.array(rows).tobytes()
    # np.abs of a complex array misses abs(complex) in the last ulp on some
    # entries; hypot of the parts, as abs(complex) computes it, does not
    z = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(4000, 10))).sum(axis=1) / 10
    want = np.array([abs(complex(v)) for v in z])
    assert (np.abs(z) != want).any()
    assert np.hypot(z.real, z.imag).tobytes() == want.tobytes()
    # a complex product is not bitwise commutative, and from _ELIDE_N
    # values on numpy computes a * np.conj(b) in the temporary, as
    # conj(b) * a; below that size it multiplies in the written order
    for n in (_ELIDE_N - 1, _ELIDE_N):
        a, b = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(2, n)))
        order = np.multiply(a, np.conj(b)), np.multiply(np.conj(b), a)
        # outside the assert, whose rewrite would hold on to the temporary
        written = a * np.conj(b)
        assert order[0].tobytes() != order[1].tobytes()
        assert written.tobytes() == order[n >= _ELIDE_N].tobytes()


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


def _disjoint_paths(sizes):
    """Paths of the given vertex counts on consecutive vertex ranges; a
    size of 2 is an isolated edge, a size of 1 an isolated vertex."""
    starts = np.cumsum([0] + sizes[:-1])
    edges = [np.column_stack(gen_named("path", k).edge_arrays()) + at
             for k, at in zip(sizes, starts)]
    return Graph(int(sum(sizes)), np.concatenate(edges))


@st.composite
def hessian_states(draw):
    """(graph, state, kind) on either side of the sparse-classification crossover."""
    sparse = draw(st.booleans(), label="sparse side")
    n = draw(st.integers(_SPARSE_MIN_N, _SPARSE_MIN_N + 40) if sparse else st.integers(3, 40),
             label="n")
    kind = draw(st.sampled_from(
        ["twisted_cycle", "er", "star_antipodal", "edgeless", "components"]), label="kind")
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
    # 2-7 paths, often identical, then isolated edges and isolated vertices,
    # at the synchronized state or a random one
    c = draw(st.integers(2, min(7, n)), label="paths")
    sizes = draw(st.just([n // c] * c) | st.lists(st.integers(1, n // c), min_size=c,
                                                   max_size=c), label="path sizes")
    free = n - sum(sizes)
    pairs = draw(st.integers(0, free // 2), label="isolated edges")
    g = _disjoint_paths(sizes + [2] * pairs + [1] * (free - 2 * pairs))
    if spread < 1:
        return g, np.zeros(n), "components_synchronized"
    return g, theta, kind


# sparse states on three paths, two isolated edges and two isolated vertices
_SPARSE_PIECES = [120, 100, 80, 2, 2, 1, 1]


@settings(max_examples=120, deadline=None)
@given(hessian_states())
@example((_disjoint_paths(_SPARSE_PIECES), np.zeros(306), "components_synchronized"))
@example((_disjoint_paths(_SPARSE_PIECES), random_phases(306, 4), "components"))
@example((_disjoint_paths([102] * 3), random_phases(306, 5), "components"))
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
    if kind in ("edgeless", "components_synchronized"):
        assert want == "degenerate"


def test_disconnected_state_takes_one_eigensolve(monkeypatch):
    # two components, each large enough for the sparse solver on its own:
    # the per-component mean shift classifies both with one eigsh call
    real, calls = spectral.eigsh, []

    def counted(op, **kwargs):
        calls.append(kwargs["ncv"])
        return real(op, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counted)
    a = gen_erdos_renyi(_SPARSE_MIN_N + 20, 10 / _SPARSE_MIN_N, 1)
    b = gen_erdos_renyi(_SPARSE_MIN_N + 30, 10 / _SPARSE_MIN_N, 2)
    edges = np.concatenate([np.column_stack(a.edge_arrays()),
                            np.column_stack(b.edge_arrays()) + a.n])
    g = Graph(a.n + b.n, edges)
    theta = random_phases(g.n, 3)
    rep = classify_equilibrium(g, theta, grad_tol=1e6)
    assert len(calls) == 1
    ref = dense_min_eig_orthogonal(dense_hessian(g, theta))
    assert abs(rep.hessian_min_eig_orth - ref) <= 1e-9 * int(g.degrees.max())


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


def test_simulate_memory_is_bounded_per_block():
    # 64 runs on G(2000, 0.01): the block takes a few rows at a time, so the
    # whole command stays within a small multiple of one flow's peak; one
    # block of all 64 rows would hold 2 * 64 * m energy terms, about 20 MB
    g = gen_erdos_renyi(2000, 0.01, 0)
    tracemalloc.start()
    try:
        flow(g, random_phases(g.n, 0), step_cap=20)
        _, one = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli.run(["simulate", "--gen", "er:2000,0.01", "--seed", "0", "--runs", "64",
                 "--step-cap", "20"])
        _, runs = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _FLOW_BLOCK // (g.n + g.m) < 64
    assert runs < 6 * one, (runs, one)


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
    # an infinite tolerance would call any state an equilibrium
    for grad_tol in (0.0, np.inf, np.nan):
        with pytest.raises(InputError):
            classify_equilibrium(g, np.zeros(5), grad_tol=grad_tol)


def test_random_phases_deterministic():
    a = random_phases(50, 4)
    b = random_phases(50, 4)
    assert np.array_equal(a, b)
    assert a.shape == (50,)
    assert np.all(a > -np.pi) and np.all(a <= np.pi)
    assert not np.array_equal(a, random_phases(50, 5))
