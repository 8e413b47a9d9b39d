"""Expander profiles and the mixing-bound verifier.

The spectral quantities are cross-checked three ways: against a dense
eigendecomposition built independently from the edge arrays, against
closed forms on circulant and complete graphs, and against brute-force
pair counting inside the mixing report.
"""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from kurasync import cli, spectral
from kurasync import (
    ExpanderProfile,
    Graph,
    InputError,
    NumericalError,
    centered_adjacency_alpha,
    centered_laplacian_extremes,
    check_mixing_bounds,
    degree_bounds_from_profile,
    expander_profile,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    write_edge_list,
)
from kurasync.spectral import read_json, record_json, write_json

from _lemmas import degree_implies_profile, mixing_violations
from _oracles import (
    candidate_battery_reference,
    dense_adjacency,
    dense_alpha,
    dense_laplacian_extremes,
    discrepancy_search_reference,
    exact_single_set_slacks,
)

TOL = 1e-8


def battery():
    return [
        gen_named("complete", 20),
        gen_named("cycle", 10),
        gen_named("path", 15),
        gen_named("star", 12),
        gen_named("two_cliques_bridged", 16),
        gen_erdos_renyi(60, 0.3, 3),
        gen_erdos_renyi(200, 0.05, 1),
        gen_random_regular(48, 6, 0),
    ]


def test_alpha_matches_dense_oracle():
    for g in battery():
        d = 2.0 * g.m / g.n
        assert abs(centered_adjacency_alpha(g, d) - dense_alpha(g, d)) < 2 * TOL


@pytest.mark.parametrize("measure", [centered_adjacency_alpha, centered_laplacian_extremes])
def test_eigen_scale_must_be_finite_and_positive(measure):
    # d_ref and tol set the eigensolver's stopping residual tol * d_ref
    g = gen_named("cycle", 20)
    for d_ref, tol in ((math.inf, TOL), (math.nan, TOL), (0.0, TOL), (2.0, math.inf),
                       (2.0, math.nan), (2.0, 0.0)):
        name = "d_ref" if d_ref != 2.0 else "tol"
        with pytest.raises(InputError, match=f"{name} must be finite and positive"):
            measure(g, d_ref, tol)


def test_laplacian_window_matches_dense_oracle():
    for g in battery():
        d = 2.0 * g.m / g.n
        cm, cp = centered_laplacian_extremes(g, d)
        cm_ref, cp_ref = dense_laplacian_extremes(g, d)
        assert abs(cm - cm_ref) < 2 * TOL
        assert abs(cp - cp_ref) < 2 * TOL
        assert cm <= cp


def test_profile_off_reference_degree():
    # d_ref is a free parameter, not tied to the actual average degree
    g = gen_erdos_renyi(80, 0.4, 9)
    for d in (20.0, 2.0 * g.m / g.n, 40.0):
        assert abs(centered_adjacency_alpha(g, d) - dense_alpha(g, d)) < 2 * TOL


def test_arpack_no_convergence_escalates_krylov_space(monkeypatch):
    real = spectral.eigsh
    tried = []

    def flaky(op, **kwargs):
        tried.append(kwargs["ncv"])
        if kwargs["ncv"] == 20:
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((op.shape[0], 0)))
        return real(op, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", flaky)
    g = gen_random_regular(48, 6, 0)
    assert abs(centered_adjacency_alpha(g, 6.0) - dense_alpha(g, 6.0)) < 2 * TOL
    assert tried == [20, 47]


def test_other_eigensolver_errors_propagate(monkeypatch):
    def broken(op, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(spectral, "eigsh", broken)
    with pytest.raises(RuntimeError, match="broken solver"):
        centered_adjacency_alpha(gen_random_regular(48, 6, 0), 6.0)


def test_complete_graph_profile_closed_form():
    # K_n: alpha = 1/(n-1), window [0, 1/(n-1)]
    for n in (5, 20):
        prof = expander_profile(gen_named("complete", n))
        assert prof.d_ref == n - 1
        assert abs(prof.alpha - 1.0 / (n - 1)) < 1e-10
        assert abs(prof.c_minus) < 1e-10
        assert abs(prof.c_plus - 1.0 / (n - 1)) < 1e-10


def test_cycle_profile_circulant_closed_form():
    # eigenvalues of the centered adjacency of C_n are 2cos(2 pi k/n) for
    # k != 0 and 0 for k = 0; for even n the alternating vector gives -2,
    # so alpha = 1 exactly (the cycle is bipartite)
    n = 100
    g = gen_named("cycle", n)
    prof = expander_profile(g)
    ks = np.arange(1, n)
    alpha_ref = np.max(np.abs(2.0 * np.cos(2.0 * np.pi * ks / n))) / 2.0
    assert alpha_ref == 1.0
    assert abs(prof.alpha - alpha_ref) < 1e-8
    # centered Laplacian eigenvalues are -2cos(2 pi k/n) and 0
    cm_ref = min(0.0, float(np.min(-2.0 * np.cos(2.0 * np.pi * ks / n)))) / 2.0
    cp_ref = max(0.0, float(np.max(-2.0 * np.cos(2.0 * np.pi * ks / n)))) / 2.0
    assert abs(prof.c_minus - cm_ref) < 1e-8
    assert abs(prof.c_plus - cp_ref) < 1e-8
    assert abs(cm_ref + math.cos(math.pi / 50)) < 1e-15
    assert cp_ref == 1.0


def test_profile_defaults_and_fields():
    g = gen_named("star", 12)
    prof = expander_profile(g)
    assert prof.d_ref == pytest.approx(2.0 * g.m / g.n)
    assert prof.n == 12
    assert prof.source == "measured"
    assert prof.tol == 1e-8

    prof2 = expander_profile(g, d_ref=3.0, tol=1e-6)
    assert prof2.d_ref == 3.0 and prof2.tol == 1e-6

    with pytest.raises(InputError):
        expander_profile(gen_named("path", 1))  # no edges, no default d_ref


def test_profile_validation_errors():
    ok = dict(n=10, d_ref=3.0, alpha=0.1, c_minus=-0.2, c_plus=0.2)
    ExpanderProfile(**ok)
    for bad in (
        dict(ok, n=0),
        dict(ok, d_ref=0.0),
        dict(ok, alpha=-0.1),
        dict(ok, c_minus=0.3),  # exceeds c_plus
        dict(ok, tol=-1e-9),
        dict(ok, source="guessed"),
    ):
        with pytest.raises(InputError):
            ExpanderProfile(**bad)
    # every float field is finite; a NaN fails every comparison above, so
    # finiteness is its own check
    for name in ("d_ref", "alpha", "c_minus", "c_plus", "tol"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match=f"profile field {name} is not finite"):
                ExpanderProfile(**dict(ok, **{name: value}))


def test_profile_json_round_trip(tmp_path):
    prof = ExpanderProfile(n=50, d_ref=7.5, alpha=0.12, c_minus=-0.3,
                           c_plus=0.25, tol=1e-7, source="measured")
    again = ExpanderProfile.from_json_dict(record_json(prof))
    assert again == prof

    path = tmp_path / "profile.json"
    write_json(path, record_json(prof))
    assert ExpanderProfile.from_json_dict(read_json(path)) == prof
    # file is plain JSON with all fields present
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert set(obj) == {"n", "d_ref", "alpha", "c_minus", "c_plus", "tol", "source"}

    # JSON ints are numbers for the float fields, as in --config, and load as floats
    ints = ExpanderProfile.from_json_dict(dict(obj, d_ref=8, alpha=0, tol=0))
    floats = dataclasses.replace(prof, d_ref=8.0, alpha=0.0, tol=0.0)
    assert json.dumps(record_json(ints)) == json.dumps(record_json(floats))
    for bad in ({"n": 5}, [1, 2], dict(obj, n=float("inf")), dict(obj, d_ref=10 ** 400),
                dict(obj, n=1.9), dict(obj, n=50.0), dict(obj, n=True), dict(obj, alpha="0.1"),
                dict(obj, c_minus=True), dict(obj, c_plus=None), dict(obj, tol="0")):
        with pytest.raises(InputError):
            ExpanderProfile.from_json_dict(bad)


def test_degree_window_implications():
    # measured window and the degree box imply each other within alpha
    for g in battery():
        if g.m == 0:
            continue
        prof = expander_profile(g)
        d_min, d_max = int(g.degrees.min()), int(g.degrees.max())
        lo, hi = degree_bounds_from_profile(prof)
        assert lo <= d_min + 1e-7
        assert d_max <= hi + 1e-7
        cm_box, cp_box = degree_implies_profile(d_min, d_max, prof.alpha, prof.d_ref)
        assert cm_box <= prof.c_minus + 1e-7
        assert prof.c_plus <= cp_box + 1e-7


def test_degree_implies_profile_errors():
    with pytest.raises(InputError):
        degree_implies_profile(5, 3, 0.1, 4.0)
    with pytest.raises(InputError):
        degree_implies_profile(3, 5, 0.1, 0.0)


def test_mixing_bounds_pass_on_true_profiles():
    cases = [
        gen_erdos_renyi(150, 0.1, 4),
        gen_random_regular(64, 8, 2),
        gen_named("complete", 30),
        gen_named("two_cliques_bridged", 20),
    ]
    for g in cases:
        prof = expander_profile(g)
        rep = check_mixing_bounds(g, prof, trials=50, seed=13)
        assert rep.passed, f"{g}: worst slack {rep.worst()}"
        assert mixing_violations(rep) == []
        assert rep.trials == 50 and rep.seed == 13
        lemmas = {e.lemma for e in rep.entries}
        assert lemmas == {
            "internal_pairs", "cut_to_complement", "incident_edge_mass",
            "nested_cut", "small_set_outflow",
        }


def test_mixing_bounds_expose_corrupted_alpha():
    # halving alpha understates the true discrepancy; the eigenvector-guided
    # sets in the battery must exhibit at least one internal-pair violation
    g = gen_erdos_renyi(300, 0.2, 2)
    prof = expander_profile(g)
    rep_true = check_mixing_bounds(g, prof, trials=50, seed=0)
    assert rep_true.passed

    corrupted = dataclasses.replace(prof, alpha=prof.alpha / 2.0)
    rep = check_mixing_bounds(g, corrupted, trials=50, seed=0)
    assert not rep.passed
    bad = mixing_violations(rep)
    assert len(bad) >= 1
    assert {e.lemma for e in bad} == {"internal_pairs"}


def test_mixing_bounds_report_shape(tmp_path):
    g = gen_erdos_renyi(100, 0.15, 8)
    prof = expander_profile(g)
    rep = check_mixing_bounds(g, prof, trials=20, seed=3)
    assert rep.allowance == pytest.approx(10.0 * prof.tol * prof.d_ref * g.n)
    assert rep.worst() >= -rep.allowance
    obj = record_json(rep)
    assert obj["passed"] is True
    assert len(obj["entries"]) == len(rep.entries)
    for e in rep.entries:
        if e.lemma in ("nested_cut", "small_set_outflow"):
            assert e.Y_size >= e.X_size
        if e.lemma == "internal_pairs":
            assert e.value % 2 == 0  # double-sum convention

    # the profile report adds the worst slack to the same record
    write_edge_list(g, tmp_path / "g.txt")
    mixing = cli.run(["profile", "--graph", str(tmp_path / "g.txt"),
                      "--trials", "20", "--seed", "3"]).report["mixing"]
    assert set(mixing) == set(obj) | {"worst_slack"}
    assert mixing["worst_slack"] == min(e["slack"] for e in mixing["entries"])


def test_mixing_report_of_numpy_counts_is_json():
    # numpy integers for trials and seed are stored as Python ints
    g = gen_named("cycle", 8)
    rep = check_mixing_bounds(g, expander_profile(g), trials=np.int64(3), seed=np.int64(0))
    assert json.loads(json.dumps(record_json(rep)))["trials"] == 3
    assert type(rep.trials) is int and type(rep.seed) is int
    assert rep == check_mixing_bounds(g, expander_profile(g), trials=3, seed=0)


def test_mixing_bounds_skip_unmeetable_hypotheses():
    # a window reaching -1 empties the eps interval of the nested lemmas;
    # they must land in skipped rather than silently pass
    g = gen_named("cycle", 12)
    prof = dataclasses.replace(expander_profile(g), c_minus=-1.5)
    rep = check_mixing_bounds(g, prof, trials=10, seed=1)
    assert set(rep.skipped) == {"nested_cut", "small_set_outflow"}
    assert {e.lemma for e in rep.entries} == {
        "internal_pairs", "cut_to_complement", "incident_edge_mass",
    }


def test_mixing_bounds_input_errors():
    g = gen_named("cycle", 12)
    prof = expander_profile(g)
    with pytest.raises(InputError):
        check_mixing_bounds(g, prof, trials=0, seed=0)
    with pytest.raises(InputError):
        check_mixing_bounds(g, dataclasses.replace(prof, source="asserted"),
                            trials=5, seed=0)
    with pytest.raises(InputError):
        check_mixing_bounds(gen_named("cycle", 11), prof, trials=5, seed=0)


def test_dense_path_small_n():
    # n below the iterative cutoff goes through the dense branch
    g = gen_named("cycle", 4)
    d = 2.0
    assert abs(centered_adjacency_alpha(g, d) - dense_alpha(g, d)) < 1e-12
    with pytest.raises(InputError):
        centered_adjacency_alpha(g, 0.0)
    with pytest.raises(InputError):
        centered_laplacian_extremes(g, 2.0, tol=0.0)


MIXING_GRAPHS = ("regular", "er", "er_sparse", "star", "two_cliques_bridged", "path", "complete")


@st.composite
def mixing_graphs(draw):
    """Graphs of every kind the mixing check's batteries are compared on;
    er_sparse sits below the connectivity threshold, so it is mostly
    disconnected."""
    kind = draw(st.sampled_from(MIXING_GRAPHS), label="kind")
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    if kind == "regular":
        d = draw(st.integers(2, 8), label="d")
        n = draw(st.integers(d + 1, 60), label="n")
        return gen_random_regular(n + (n * d) % 2, d, seed)
    if kind == "er":
        n = draw(st.integers(2, 60), label="n")
        return gen_erdos_renyi(n, draw(st.floats(0.05, 0.9), label="p"), seed)
    if kind == "er_sparse":
        n = draw(st.integers(16, 80), label="n")
        return gen_erdos_renyi(n, draw(st.floats(0.5, 2.0), label="np") / n, seed)
    if kind == "two_cliques_bridged":
        return gen_named(kind, 2 * draw(st.integers(2, 15), label="half"))
    return gen_named(kind, draw(st.integers(1, 40), label="n"))


def mixing_reports(g, prof, trials, seed):
    """check_mixing_bounds as JSON text, run as it is and with the frozen
    batteries.

    Both runs get the same eigenpairs: ARPACK draws a fresh start vector
    from a seed it keeps across calls when a Krylov space closes early (as
    on a graph of few distinct eigenvalues), so a repeated extreme
    eigenvalue can come back with another eigenvector on a second call.
    """
    real, pairs = spectral._extreme_eigenpair, {}

    def eigenpair(mv, n, which, tol_abs, norm_bound=None):
        if (which, tol_abs) not in pairs:
            pairs[which, tol_abs] = real(mv, n, which, tol_abs, norm_bound)
        return pairs[which, tol_abs]

    def report():
        return json.dumps(record_json(check_mixing_bounds(g, prof, trials, seed)))

    with mock.patch.object(spectral, "_extreme_eigenpair", eigenpair):
        got = report()
        with mock.patch.object(spectral, "_candidate_battery", candidate_battery_reference), \
                mock.patch.object(spectral, "_discrepancy_search", discrepancy_search_reference):
            return got, report()


@settings(max_examples=150, deadline=None)
@given(mixing_graphs(), st.one_of(st.none(), st.floats(0.1, 2.0)), st.sampled_from([1.0, -1.0]),
       st.floats(-2.0, 2.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 16))
@example(gen_random_regular(48, 6, 0), None, 1.0, 0.0, 0.25, 0)
@example(gen_named("complete", 12), None, 1.0, -1.0, 1.0, 1)
@example(gen_named("star", 1), None, -1.0, 0.5, 1.0, 2)
# d_ref above n, from X = {2, 3}: no flip gains, and a swap of adjacent
# vertices would gain 2 * (up + down - A) = 2 * (2 - 1 - 1) = 0
@example(gen_named("complete", 4), 1.5, 1.0, -0.5, 0.25, 0)
# five disjoint edges: ARPACK restarts from its own seed on this graph
@example(Graph(36, [(1, 28), (2, 27), (10, 29), (16, 35), (31, 34)]), None, 1.0, 0.0, 0.0, 0)
def test_mixing_batteries_match_the_frozen_ones(g, d_per_n, sign, theta_scale, density, seed):
    # d_ref is the average degree, or a free multiple of n. The frozen search
    # also tries pair swaps, which can gain where no single flip does only
    # if d_ref >= n, so the two searches must agree below n
    if d_per_n is not None:
        d = d_per_n * g.n
    else:
        d = 2.0 * g.m / g.n if g.m else 1.0
    below_n = d <= (1.0 - 1e-9) * g.n
    battery = spectral._candidate_battery(g)
    assert all(xs.dtype == np.int64 for xs in battery)
    assert [xs.tolist() for xs in battery] == [sorted(xs) for xs in candidate_battery_reference(g)]

    # random 0/1 start and theta; the flips meet many ties in the gains
    x = (np.random.default_rng(seed).random(g.n) < density).astype(np.float64)
    theta = theta_scale * d
    got = spectral._discrepancy_search(g, d, x, sign, theta)
    assert got.dtype == np.int64
    if below_n:
        assert got.tolist() == discrepancy_search_reference(g, d, x, sign, theta).tolist()

    # at any d_ref the result is a single-flip local optimum: no add, and no
    # drop that leaves X nonempty, gains more than the search's 1e-12
    inside = np.zeros(g.n, dtype=bool)
    inside[got] = True
    k, s = len(got), dense_adjacency(g) @ inside
    gain_add = sign * (2.0 * s - (d / g.n) * (2 * k + 1)) - theta
    gain_drop = sign * (-2.0 * s + (d / g.n) * (2 * k - 1)) + theta
    best_add = gain_add[~inside].max(initial=-np.inf)
    best_drop = gain_drop[inside].max(initial=-np.inf)
    if k > 1:
        assert max(best_add, best_drop) <= 1e-9
    else:
        # with one vertex in X the search also stops where the drop it may
        # not take outgains the best add
        assert best_add <= max(best_drop, 0.0) + 1e-9

    if below_n:
        got, want = mixing_reports(g, expander_profile(g, d_ref=d), 10, seed)
        assert got == want


def test_discrepancy_search_takes_no_swap_step():
    # d_ref = 2n: from X = {0, 1} no single flip gains, while the frozen
    # search swaps 0 out for 4 and returns {1, 4}
    g = Graph(5, [(1, 4)])
    x = np.zeros(5)
    assert discrepancy_search_reference(g, 10.0, x, 1.0, -7.0).tolist() == [1, 4]
    assert spectral._discrepancy_search(g, 10.0, x, 1.0, -7.0).tolist() == [0, 1]


def test_mixing_bounds_report_a_failed_adversarial_eigensolve():
    # a failed extreme eigensolve drops its discrepancy sets from the
    # check, so the report must name it
    g = gen_random_regular(48, 6, 0)
    prof = expander_profile(g)
    real = spectral._extreme_eigenpair

    def eigenpair(mv, n, which, tol_abs, norm_bound=None):
        if which == "LA":
            raise NumericalError("no converged eigenpair")
        return real(mv, n, which, tol_abs, norm_bound)

    with mock.patch.object(spectral, "_extreme_eigenpair", eigenpair):
        rep = check_mixing_bounds(g, prof, trials=10, seed=0)
    assert rep.skipped == ("adversarial_LA",)
    assert record_json(rep)["skipped"] == ["adversarial_LA"]


def subset_counts(g):
    """E[X, Y] = e(X, Y) for every pair of vertex subsets, by S A S^T with S
    the indicator rows of all 2^n subsets; a subset is indexed by its bitmask."""
    S = ((np.arange(2 ** g.n)[:, None] >> np.arange(g.n)) & 1).astype(np.float64)
    return S.sum(axis=1), S @ dense_adjacency(g) @ S.T


def bitmask(xs):
    return sum(1 << int(v) for v in xs)


SMALL_GRAPHS = {
    "complete:9": gen_named("complete", 9),
    "cycle:10": gen_named("cycle", 10),
    "path:10": gen_named("path", 10),
    "star:10": gen_named("star", 10),
    "two_cliques_bridged:10": gen_named("two_cliques_bridged", 10),
    "regular:10,3": gen_random_regular(10, 3, 0),
    "regular:10,4": gen_random_regular(10, 4, 2),
    "er:10,0.5": gen_erdos_renyi(10, 0.5, 3),
    "er:9,0.3": gen_erdos_renyi(9, 0.3, 1),
}


@pytest.mark.parametrize("g", SMALL_GRAPHS.values(), ids=SMALL_GRAPHS.keys())
def test_mixing_report_matches_every_subset(g):
    # e(X, Y) over all subsets checks each recorded count, and the search
    # results against every single flip
    n, full = g.n, 2 ** g.n - 1
    sizes, E = subset_counts(g)
    prof = expander_profile(g)
    d = prof.d_ref
    counted, searched = [], []
    real_count, real_search = spectral.edges_between, spectral._discrepancy_search

    def count(g_, xs, ys):
        counted.append((bitmask(xs), bitmask(ys)))
        return real_count(g_, xs, ys)

    def search(g_, d_ref, x, sign, theta):
        xs = real_search(g_, d_ref, x, sign, theta)
        searched.append((sign, theta, bitmask(xs)))
        return xs

    with mock.patch.object(spectral, "edges_between", count), \
            mock.patch.object(spectral, "_discrepancy_search", search):
        rep = check_mixing_bounds(g, prof, trials=40, seed=0)

    calls = iter(counted)
    for e in rep.entries:
        if e.lemma == "internal_pairs":
            X, Y = next(calls)
            assert X == Y
            want = E[X, X]
        elif e.lemma == "cut_to_complement":
            want = E[X, full ^ X]
        elif e.lemma == "incident_edge_mass":
            want = E[X, full]
        elif e.lemma == "nested_cut":
            X2, Y = next(calls)
            assert X2 == X and X & ~Y == 0 and e.Y_size == sizes[Y]
            want = E[X, full ^ Y]
        else:
            want = E[X, full ^ Y]  # small_set_outflow, after its nested_cut
        assert e.value == want and e.X_size == sizes[X], e
    assert next(calls, None) is None

    # a search stops where no flip it may make gains more than its 1e-12
    # threshold: an add, or a drop that leaves X nonempty
    assert len(searched) == 16
    flips = np.arange(2 ** n)[:, None] ^ (1 << np.arange(n))
    for sign, theta, X in searched:
        objective = sign * (np.diag(E) - (d / n) * sizes ** 2) - theta * sizes
        moves = flips[X][sizes[flips[X]] >= 1]
        assert objective[moves].max() - objective[X] <= 1e-9

    # the profile bounds the discrepancy of every subset, and on these
    # graphs the checked sets reach the worst subset
    slack = prof.alpha * d * sizes[1:] - np.abs(np.diag(E)[1:] - (d / n) * sizes[1:] ** 2)
    assert slack.min() >= -rep.allowance
    worst = min(e.slack for e in rep.entries if e.lemma == "internal_pairs")
    assert worst == pytest.approx(slack.min(), abs=1e-9)


EXACT_GRAPHS = {
    "cycle:16": gen_named("cycle", 16),
    "two_cliques_bridged:16": gen_named("two_cliques_bridged", 16),
    "star:12": gen_named("star", 12),
    "path:14": gen_named("path", 14),
    "complete:9": gen_named("complete", 9),
    "er:16,0.3": gen_erdos_renyi(16, 0.3, 1),
    "regular:16,5": gen_random_regular(16, 5, 2),
}


@pytest.mark.parametrize("g", EXACT_GRAPHS.values(), ids=EXACT_GRAPHS.keys())
def test_single_set_lemmas_hold_on_every_subset(g):
    # with its measured profile, a small graph meets each single-set lemma
    # on every nonempty subset, which proves them for that graph; no set the
    # check samples or searches has less slack than the exact minimum
    prof = expander_profile(g)
    exact = exact_single_set_slacks(g, prof)
    assert min(exact.values()) >= -10.0 * prof.tol * prof.d_ref * g.n, exact
    rep = check_mixing_bounds(g, prof, trials=20, seed=0)
    for lemma, least in exact.items():
        assert min(e.slack for e in rep.entries if e.lemma == lemma) >= least, (lemma, exact)
