"""Expander profiles and the mixing-bound verifier.

The spectral quantities are cross-checked three ways: against a dense
eigendecomposition built independently from the edge arrays, against
closed forms on circulant and complete graphs, and against brute-force
pair counting inside the mixing report.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from kurasync import spectral
from kurasync import (
    ExpanderProfile,
    InputError,
    centered_adjacency_alpha,
    centered_laplacian_extremes,
    check_mixing_bounds,
    degree_bounds_from_profile,
    degree_implies_profile,
    expander_profile,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
)

from _oracles import dense_alpha, dense_laplacian_extremes

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


def test_profile_json_round_trip(tmp_path):
    prof = ExpanderProfile(n=50, d_ref=7.5, alpha=0.12, c_minus=-0.3,
                           c_plus=0.25, tol=1e-7, source="measured")
    again = ExpanderProfile.from_json_dict(prof.to_json_dict())
    assert again == prof

    path = tmp_path / "profile.json"
    prof.save(path)
    assert ExpanderProfile.load(path) == prof
    # file is plain JSON with all fields present
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert set(obj) == {"n", "d_ref", "alpha", "c_minus", "c_plus", "tol", "source"}

    # JSON ints are numbers for the float fields, as in --config, and load as floats
    ints = ExpanderProfile.from_json_dict(dict(obj, d_ref=8, alpha=0, tol=0))
    floats = dataclasses.replace(prof, d_ref=8.0, alpha=0.0, tol=0.0)
    assert json.dumps(ints.to_json_dict()) == json.dumps(floats.to_json_dict())
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
        assert rep.violations() == []
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
    bad = rep.violations()
    assert len(bad) >= 1
    assert {e.lemma for e in bad} == {"internal_pairs"}


def test_mixing_bounds_report_shape():
    g = gen_erdos_renyi(100, 0.15, 8)
    prof = expander_profile(g)
    rep = check_mixing_bounds(g, prof, trials=20, seed=3)
    assert rep.allowance == pytest.approx(10.0 * prof.tol * prof.d_ref * g.n)
    assert rep.worst() >= -rep.allowance
    obj = rep.to_json_dict()
    assert obj["passed"] is True
    assert obj["worst_slack"] == rep.worst()
    assert len(obj["entries"]) == len(rep.entries)
    for e in rep.entries:
        if e.lemma in ("nested_cut", "small_set_outflow"):
            assert e.Y_size >= e.X_size
        if e.lemma == "internal_pairs":
            assert e.value % 2 == 0  # double-sum convention


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
