"""Acceptance suite: ten end-to-end criteria with stated tolerances and
runtime budgets. Run with -s to see one summary line per criterion.

Criterion 9 carries a deliberate pair of tests for the 100-cycle: the
stated expectation cos(pi/50) describes the second-largest signed
eigenvalue, but the norm definition used everywhere else in the library
gives alpha = 1 exactly (even cycles are bipartite, so -2 is in the
spectrum and is orthogonal to the all-ones vector). The literal claim is
kept as a strict xfail; the corrected companion asserts the faithful
value through the same circulant oracle.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from kurasync import (
    amplification_run,
    centered_adjacency_alpha,
    centered_laplacian_extremes,
    check_mixing_bounds,
    classify_equilibrium,
    daido,
    energy,
    expander_profile,
    flow,
    gamma_roots,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    gradient,
    h_func,
    hessian,
    max_alpha_regular,
    min_ramanujan_degree,
    order_param_bounds,
    preset_regular_schedule,
    random_phases,
    theorem_condition,
)
from kurasync.spectral import ExpanderProfile

import dataclasses

from _lemmas import (
    binom_tail_ratio_check,
    cubic_root_a,
    kernel_stability_violations,
    mixing_violations,
    rotate_to_real_rho1,
    symmetrization_factor,
)
from _oracles import dense_alpha, dense_laplacian_extremes, fd_gradient, fd_jacobian
from test_cli import CLI_ENV

CYCLE_CAP = 20000  # cycle flows crawl near saddles without a cap


def _regular(alpha):
    return ExpanderProfile(n=1, d_ref=1.0, alpha=alpha, c_minus=-alpha, c_plus=alpha)


def test_01_preset_schedule_threshold():
    t0 = time.perf_counter()
    best = max_alpha_regular(preset_regular_schedule(), 0.05, 0.12)
    assert 0.0816 <= best <= 0.12

    trace = amplification_run(_regular(0.0816), preset_regular_schedule(),
                              mode="numeric")
    assert trace.verdict == "pass"
    betas = [r.beta for r in trace.rows]
    assert min(betas) >= 0.117
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 01: PASS (max alpha {best:.6f} in [0.0816, 0.12], "
          f"min beta {min(betas):.4f} >= 0.117, {elapsed:.2f}s)")


def test_02_closed_form_crossover():
    t0 = time.perf_counter()

    def passes(alpha):
        return theorem_condition(_regular(alpha)).verdict == "pass"

    lo, hi = 0.001, 0.01
    assert passes(lo) and not passes(hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    assert 0.0030 < lo < 0.0035
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 02: PASS (crossover {lo:.6f} inside (0.0030, 0.0035), "
          f"{elapsed:.2f}s)")


def test_03_ramanujan_degree():
    d = min_ramanujan_degree(0.0816)
    assert d == 600
    print(f"criterion 03: PASS (min degree at threshold 0.0816 is {d})")


def test_04_cubic_against_recursion():
    t0 = time.perf_counter()
    a02 = cubic_root_a(0.2)
    assert 0.431 <= a02 <= 0.434

    worst = 0.0
    for alpha in np.linspace(0.002, 0.1998, 100):
        root = cubic_root_a(float(alpha))
        limit = order_param_bounds(float(alpha), regular_mode=False).a
        worst = max(worst, abs(root - limit))
        assert root >= 1.0 - 3.0 * alpha - 1e-9
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 04: PASS (a(0.2) = {a02:.6f}, fixed point vs cubic "
          f"worst gap {worst:.2e} < 1e-9, {elapsed:.2f}s)")


def test_05_calculus_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_grad, worst_hess, worst_row = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(3, 51))
        g = gen_erdos_renyi(n, float(rng.uniform(0.15, 0.9)),
                            int(rng.integers(10 ** 6)))
        theta = rng.uniform(-np.pi, np.pi, size=n)

        grad = gradient(g, theta)
        ref = fd_gradient(lambda t: energy(g, t), theta)
        rel = np.max(np.abs(grad - ref)) / max(np.max(np.abs(grad)), 1.0)
        worst_grad = max(worst_grad, rel)

        H = hessian(g, theta)
        ref = fd_jacobian(lambda t: gradient(g, t), theta)
        rel = np.max(np.abs(H - ref)) / max(np.max(np.abs(H)), 1.0)
        worst_hess = max(worst_hess, rel)
        worst_row = max(worst_row, float(np.max(np.abs(H.sum(axis=1)))))

    assert worst_grad < 1e-6
    assert worst_hess < 1e-6
    assert worst_row < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 05: PASS (100 pairs, gradient rel {worst_grad:.2e}, "
          f"hessian rel {worst_hess:.2e}, row sums {worst_row:.2e}, {elapsed:.1f}s)")


def test_06_landscape_ground_truth():
    t0 = time.perf_counter()

    # (a) the complete graph synchronizes from every seed
    k10 = gen_named("complete", 10)
    synced = 0
    stable_states = []
    for seed in range(100):
        res = flow(k10, random_phases(10, seed))
        rho1 = abs(daido(res.final))
        synced += rho1 > 1.0 - 1e-6
        stable_states.append((k10, res.final))
    assert synced == 100

    # (b) the 10-cycle has twisted minima; stalled flows end with gradient
    # around 1e-8 (energy resolution), so classification uses 1e-6
    c10 = gen_named("cycle", 10)
    twisted = 0
    for seed in range(200):
        res = flow(c10, random_phases(10, seed), step_cap=CYCLE_CAP)
        rep = classify_equilibrium(c10, res.final, grad_tol=1e-6)
        if rep.classification != "stable":
            continue
        assert rep.hessian_min_eig_orth > 0.0
        stable_states.append((c10, res.final))
        if rep.rho1 < 0.1:
            twisted += 1
    assert twisted >= 1

    # (c) every stable state passes the kernel condition
    for g, theta in stable_states:
        assert kernel_stability_violations(g, rotate_to_real_rho1(theta)) == []

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 06: PASS (K_10 {synced}/100 synchronized, C_10 "
          f"{twisted} twisted minima in 200 seeds, kernel clean on "
          f"{len(stable_states)} stable states, {elapsed:.1f}s)")


def test_07_mixing_lemma_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    checked = 0
    for i in range(50):
        if i % 2 == 0:
            n = int(rng.integers(50, 401))
            g = gen_erdos_renyi(n, float(rng.uniform(0.05, 0.4)),
                                int(rng.integers(10 ** 6)))
        else:
            n = int(rng.integers(50, 401))
            d = int(rng.integers(6, 31))
            if (n * d) % 2:
                d += 1
            g = gen_random_regular(n, d, int(rng.integers(10 ** 6)))
        prof = expander_profile(g)
        rep = check_mixing_bounds(g, prof, trials=200, seed=i)
        assert rep.passed, f"graph {i}: worst slack {rep.worst():.3e}"
        checked += len(rep.entries)

    # corrupted profile: halving alpha must be caught
    g = gen_erdos_renyi(300, 0.2, 2)
    prof = expander_profile(g)
    bad = dataclasses.replace(prof, alpha=prof.alpha / 2.0)
    rep = check_mixing_bounds(g, bad, trials=200, seed=0)
    assert not rep.passed
    assert len(mixing_violations(rep)) >= 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 07: PASS (50 graphs, {checked} set checks, zero "
          f"violations; corrupted profile caught with "
          f"{len(mixing_violations(rep))} violations, {elapsed:.1f}s)")


def test_08_rate_function_closed_forms():
    t0 = time.perf_counter()
    cm, cp = gamma_roots(1.0 + 1e-6)
    assert abs(cm - (-1.0)) < 1e-3
    assert abs(cp - (math.e - 1.0)) < 1e-3

    worst = 0.0
    for gamma in np.geomspace(1.001, 1e6, 200):
        cm, cp = gamma_roots(float(gamma))
        worst = max(worst, abs(gamma * h_func(cm) - 1.0),
                    abs(gamma * h_func(cp) - 1.0))
    assert worst < 1e-9

    assert symmetrization_factor(2.0, 4) <= 7.91
    assert symmetrization_factor(25.0, 450000) <= 2.996

    rng = np.random.default_rng(808)
    cases = 0
    while cases < 500:
        n = int(rng.integers(20, 2001))
        if rng.random() < 0.5:
            c = float(rng.uniform(0.1, 0.9))
            p = float(rng.uniform(1e-3, min(0.6, c / (1.0 - c * c))))
            k = int(rng.integers(0, math.floor((1.0 - c) * p * n) + 1))
            side = "below"
        else:
            c = float(rng.uniform(0.1, 2.5))
            p = float(rng.uniform(1e-3, 0.5))
            k_lo = math.ceil((1.0 + c) * p * n)
            if k_lo > n - 1:
                continue
            k = int(rng.integers(k_lo, n))
            side = "above"
        bound, ratio = binom_tail_ratio_check(n, p, k, c, side)
        assert ratio <= bound + 1e-12, (n, p, k, c, side)
        cases += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 08: PASS (window endpoints at gamma -> 1, h-residual "
          f"{worst:.2e}, factor milestones hold, 500 binomial cases clean, "
          f"{elapsed:.1f}s)")


def test_09_spectral_closed_forms():
    t0 = time.perf_counter()
    for n in (5, 20, 100):
        prof = expander_profile(gen_named("complete", n))
        assert abs(prof.alpha - 1.0 / (n - 1)) < 1e-10
        assert abs(prof.c_minus) < 1e-10
        assert abs(prof.c_plus - 1.0 / (n - 1)) < 1e-10

    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(30, 401))
        g = gen_erdos_renyi(n, float(rng.uniform(0.1, 0.5)),
                            int(rng.integers(10 ** 6)))
        d = 2.0 * g.m / g.n
        worst = max(worst, abs(centered_adjacency_alpha(g, d) - dense_alpha(g, d)))
        cm, cp = centered_laplacian_extremes(g, d)
        cm_ref, cp_ref = dense_laplacian_extremes(g, d)
        worst = max(worst, abs(cm - cm_ref), abs(cp - cp_ref))
    assert worst < 2e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 09: PASS (K_n profiles exact to 1e-10 for n in "
          f"{{5, 20, 100}}, iterative vs dense worst {worst:.2e} < 2e-8, "
          f"{elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="literal expectation: the norm of the centered adjacency of "
    "C_100 is 2 (bipartite alternating eigenvector), so alpha = 1, not "
    "cos(pi/50); the stated value is the second-largest signed eigenvalue",
)
def test_09_cycle_alpha_literal_value():
    prof = expander_profile(gen_named("cycle", 100))
    assert abs(prof.alpha - math.cos(math.pi / 50)) < 1e-6


def test_09_cycle_alpha_corrected():
    # circulant oracle: eigenvalues 2cos(2 pi k/100), k = 1..99, norm 2
    prof = expander_profile(gen_named("cycle", 100))
    ks = np.arange(1, 100)
    eigs = 2.0 * np.cos(2.0 * np.pi * ks / 100)
    assert np.max(np.abs(eigs)) == 2.0
    assert abs(prof.alpha - np.max(np.abs(eigs)) / 2.0) < 1e-6
    # the stated number is the second-largest signed eigenvalue
    assert abs(np.max(eigs) / 2.0 - math.cos(math.pi / 50)) < 1e-12
    print("criterion 09 (cycle note): C_100 alpha is 1 exactly; "
          "cos(pi/50) is the second-largest signed eigenvalue over d")


def test_10_vacuous_regime_and_empirical_sync():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kurasync.cli", "er-predict",
         "--n", "500", "--gamma", "3", "--eps", "0.25"],
        capture_output=True, text=True, timeout=120, env=CLI_ENV,
    )
    assert proc.returncode == 1
    rep = json.loads(proc.stdout)
    assert rep["prediction"]["verdict"] == (
        "prediction only — certificate vacuous at this n")
    assert rep["prediction"]["alpha_pred"] > 0.2

    # the certificate is vacuous there, yet the flows synchronize anyway
    n = 500
    p = 3.0 * math.log(n) / n
    synced = 0
    for seed in range(20):
        g = gen_erdos_renyi(n, p, seed)
        res = flow(g, random_phases(n, 1000 + seed))
        synced += abs(daido(res.final)) > 1.0 - 1e-6
    assert synced == 20

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"criterion 10: PASS (vacuous verdict reported at n=500; "
          f"{synced}/20 random graphs synchronized empirically, {elapsed:.1f}s)")
