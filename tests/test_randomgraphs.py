"""Random-graph predictions: rate function roots, tail bounds, calibration.

The binomial ratio check is the load-bearing inequality, so it is verified
against 60-digit exact sums. The norm and degree bounds are calibrated by
Monte Carlo against the actual generator on fixed seeds.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kurasync import (
    BracketError,
    DomainError,
    ExpanderProfile,
    InputError,
    NumericalError,
    er_failure_probability,
    er_prediction,
    gamma_roots,
    gamma_roots_eps,
    gen_erdos_renyi,
    h_func,
    theorem_condition,
)
from kurasync import randomgraphs
from kurasync.randomgraphs import (
    CERTIFIABLE_VERDICT,
    VACUOUS_VERDICT,
    _brent,
)
from kurasync.spectral import record_json

from _lemmas import (
    SYMMETRIZATION_MILESTONES,
    binom_tail_ratio_check,
    chernoff_degree_bound,
    concentration_tail,
    concentration_tail_gamma,
    symmetrization_factor,
    symmetrization_norm_bound,
)
from _oracles import centered_norm_floor, er_degree_sequence, exact_binom_ratio


def test_h_func_shape():
    assert h_func(0.0) == 0.0
    grid = np.linspace(-0.99, 5.0, 500)
    vals = np.array([h_func(float(c)) for c in grid])
    assert np.all(vals[grid != 0.0] > 0.0)
    # matches the closed form term by term
    for c in (-0.9, -0.3, 0.4, 2.0):
        assert h_func(c) == pytest.approx((1 + c) * math.log(1 + c) - c, abs=1e-15)
    # approaches 1 from below as c -> -1
    assert 0.99 < h_func(-1.0 + 1e-9) < 1.0
    with pytest.raises(DomainError):
        h_func(-1.0)
    with pytest.raises(DomainError):
        h_func(-2.0)


def test_gamma_roots_residuals_and_window():
    for gamma in np.geomspace(1.001, 1e6, 40):
        cm, cp = gamma_roots(float(gamma))
        assert -1.0 < cm < 0.0 < cp
        assert abs(gamma * h_func(cm) - 1.0) < 1e-9
        assert abs(gamma * h_func(cp) - 1.0) < 1e-9


def test_gamma_roots_limits_and_values():
    cm, cp = gamma_roots(2.0)
    assert cm == pytest.approx(-0.813317691149163, abs=1e-12)
    assert cp == pytest.approx(1.1555352035005027, abs=1e-12)

    # gamma -> 1+ pushes the window out to its extreme (-1, e-1)
    cm, cp = gamma_roots(1.0 + 1e-6)
    assert abs(cm + 1.0) < 1e-6
    assert abs(cp - (math.e - 1.0)) < 1e-5

    # dense graphs concentrate: both roots shrink like sqrt(2/gamma)
    cm, cp = gamma_roots(1e6)
    scale = math.sqrt(2e-6)
    assert abs(cm) == pytest.approx(scale, rel=0.01)
    assert cp == pytest.approx(scale, rel=0.01)

    prev_cm, prev_cp = gamma_roots(1.5)
    for gamma in (2.0, 4.0, 16.0, 256.0):
        cm, cp = gamma_roots(gamma)
        assert cm > prev_cm and cp < prev_cp  # window shrinks with density
        prev_cm, prev_cp = cm, cp

    with pytest.raises(DomainError):
        gamma_roots(1.0)
    with pytest.raises(DomainError):
        gamma_roots(0.5)


def brent_checked_against_brentq(f, xa, xb, xtol):
    """_brent's root, asserted bitwise equal to scipy's brentq on the same
    call; where brentq rejects the bracket, _brent must raise BracketError."""
    try:
        want = brentq(f, xa, xb, xtol=xtol)
    except ValueError:
        with pytest.raises(BracketError):
            _brent(f, xa, xb, xtol)
        raise
    got = _brent(f, xa, xb, xtol)
    assert got.hex() == want.hex(), (xa, xb)
    return got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_brent_roots_are_bitwise_brentq(data):
    # every root the package takes, on h(c) - t over its own brackets
    t = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), label="target")
    eps = data.draw(st.floats(1e-3, 0.9), label="eps")
    gamma = data.draw(st.floats(1.0 + eps, 1.0 + eps ** -2, exclude_min=True,
                                exclude_max=True), label="gamma")
    with mock.patch.object(randomgraphs, "_brent", brent_checked_against_brentq):
        for target in (t, 1.0 / gamma, (1.0 + eps) / gamma):
            randomgraphs._h_root_positive(target)
            try:
                randomgraphs._h_root_negative(target)
            except ValueError:
                # the bracket's left end has h = 1 - 3.6e-14, so only
                # targets above that have no root in it
                assert target > 1.0 - 4e-14
        try:
            gamma_roots_eps(gamma, eps)
        except ValueError:
            assert (1.0 + eps) / gamma > 1.0 - 4e-14


def test_brent_failures_are_typed():
    # h - 0.5 is negative on the whole bracket
    with pytest.raises(BracketError, match="same sign"):
        _brent(lambda c: h_func(c) - 0.5, 0.1, 0.2, 1e-13)
    # a sign step at 0 with the smallest xtol: the bracket shrinks towards
    # 0 from 1e300 by halves, far beyond 100 iterations
    def step(x):
        return -1.0 if x < 0.0 else 1.0

    with pytest.raises(NumericalError, match="100 iterations"):
        _brent(step, -1e300, 1e300, 5e-324)
    with pytest.raises(RuntimeError):
        brentq(step, -1e300, 1e300, xtol=5e-324)
    # a target above h on all of the negative bracket (-1 + 1e-15, 0)
    with pytest.raises(BracketError, match="same sign"):
        randomgraphs._h_root(1.0 / (1.0 + 1e-15), -1.0 + 1e-15, -1e-300)


def test_gamma_at_window_lower_end_is_a_domain_error():
    # h(-1 + 1e-15) = 1 - 3.55e-14: a gamma closer than that to the window's
    # lower end has its negative root left of the bracket
    with pytest.raises(DomainError, match="gamma is too close to the window's lower end"):
        gamma_roots(1.0 + 1e-15)
    with pytest.raises(DomainError, match="gamma is too close to the window's lower end"):
        gamma_roots_eps(1.25000000000001, 0.25)
    with pytest.raises(DomainError, match="too close"):
        er_prediction(1000, 1.25000000000001, 0.25)
    # just past the cut-off both roots are found, the negative one at the
    # bracket's end
    assert gamma_roots(1.0 + 4e-14)[0] == -1.0 + 1e-15
    assert gamma_roots_eps(1.25 + 5e-14, 0.25)[0] > -1.0


def test_gamma_roots_eps_sandwich():
    for gamma, eps in [(3.0, 0.25), (2.0, 0.5), (1.2, 0.1), (20.0, 0.2)]:
        cm0, cp0 = gamma_roots(gamma)
        cm, cp = gamma_roots_eps(gamma, eps)
        assert cm0 < cm < 0.0 < cp < cp0

    with pytest.raises(DomainError):
        gamma_roots_eps(3.0, 0.0)
    with pytest.raises(DomainError):
        gamma_roots_eps(3.0, 1.0)
    with pytest.raises(DomainError):
        gamma_roots_eps(1.2, 0.25)  # gamma below 1 + eps
    with pytest.raises(DomainError):
        gamma_roots_eps(18.0, 0.25)  # gamma above 1 + eps^-2


def test_er_failure_probability_decays():
    # vacuous (clamped to 1) at any realistic n, non-trivial far out
    assert er_failure_probability(5000, 3.0, 0.25) == 1.0
    vals = [er_failure_probability(10 ** e, 3.0, 0.25) for e in (32, 36, 40, 44)]
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(0.8356961964588634, rel=1e-12)
    assert vals[2] == pytest.approx(0.12737329621381857, rel=1e-12)
    assert vals[3] == pytest.approx(0.018648724298665178, rel=1e-12)
    assert vals[1] > vals[2] > vals[3] > 0.0
    with pytest.raises(InputError):
        er_failure_probability(2, 3.0, 0.25)


def test_er_prediction_fields_and_verdict():
    pred = er_prediction(500, 3.0, 0.25)
    logn = math.log(500)
    assert pred.p == pytest.approx(3.0 * logn / 500, abs=1e-15)
    assert pred.d_ref == pytest.approx(3.0 * logn, abs=1e-12)
    assert pred.alpha_pred == pytest.approx(6.0 / math.sqrt(3.0 * logn), abs=1e-15)
    assert pred.alpha_pred > 0.2
    assert pred.verdict == VACUOUS_VERDICT
    assert (pred.c_minus_pred, pred.c_plus_pred) == gamma_roots(3.0)
    assert (pred.c_minus_eps, pred.c_plus_eps) == gamma_roots_eps(3.0, 0.25)

    # alpha_pred crosses 1/5 only when gamma log n reaches 900, and the
    # closed form must then pass on (alpha_pred, c_minus_eps, c_plus_eps)
    pred = er_prediction(10 ** 300, 5000.0, 0.01)
    prof = ExpanderProfile(n=pred.n, d_ref=pred.d_ref, alpha=pred.alpha_pred,
                           c_minus=pred.c_minus_eps, c_plus=pred.c_plus_eps)
    assert theorem_condition(prof).condition1 == pytest.approx(0.217, abs=1e-3)
    assert pred.verdict == CERTIFIABLE_VERDICT
    # below the gate but failing the closed form (condition1 = 47.2)
    pred = er_prediction(10 ** 98, 4.0, 0.5)
    assert pred.alpha_pred <= 0.2
    assert pred.verdict == VACUOUS_VERDICT

    keys = set(record_json(pred))
    assert keys == {
        "n", "gamma", "eps", "p", "d_ref", "alpha_pred", "c_minus_pred",
        "c_plus_pred", "c_minus_eps", "c_plus_eps", "failure_prob_bound",
        "verdict",
    }

    with pytest.raises(InputError):
        er_prediction(2, 3.0, 0.25)
    with pytest.raises(DomainError):
        er_prediction(3, 3.0, 0.5)  # p above 1


def test_n_without_a_float_value_is_an_input_error():
    # p = gamma log n / n would raise OverflowError
    for call in (er_prediction, er_failure_probability):
        with pytest.raises(InputError, match="larger integer"):
            call(10 ** 400, 3.0, 0.25)


def test_chernoff_degree_bound_formula():
    for n, gamma, eps in [(100, 3.0, 0.5), (5000, 30.0, 0.5), (10, 1.0, 3.0)]:
        expect = min(1.0, 2.0 * n ** (1.0 - eps * eps * gamma / 3.0))
        assert chernoff_degree_bound(n, gamma, eps) == expect
    assert chernoff_degree_bound(100, 1.0, 0.1) == 1.0  # clamped
    with pytest.raises(InputError):
        chernoff_degree_bound(0, 3.0, 0.5)
    with pytest.raises(InputError):
        chernoff_degree_bound(100, 3.0, 0.0)


def test_chernoff_degree_bound_calibration():
    # 100 degree sequences of G(2000, 30 log n / n): the bound says the
    # chance of any degree straying from pn by half is about 2e-5, so the
    # fixed-seed sample must show none
    n, gamma, eps = 2000, 30.0, 0.5
    p = gamma * math.log(n) / n
    lo, hi = (1.0 - eps) * p * n, (1.0 + eps) * p * n
    violating = 0
    for seed in range(100):
        deg = er_degree_sequence(n, p, seed)
        violating += bool(deg.min() < lo or deg.max() > hi)
    assert violating / 100 <= chernoff_degree_bound(n, gamma, eps) + 0.01
    assert violating == 0

    # the resampler feeding the calibration is stream-exact vs the generator
    g = gen_erdos_renyi(300, p, 7)
    assert np.array_equal(er_degree_sequence(300, p, 7), g.degrees)


def test_symmetrization_factor_and_milestones():
    for alpha_param, n, bound in SYMMETRIZATION_MILESTONES:
        f = symmetrization_factor(alpha_param, n)
        assert f <= bound
        assert f > 0.99 * bound  # tabulated values are tight
    # closed form re-evaluated
    for a, n in [(2.0, 4), (25.0, 450000)]:
        expect = 2 * math.sqrt(2) * math.exp(0.5 / a) * (1 + math.sqrt(2 * a * math.log(n) / n))
        assert symmetrization_factor(a, n) == pytest.approx(expect, abs=1e-15)
    assert symmetrization_factor(25.0, 10 ** 8) < symmetrization_factor(25.0, 1000)
    with pytest.raises(InputError):
        symmetrization_factor(0.0, 100)
    with pytest.raises(InputError):
        symmetrization_factor(2.0, 2)


def test_symmetrization_norm_bound_calibration():
    # mean operator norm over 50 draws of G(500, 0.3) sits near
    # 2 sqrt(np(1-p)) ~ 20.5, far inside the moment bound ~ 43.6
    n, p = 500, 0.3
    bound = symmetrization_norm_bound(n, p, alpha_param=3.0)
    norms = []
    for seed in range(50):
        g = gen_erdos_renyi(n, p, 100 + seed)
        A = np.zeros((n, n))
        eu, ev = g.edge_arrays()
        A[eu, ev] = 1.0
        A[ev, eu] = 1.0
        M = A - p * (np.ones((n, n)) - np.eye(n))  # centered at the mean
        w = np.linalg.eigvalsh(M)
        norms.append(max(abs(w[0]), abs(w[-1])))
    assert float(np.mean(norms)) <= bound
    assert float(np.mean(norms)) == pytest.approx(2.0 * math.sqrt(n * p * (1 - p)), rel=0.1)
    with pytest.raises(InputError):
        symmetrization_norm_bound(100, 0.0)


def test_concentration_tail_formulas():
    thr, tail = concentration_tail(2000, 0.2, 4.0)
    assert thr == pytest.approx(4.0 * math.sqrt(0.2 * 0.8 * 2000) + 4.0, abs=1e-12)
    assert tail == pytest.approx(2.0 * math.exp(-4.0), abs=1e-15)

    n, gamma = 5000, 3.0
    thr_g, tail_g = concentration_tail_gamma(n, gamma)
    glog = gamma * math.log(n)
    assert thr_g == pytest.approx(6.0 * math.sqrt(glog), abs=1e-12)
    assert tail_g == pytest.approx(2.0 * n ** (-gamma), rel=1e-12)
    # the specialization dominates the general form at its own (p, t)
    thr_ref, tail_ref = concentration_tail(n, glog / n, 2.0 * math.sqrt(glog))
    assert thr_ref <= thr_g + 1e-9
    assert tail_ref == pytest.approx(tail_g, rel=1e-12)

    with pytest.raises(DomainError):
        concentration_tail(999, 0.2, 4.0)
    with pytest.raises(InputError):
        concentration_tail(2000, 0.2, 0.0)
    with pytest.raises(DomainError):
        concentration_tail_gamma(999, 3.0)


def test_concentration_tail_calibration():
    # 60 fixed-seed draws of G(2000, 0.2); the power-method floor of the
    # centered norm must stay below the threshold in every draw (the tail
    # bound allows about two exceedances, the seeds give none)
    n, p, t = 2000, 0.2, 4.0
    thr, tail = concentration_tail(n, p, t)
    exceed = 0
    for seed in range(60):
        g = gen_erdos_renyi(n, p, seed)
        if centered_norm_floor(g, p * n, seed=seed) > thr:
            exceed += 1
    assert exceed / 60 <= tail
    assert exceed == 0


def test_binom_ratio_frozen_cases():
    bound, ratio = binom_tail_ratio_check(100, 0.05, 2, 0.5, "below")
    assert bound == 4.0
    assert ratio == pytest.approx(1.4621727478870281, rel=1e-14)
    bound, ratio = binom_tail_ratio_check(200, 0.1, 40, 1.0, "above")
    assert bound == 2.0
    assert ratio == pytest.approx(1.7302392247216898, rel=1e-14)


def test_binom_ratio_matches_exact_sums():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 25:
        n = int(rng.integers(20, 400))
        side = "below" if rng.random() < 0.5 else "above"
        if side == "below":
            c = float(rng.uniform(0.1, 0.9))
            p = float(rng.uniform(0.001, min(0.6, c / (1 - c * c))))
            k = int(rng.integers(0, max(1, math.floor((1 - c) * p * n)) + 1))
        else:
            c = float(rng.uniform(0.1, 2.5))
            p = float(rng.uniform(0.001, 0.5))
            k_lo = math.ceil((1 + c) * p * n)
            if k_lo > n - 1:
                continue
            k = int(rng.integers(k_lo, n))
        bound, ratio = binom_tail_ratio_check(n, p, k, c, side)
        assert ratio <= bound + 1e-12, (n, p, k, c, side)
        assert ratio == pytest.approx(exact_binom_ratio(n, p, k, side), rel=1e-12)
        checked += 1


def test_binom_ratio_hypothesis_errors():
    with pytest.raises(DomainError):
        binom_tail_ratio_check(100, 0.05, 2, 1.2, "below")  # c not below 1
    with pytest.raises(DomainError):
        binom_tail_ratio_check(100, 0.9, 2, 0.5, "below")  # p too large
    with pytest.raises(DomainError):
        binom_tail_ratio_check(100, 0.05, 40, 0.5, "below")  # k too large
    with pytest.raises(DomainError):
        binom_tail_ratio_check(100, 0.05, 2, 0.0, "above")  # c not positive
    with pytest.raises(DomainError):
        binom_tail_ratio_check(100, 0.5, 10, 1.0, "above")  # k below (1+c)pn
    with pytest.raises(InputError):
        binom_tail_ratio_check(100, 0.05, 2, 0.5, "sideways")
    with pytest.raises(InputError):
        binom_tail_ratio_check(100, 0.0, 2, 0.5, "below")
    with pytest.raises(InputError):
        binom_tail_ratio_check(100.0, 0.05, 2, 0.5, "below")
    with pytest.raises(InputError):
        binom_tail_ratio_check(100, 0.05, 2.5, 0.5, "below")
