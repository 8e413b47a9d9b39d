"""Order-parameter recursion, closed-form condition, amplification replay.

The cubic closed form is checked against a fine grid scan for its sign
change and against the recursion it is supposed to solve; the schedule
replay is pinned to hand-verified trace values at alpha = 0.0816.
"""

import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kurasync import (
    BracketError,
    CertResult,
    DomainError,
    ExpanderProfile,
    InputError,
    Schedule,
    ScheduleError,
    SmallArcStep,
    TailStep,
    amplification_run,
    expander_profile,
    gen_named,
    max_alpha_regular,
    min_ramanujan_degree,
    order_param_bounds,
    preset_regular_schedule,
    theorem_condition,
)
from kurasync import certify, cli
from kurasync.certify import TraceRow
from kurasync.randomgraphs import ErPrediction
from kurasync.spectral import MixingEntry, MixingReport, read_json, record_json, write_json

from _lemmas import cubic_root_a, order_param_validity_limit
from _oracles import amplification_reference, preset_schedule_reference, sign_scan_roots


def regular_profile(alpha):
    return ExpanderProfile(n=1, d_ref=1.0, alpha=alpha,
                           c_minus=-alpha, c_plus=alpha)


def cubic(alpha, a):
    return a ** 3 + (2.0 * alpha - 1.0) * a ** 2 + 2.0 * alpha ** 2 * a - 2.0 * alpha ** 4


def test_cubic_root_against_grid_scan():
    # independent root location: sign change on a 10^7-point grid
    for alpha in (0.05, 0.12, 0.2):
        a = cubic_root_a(alpha)
        roots = sign_scan_roots(lambda x: cubic(alpha, x), 0.3, 1.0, 10 ** 7)
        assert len(roots) == 1
        assert abs(a - roots[0]) < 1e-7
        assert abs(cubic(alpha, a)) < 1e-10


def test_cubic_root_values_and_bounds():
    assert 0.431 <= cubic_root_a(0.2) <= 0.434
    grid = np.linspace(0.001, 0.2, 40)
    last = 1.0
    for alpha in grid:
        a = cubic_root_a(float(alpha))
        assert a >= 1.0 - 3.0 * alpha - 1e-9
        assert a < last  # decreasing in alpha
        last = a


def test_cubic_root_domain():
    with pytest.raises(DomainError):
        cubic_root_a(0.0)
    with pytest.raises(DomainError):
        cubic_root_a(0.21)
    with pytest.raises(DomainError):
        cubic_root_a(-0.1)


def test_recursion_limit_solves_cubic():
    # the general-mode fixed point is exactly the cubic root: substituting
    # b = (1 - 2 alpha^2/a)^2 into 2a = 1 + b - 4 alpha gives the cubic
    for alpha in np.linspace(0.002, 0.2, 25):
        bounds = order_param_bounds(float(alpha), regular_mode=False)
        assert abs(bounds.a - cubic_root_a(float(alpha))) < 1e-9


def test_order_param_bounds_structure():
    b0 = order_param_bounds(0.0)
    assert b0.a == 1.0 and b0.b == 1.0 and b0.s_budget == 0.0

    for regular in (False, True):
        prev = 1.1
        for alpha in np.linspace(0.0, 0.19, 15):
            res = order_param_bounds(float(alpha), regular_mode=regular)
            assert res.a <= prev + 1e-15  # a decreases in alpha
            assert 0.0 <= res.b <= 1.0
            assert res.s_budget == res.alpha ** 2 / res.a
            assert res.a >= 1.0 - 3.0 * alpha - 1e-12
            prev = res.a

    # the regular refinement loses less per round trip
    gen = order_param_bounds(0.15, regular_mode=False)
    reg = order_param_bounds(0.15, regular_mode=True)
    assert reg.a > gen.a
    assert reg.s_budget < gen.s_budget


def test_order_param_bounds_domain():
    with pytest.raises(InputError):
        order_param_bounds(-0.01)
    with pytest.raises(DomainError):
        order_param_bounds(0.21)  # general-mode gate at 0.2
    with pytest.raises(DomainError):
        order_param_bounds(0.26, regular_mode=True)
    # a non-finite alpha is rejected before the recursion runs, where NaN
    # used to spend all FIXED_POINT_MAX_ITERS iterations
    with mock.patch.object(certify, "_fixed_point", side_effect=AssertionError):
        for alpha in (math.nan, math.inf, -math.inf):
            for regular in (False, True):
                with pytest.raises(InputError, match="finite and nonnegative"):
                    order_param_bounds(alpha, regular_mode=regular)


def test_validity_limits():
    reg = order_param_validity_limit(regular_mode=True)
    gen = order_param_validity_limit(regular_mode=False)
    assert 0.245 < reg < 0.247
    assert 0.2055 < gen < 0.2056
    assert order_param_validity_limit(regular_mode=True) == reg  # cached

    # just inside works, just outside raises
    order_param_bounds(reg - 1e-6, regular_mode=True)
    with pytest.raises(DomainError):
        order_param_bounds(reg + 1e-3, regular_mode=True)


def test_theorem_condition_formulas():
    # re-evaluate both closed forms independently on a spread of profiles
    rng = np.random.default_rng(17)
    for _ in range(50):
        alpha = float(rng.uniform(0.001, 0.4))
        cm = float(rng.uniform(-0.9, 0.3))
        cp = float(rng.uniform(cm, 0.8))
        prof = ExpanderProfile(n=100, d_ref=5.0, alpha=alpha, c_minus=cm, c_plus=cp)
        res = theorem_condition(prof)
        c1 = 64.0 * alpha * (1.0 + 2.0 * cp - cm) / (1.0 + cm) ** 2
        c2 = (64.0 * alpha * (1.0 + cp) * math.log((1.0 + cp + alpha) / (2.0 * alpha))
              / ((1.0 + cm) * (1.0 + 5.0 * cp - 4.0 * cm)))
        assert res.condition1 == c1
        assert res.condition2 == c2
        expect = "pass" if c1 < 1.0 and c2 < 1.0 and alpha <= 0.2 else "fail"
        assert res.verdict == expect


def test_theorem_condition_cases():
    res = theorem_condition(expander_profile(gen_named("complete", 10)))
    assert res.verdict == "fail"
    assert res.condition1 == pytest.approx(8.691358024691356, abs=1e-12)
    assert res.condition2 == pytest.approx(8.659037928830099, abs=1e-12)
    assert len(res.reasons) == 2

    res = theorem_condition(ExpanderProfile(n=10, d_ref=1.0, alpha=0.0,
                                            c_minus=0.0, c_plus=0.0))
    assert res.verdict == "pass"
    assert res.condition1 == 0.0 and res.condition2 == 0.0

    res = theorem_condition(ExpanderProfile(n=10, d_ref=1.0, alpha=0.1,
                                            c_minus=-1.0, c_plus=0.1))
    assert res.verdict == "fail"
    assert math.isinf(res.condition1)
    assert "disconnected" in res.reasons[0]

    res = theorem_condition(regular_profile(0.25))
    assert any("1/5" in r for r in res.reasons)

    obj = record_json(res)
    assert obj["verdict"] == "fail" and isinstance(obj["reasons"], list)


def test_preset_schedule_shape():
    sched = preset_regular_schedule()
    kinds = [s.kind for s in sched.steps]
    assert kinds == ["small_arc"] * 3 + ["tail"]
    assert all(s.eps == 0.23 and s.rho == 0.38 for s in sched.steps[:3])
    assert sched.steps[3].eps == 0.184


def test_schedule_validation():
    with pytest.raises(InputError):
        Schedule(steps=())
    with pytest.raises(InputError):
        Schedule(steps=(SmallArcStep(eps=0.0, rho=0.1),))
    with pytest.raises(InputError):
        Schedule(steps=(SmallArcStep(eps=0.1, rho=-0.1),))
    with pytest.raises(InputError):
        Schedule(steps=(TailStep(eps=0.1), TailStep(eps=0.1)))
    with pytest.raises(InputError):
        Schedule(steps=(SmallArcStep(eps=0.1, rho=0.1), "tail"))


def test_readme_schedule_example_is_the_preset():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    assert Schedule.from_json_dict(json.loads(blocks[0])) == preset_regular_schedule()


def test_schedule_json_round_trip(tmp_path):
    sched = preset_regular_schedule()
    again = Schedule.from_json_dict(record_json(sched))
    assert again == sched

    path = tmp_path / "schedule.json"
    write_json(path, record_json(sched))
    assert Schedule.from_json_dict(read_json(path)) == sched

    # JSON ints are numbers, as in --config, and load as floats
    ints = Schedule.from_json_dict({"steps": [{"kind": "tail", "eps": 1}]})
    assert json.dumps(record_json(ints)) == json.dumps(
        record_json(Schedule(steps=(TailStep(eps=1.0),))))
    with pytest.raises(InputError):
        Schedule.from_json_dict({"steps": [{"kind": "sideways", "eps": 0.1}]})
    # the large-arc step is gone: a run of them is a prefix of the tail
    with pytest.raises(InputError, match=r"step 1 .*kind small_arc or tail.*'large_arc'"):
        Schedule.from_json_dict({"steps": [{"kind": "small_arc", "eps": 0.23, "rho": 0.38},
                                           {"kind": "large_arc", "eps": 0.184},
                                           {"kind": "tail", "eps": 0.184}]})
    with pytest.raises(InputError):
        Schedule.from_json_dict([1, 2])


@pytest.mark.parametrize("data", [
    {"steps": [{"kind": "tail"}]},  # missing eps
    {"steps": [{"kind": "tail", "eps": "x"}]},
    {"steps": [5]},  # a step that is not an object
    {"steps": 5},
    {"steps": "tail"},
    {"steps": [{"kind": "small_arc", "eps": 0.2}]},  # missing rho
    {"steps": [{"kind": "tail", "eps": None}]},
    {"steps": [{"kind": "tail", "eps": [0.2]}]},
    {"steps": [{"kind": "tail", "eps": 10 ** 400}]},
    {"steps": [{"kind": ["tail"], "eps": 0.2}]},
    {"steps": []},
    {},
    None,
    {"steps": [{"kind": "tail", "eps": "0.2"}]},  # a string is not a number
    {"steps": [{"kind": "tail", "eps": True}]},
    {"steps": [{"kind": "small_arc", "eps": 0.2, "rho": True}]},
])
def test_schedule_json_rejects_malformed_input(data):
    with pytest.raises(InputError):
        Schedule.from_json_dict(data)


# the JSON text of one fixed instance of every record, as the reports carry it;
# a new dataclass field changes the reports and must change this table too
_ROW = TraceRow(3, 1.25, 2.0, 0.0, "small_arc", "alpha_n", "ok")
_ENTRY = MixingEntry(lemma="cut", X_size=3, Y_size=7, lower=None, value=2.5,
                     upper=4.75, slack=0.5)
PINNED_JSON = [
    (lambda: ExpanderProfile(n=600, d_ref=120.0, alpha=0.15, c_minus=-0.125,
                             c_plus=0.0625, tol=1e-09, source="measured"),
     '{"alpha": 0.15, "c_minus": -0.125, "c_plus": 0.0625, "d_ref": 120.0, "n": 600, '
     '"source": "measured", "tol": 1e-09}'),
    (lambda: CertResult(verdict="pass", condition1=0.25, condition2=0.5),
     '{"condition1": 0.25, "condition2": 0.5, "reasons": [], "verdict": "pass"}'),
    (lambda: CertResult(verdict="fail", condition1=1.5, condition2=0.75,
                        reasons=("alpha=0.3 exceeds the 1/5 gate",
                                 "condition1=1.500000 is not below 1")),
     '{"condition1": 1.5, "condition2": 0.75, "reasons": ["alpha=0.3 exceeds the 1/5 gate", '
     '"condition1=1.500000 is not below 1"], "verdict": "fail"}'),
    (preset_regular_schedule,
     '{"steps": [' + ', '.join(3 * ['{"eps": 0.23, "kind": "small_arc", "rho": 0.38}']
                               + ['{"eps": 0.184, "kind": "tail"}']) + ']}'),
    (lambda: _ROW,
     '{"beta": 1.25, "cap_hit": "alpha_n", "k": 3, "mass_frac": 0.0, "mass_ratio": 2.0, '
     '"status": "ok", "step_kind": "small_arc"}'),
    (lambda: amplification_run(regular_profile(0.03), preset_regular_schedule(),
                               mode="numeric"),
     '{"alpha": 0.03, "final_check_lhs": 0.010157996547701536, '
     '"final_check_rhs": 0.0009442739504261267, "mode": "numeric", "reason": "", "rows": ['
     + ', '.join(
         f'{{"beta": {beta}, "cap_hit": "{cap}", "k": {k}, "mass_frac": {frac}, '
         f'"mass_ratio": {ratio}, "status": "ok", "step_kind": "{kind}"}}'
         for k, (beta, cap, frac, ratio, kind) in enumerate([
             ("1.5707963267948966", "none", "0.0", "1.0", "start"),
             ("1.4586696323597543", "alpha_n", "0.0", "4.833333333333334", "small_arc"),
             ("1.346542937924612", "alpha_n", "0.0", "23.361111111111118", "small_arc"),
             ("1.2344162434894699", "alpha_n", "0.0", "112.91203703703708", "small_arc"),
             ("1.2027368618553653", "half_n", "0.5", "112.91203703703708", "tail"),
         ]))
     + '], "verdict": "pass"}'),
    (lambda: amplification_run(regular_profile(0.15), preset_regular_schedule(),
                               mode="numeric"),
     '{"alpha": 0.15, "final_check_lhs": 0.0, "final_check_rhs": 0.031514487486668574, '
     '"mode": "numeric", "reason": "step 3: angle budget exhausted", "rows": ['
     + ', '.join(
         f'{{"beta": {beta}, "cap_hit": "{cap}", "k": {k}, "mass_frac": 0.0, '
         f'"mass_ratio": {ratio}, "status": "{status}", "step_kind": "{kind}"}}'
         for k, (beta, cap, ratio, status, kind) in enumerate([
             ("1.5707963267948966", "none", "1.0", "ok", "start"),
             ("0.8396251136361089", "alpha_n", "1.7666666666666666", "ok", "small_arc"),
             ("0.10845390047732129", "alpha_n", "3.121111111111111", "ok", "small_arc"),
             ("-0.6227173126814664", "none", "3.121111111111111", "below_zero", "small_arc"),
         ]))
     + '], "verdict": "fail"}'),
    (lambda: ErPrediction(n=100000, gamma=3.0, eps=0.25, p=0.5, d_ref=34.5,
                          alpha_pred=0.25, c_minus_pred=-0.5, c_plus_pred=0.75,
                          c_minus_eps=-0.25, c_plus_eps=0.5, failure_prob_bound=1.0,
                          verdict="vacuous"),
     '{"alpha_pred": 0.25, "c_minus_eps": -0.25, "c_minus_pred": -0.5, "c_plus_eps": 0.5, '
     '"c_plus_pred": 0.75, "d_ref": 34.5, "eps": 0.25, "failure_prob_bound": 1.0, '
     '"gamma": 3.0, "n": 100000, "p": 0.5, "verdict": "vacuous"}'),
    (lambda: _ENTRY,
     '{"X_size": 3, "Y_size": 7, "lemma": "cut", "lower": null, "slack": 0.5, '
     '"upper": 4.75, "value": 2.5}'),
    (lambda: MixingReport(entries=(_ENTRY,), skipped=("nested_cut",), passed=True,
                          allowance=1e-06, trials=4, seed=0),
     '{"allowance": 1e-06, "entries": [{"X_size": 3, "Y_size": 7, "lemma": "cut", '
     '"lower": null, "slack": 0.5, "upper": 4.75, "value": 2.5}], "passed": true, '
     '"seed": 0, "skipped": ["nested_cut"], "trials": 4}'),
]


@pytest.mark.parametrize("make, text", PINNED_JSON)
def test_record_json_text_is_pinned(make, text, tmp_path):
    record = make()
    assert json.dumps(record_json(record), sort_keys=True) == text
    if hasattr(record, "from_json_dict"):
        path = tmp_path / "record.json"
        write_json(path, record_json(record))
        assert path.read_text(encoding="utf-8") == (
            json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")
        assert type(record).from_json_dict(read_json(path)) == record


def engine_outcome(run, *args, **kwargs):
    """The trace's JSON text, or the type and message of what run raised."""
    try:
        return json.dumps(record_json(run(*args, **kwargs)), sort_keys=True)
    except Exception as exc:
        return type(exc), str(exc)


def profiles():
    # regular windows (alpha, -alpha, alpha) switch on the regular budget
    # recursion; general windows reach past c_minus = -1
    alphas = st.one_of(st.sampled_from([0.0, 0.0031, 0.03, 0.0816, 0.15, 0.2, 0.24]),
                       st.floats(0.0, 0.3))
    regular = alphas.map(regular_profile)
    general = st.builds(
        lambda a, cm, width: ExpanderProfile(n=1, d_ref=1.0, alpha=a, c_minus=cm,
                                             c_plus=cm + width),
        alphas, st.floats(-1.2, 0.5), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    return st.one_of(regular, general)


def schedules():
    eps = st.floats(0.01, 1.0)
    body = st.lists(st.builds(SmallArcStep, eps=eps, rho=st.floats(0.01, 2.0)), max_size=8)
    # a tail step is optional, and may come first, before its gate
    tail = st.one_of(st.just(()), st.builds(lambda e: (TailStep(eps=e),), eps))
    built = st.builds(lambda b, t: tuple(b) + t, body, tail).filter(bool).map(
        lambda steps: Schedule(steps=steps))
    return st.one_of(st.none(), st.just(preset_regular_schedule()), built)


@settings(max_examples=400, deadline=None)
@given(profiles(), schedules(), st.sampled_from(["numeric", "paper_proof"]))
@example(regular_profile(0.15), preset_regular_schedule(), "numeric")
@example(regular_profile(0.0816), preset_regular_schedule(), "paper_proof")
@example(ExpanderProfile(n=1, d_ref=1.0, alpha=0.05, c_minus=-1.2, c_plus=0.05),
         None, "paper_proof")
@example(regular_profile(0.05), Schedule(steps=(TailStep(eps=0.1),)), "numeric")
@example(regular_profile(0.03), Schedule(steps=(SmallArcStep(eps=0.2, rho=0.4),)), "numeric")
def test_amplification_matches_reference(prof, schedule, mode):
    assert engine_outcome(amplification_run, prof, schedule, mode=mode) == \
        engine_outcome(amplification_reference, prof, schedule, mode=mode)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(0.001, 0.2).map(regular_profile),
                 st.builds(lambda a, cm, cp: ExpanderProfile(n=1, d_ref=1.0, alpha=a,
                                                             c_minus=cm, c_plus=cp),
                           st.floats(0.001, 0.2, exclude_min=True, exclude_max=True),
                           st.floats(-0.7, 0.0, exclude_min=True, exclude_max=True),
                           st.floats(0.0, 0.7, exclude_min=True, exclude_max=True))),
       st.sampled_from(["numeric", "paper_proof"]))
@example(regular_profile(0.08217120361328124), "numeric")
@example(regular_profile(0.08217163085937501), "numeric")
@example(regular_profile(0.061646636962890626), "paper_proof")
@example(regular_profile(0.0616467), "paper_proof")
def test_preset_without_large_arc_steps_keeps_every_verdict(prof, mode):
    # the old preset's four large-arc steps at the tail's eps were the
    # tail's first four terms, so dropping them moves only rounding
    old = amplification_reference(prof, preset_schedule_reference(), mode=mode)
    new = amplification_run(prof, preset_regular_schedule(), mode=mode)
    assert new.verdict == old.verdict
    assert abs(new.final_check_lhs - old.final_check_lhs) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda a, cm, w: ExpanderProfile(n=1, d_ref=1.0, alpha=a, c_minus=cm,
                                                  c_plus=cm + w),
                 st.floats(0.001, 0.2), st.floats(-0.75, 0.5), st.floats(0.0, 1.0)),
       st.floats(0.0, 1.0), st.floats(0.01, 2.0), st.sampled_from(["numeric", "paper_proof"]))
def test_illegal_schedules_raise_schedule_error(prof, over, rho, mode):
    # 1 + c_plus >= 1/4 > alpha puts the tail's gate (1 + c_plus + alpha)/(2 alpha)
    # above the starting ratio 1
    too_wide = 1.0 + prof.c_minus + over
    legal = 0.5 * (1.0 + prof.c_minus)
    for steps in ((SmallArcStep(eps=too_wide, rho=rho), TailStep(eps=legal)),
                  (TailStep(eps=too_wide),),
                  (TailStep(eps=legal),)):
        schedule = Schedule(steps=steps)
        with pytest.raises(ScheduleError):
            amplification_run(prof, schedule, mode=mode)
        assert engine_outcome(amplification_run, prof, schedule, mode=mode) == \
            engine_outcome(amplification_reference, prof, schedule, mode=mode)


@pytest.mark.parametrize("schedule", [preset_regular_schedule(), None])
def test_amplification_detects_regular_budget(schedule):
    # max_alpha_regular's profiles (a, -a, a) need the regular budget
    # recursion: detection picks it for a > 0, and at a = 0 both give 0
    mode = "numeric" if schedule else "paper_proof"
    for a in (0.0, 0.001, 0.0031, 0.05, 0.0816, 0.15, 0.21, 0.24, 0.25):
        prof = regular_profile(a)
        assert engine_outcome(amplification_run, prof, schedule, mode=mode) == \
            engine_outcome(amplification_reference, prof, schedule, mode=mode,
                           regular_mode=True)


def test_amplification_preset_trace():
    tr = amplification_run(regular_profile(0.0816), preset_regular_schedule(),
                           mode="numeric")
    assert tr.verdict == "pass"
    assert tr.final_check_lhs == pytest.approx(0.009055288178210153, abs=1e-15)
    assert tr.final_check_rhs == pytest.approx(0.007722083173020028, abs=1e-15)
    assert tr.final_check_lhs > tr.final_check_rhs

    rows = tr.rows
    assert [r.step_kind for r in rows] == (
        ["start"] + ["small_arc"] * 3 + ["tail"])
    assert rows[0].beta == pytest.approx(math.pi / 2, abs=1e-15)
    betas = [r.beta for r in rows]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))  # strictly shrinking
    assert min(betas) >= 0.117
    assert min(betas) == pytest.approx(0.14130345309246664, abs=1e-12)

    # small-arc rows are capped by the alpha*n absolute bound, the tail
    # certifies half the vertices outright
    assert [r.cap_hit for r in rows] == (
        ["none"] + ["alpha_n"] * 3 + ["half_n"])
    ratios = [r.mass_ratio for r in rows]
    assert all(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert rows[-1].mass_frac == 0.5
    assert all(r.status == "ok" for r in rows)


def test_amplification_paper_mode_never_beats_numeric():
    sched = preset_regular_schedule()
    for alpha in (0.005, 0.01, 0.03, 0.05, 0.0816):
        prof = regular_profile(alpha)
        numeric = amplification_run(prof, sched, mode="numeric").verdict
        paper = amplification_run(prof, sched, mode="paper_proof").verdict
        if paper == "pass":
            assert numeric == "pass"
    # at the preset's edge the overestimates lose the verdict
    assert amplification_run(regular_profile(0.0816), sched,
                             mode="paper_proof").verdict == "fail"


def test_amplification_failure_is_a_verdict():
    tr = amplification_run(regular_profile(0.15), preset_regular_schedule(),
                           mode="numeric")
    assert tr.verdict == "fail"
    assert "angle budget exhausted" in tr.reason
    assert tr.rows[-1].status == "below_zero"

    # disconnected window short-circuits
    prof = ExpanderProfile(n=1, d_ref=1.0, alpha=0.05, c_minus=-1.2, c_plus=0.05)
    tr = amplification_run(prof, preset_regular_schedule(), mode="numeric")
    assert tr.verdict == "fail"
    assert "disconnected" in tr.reason


def test_amplification_argument_errors():
    prof = regular_profile(0.05)
    with pytest.raises(InputError):
        amplification_run(prof, preset_regular_schedule(), mode="fast")
    with pytest.raises(InputError):
        amplification_run(prof, None, mode="numeric")
    with pytest.raises(ScheduleError):
        amplification_run(prof, Schedule(steps=(TailStep(eps=0.1),)),
                          mode="numeric")


def test_amplification_auto_paper_proof():
    assert amplification_run(regular_profile(0.0031), None,
                             mode="paper_proof").verdict == "pass"
    assert amplification_run(regular_profile(0.0032), None,
                             mode="paper_proof").verdict == "fail"


def test_max_alpha_regular_brackets():
    v = max_alpha_regular(preset_regular_schedule(), 0.05, 0.12)
    assert v == pytest.approx(0.08217163085937501, abs=1e-12)
    assert v >= 0.0816

    auto = max_alpha_regular(None, 0.001, 0.01, mode="paper_proof")
    assert auto == pytest.approx(0.00314453125, abs=1e-12)
    # the aggregate proof has no numeric replay, as in amplification_run
    with pytest.raises(InputError, match="numeric mode needs an explicit schedule"):
        max_alpha_regular(None, 0.001, 0.01)

    with pytest.raises(BracketError):
        max_alpha_regular(preset_regular_schedule(), 0.2, 0.25)
    with pytest.raises(BracketError):
        max_alpha_regular(preset_regular_schedule(), 0.01, 0.05)
    with pytest.raises(InputError):
        max_alpha_regular(None, 0.05, 0.01, mode="paper_proof")
    # an infinite tol would return lo, the bracket's end, as the answer
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(InputError, match="tol must be finite and positive"):
            max_alpha_regular(None, 0.001, 0.01, tol=tol, mode="paper_proof")
    # both ends must be finite: [lo, inf) would be halved forever
    for lo, hi in ((0.001, math.inf), (0.001, math.nan), (math.nan, 0.25), (-math.inf, 0.25)):
        with pytest.raises(InputError, match="lo < hi < inf"):
            max_alpha_regular(preset_regular_schedule(), lo, hi)


def test_max_alpha_regular_tol_below_float_spacing():
    # once the midpoint rounds to an endpoint the bracket cannot shrink; its
    # ends are then adjacent floats, the last that passes and the first that fails
    v = max_alpha_regular(preset_regular_schedule(), 0.05, 0.12, tol=1e-300)
    assert v == 0.0821733903481278
    assert amplification_run(regular_profile(v), preset_regular_schedule(),
                             mode="numeric").verdict == "pass"
    assert amplification_run(regular_profile(math.nextafter(v, 1.0)), preset_regular_schedule(),
                             mode="numeric").verdict == "fail"


def test_min_ramanujan_degree():
    assert min_ramanujan_degree(0.0816) == 600
    assert min_ramanujan_degree(1.0) == 3
    # the defining inequality is tight: d passes, d - 1 does not
    for t in (0.9, 0.5, 0.21, 0.1, 0.05, 0.0816):
        d = min_ramanujan_degree(t)
        assert 2.0 * math.sqrt(d - 1.0) / d <= t
        if d > 3:
            assert 2.0 * math.sqrt(d - 2.0) / (d - 1.0) > t
    with pytest.raises(InputError):
        min_ramanujan_degree(0.0)
    with pytest.raises(InputError):
        min_ramanujan_degree(1.5)


def test_trace_csv(tmp_path):
    tr = amplification_run(regular_profile(0.0816), preset_regular_schedule(),
                           mode="numeric")
    prof = tmp_path / "profile.json"
    write_json(prof, record_json(regular_profile(0.0816)))
    out = tmp_path / "cert"
    bundle = cli.run(["certify", "--profile", str(prof), "--mode", "numeric", "--out", str(out)])
    lines = (out / "trace.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k,beta_k,mass_frac,step_kind"
    assert len(lines) == len(tr.rows) + 1
    assert float(lines[-1].split(",")[1]) == tr.rows[-1].beta

    obj = bundle.report["amplification"]
    assert bundle.exit_status == 0 and obj["verdict"] == "pass"
    assert len(obj["rows"]) == len(tr.rows)
