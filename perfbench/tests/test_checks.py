import numpy as np
import pytest

from perfbench import checks

LOWER, UPPER = -np.ones(3), np.ones(3)


def fabricated(**overrides):
    run = dict(
        best=np.array([0.5, -0.25, 0.0]),
        fbest=0.3125,
        history=np.array([2.0, 1.0, 0.3125]),
        evaluations=120,
    )
    run.update(overrides)
    context = dict(f_at_best=0.3125, lower=LOWER, upper=UPPER, counted=120, stop_at=-1.0, iterations=3)
    return run, context


def problems(run, context):
    return checks.check_run(run["best"], run["fbest"], run["history"], run["evaluations"], **context)


def test_a_correct_result_passes():
    assert problems(*fabricated()) == []


def test_fbest_that_is_not_f_of_best_is_flagged():
    run, context = fabricated()
    context["f_at_best"] = 0.5
    assert any("f(best)" in p for p in problems(run, context))


@pytest.mark.parametrize(
    "overrides, word",
    [
        (dict(best=np.array([0.5, -0.25, 1.5])), "outside the box"),
        (dict(history=np.array([1.0, 2.0, 0.3125])), "increases"),
        (dict(history=np.array([2.0, 1.0, 0.5])), "history ends"),
        (dict(evaluations=119), "counted"),
        (dict(history=np.array([2.0, 0.3125])), "iteration"),
    ],
)
def test_each_broken_invariant_is_flagged(overrides, word):
    assert any(word in p for p in problems(*fabricated(**overrides)))


def test_an_early_stop_must_happen_at_the_first_iteration_that_reaches_the_target():
    run, context = fabricated(history=np.array([2.0, 0.3125]))
    context["stop_at"] = 0.5
    assert problems(run, context) == []
    run, context = fabricated()
    context["stop_at"] = 1.0  # reached at iteration 2, yet the run went on
    assert any("iteration" in p for p in problems(run, context))


def test_digest_sees_every_bit():
    run, _ = fabricated()
    base = checks.run_digest(**run)
    assert base == checks.run_digest(**run)
    nudged = np.nextafter(run["history"][0], 3.0)
    assert base != checks.run_digest(**dict(run, history=np.array([nudged, 1.0, 0.3125])))


def test_cli_views_must_agree():
    record = {"seed": 4, "best": [0.5, -0.25], "fbest": 0.3125, "evaluations": 90, "runtime_ms": 1.0}
    stdout = "seed 4: fbest=0.3125 evaluations=90 runtime=1.0 ms\n  best = [0.5, -0.25]\n"
    rows = checks.parse_history_csv("seed,iteration,fbest\n4,1,1.0\n4,2,0.3125\n")
    summary = checks.parse_summaries(stdout)[4]
    assert checks.check_cli_record(record, 4, summary, rows[4]) == []
    bad = dict(record, evaluations=91)
    assert checks.check_cli_record(bad, 4, summary, rows[4])
    assert checks.check_cli_record(record, 4, summary, rows[4][:1])
