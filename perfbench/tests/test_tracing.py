import numpy as np

from perfbench import tracing


def hand_built_tree():
    #  root  0 ........................................ 100
    #    a      10 ............ 40
    #      c        20 .. 30
    #    b                          50 ...... 70
    #  root2                                         100 .. 120
    names = ["sta_run", "engine.phase", "operators.op_rotate", "engine.select_best"]
    cols = {
        "name": np.array([0, 1, 2, 3, 0]),
        "start": np.array([0, 10, 20, 50, 100]),
        "end": np.array([100, 40, 30, 70, 120]),
        "parent": np.array([-1, 0, 1, 0, -1]),
        "instance": np.array([0, 0, 0, 0, 1]),
    }
    return names, cols


def test_self_time_is_duration_minus_children():
    _, cols = hand_built_tree()
    got = tracing.self_times(cols["start"], cols["end"], cols["parent"])
    assert got.tolist() == [100 - 30 - 20, 30 - 10, 10, 20, 20]


def test_layer_self_times_add_up_to_the_traced_wall_time():
    names, cols = hand_built_tree()
    m = tracing.layer_metrics(names, cols)
    assert m["trace.wall_ms"] == 120 / 1e6
    assert m["trace.residual_ms"] == 0
    assert m["sta_run.calls"] == 2
    assert m["sta_run.self_ms"] == (50 + 20) / 1e6
    assert m["engine.phase.self_ms"] == 20 / 1e6
    assert abs(sum(m[f"{n}.share"] for n in names) - 1.0) < 1e-12


def test_cli_steps_split_run_command_at_its_seed_loop():
    names = ["cli.run_command", "sta_run", "cli.resolve_objective"]
    cols = {
        "name": np.array([0, 2, 1, 1]),
        "start": np.array([0, 1, 5, 20]),
        "end": np.array([50, 4, 15, 30]),
        "parent": np.array([-1, 0, 0, 0]),
        "instance": np.array([-1, -1, 0, 1]),
    }
    m = tracing.cli_metrics(names, cols)
    assert m["cli.resolve_objective.ms"] == 3 / 1e6
    assert m["cli.seed_loop.ms"] == 25 / 1e6
    assert m["cli.write_outputs.ms"] == 20 / 1e6


def test_wrapped_calls_nest_and_count():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    inner = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    cols = tracer.columns()
    assert [tracer.names[i] for i in cols["name"]] == ["outer", "leaf", "leaf"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    m = tracing.layer_metrics(tracer.names, cols)
    assert m["leaf.calls"] == 2 and m["trace.residual_ms"] == 0


def test_a_missing_public_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", (("engine.gone", "stapy.engine", "no_such_function"),))
    monkeypatch.setattr(tracing, "DRAWS", ())
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == ["engine.gone"]


def test_ratios_carry_their_bases():
    counts = tracing.Counter({"phase.rotation": 4, "phase.rotation.improved": 1,
                              "phase.expansion": 4, "phase.axesion": 2,
                              "translate.fires": 5, "translate.accepted": 2})
    m = tracing.ratio_metrics(counts)
    assert m["engine.phase.rotation.improve_ratio"] == 0.25
    assert m["engine.phase.axesion.improve_ratio"] == 0.0
    assert m["engine.translate.fire_ratio"] == 0.5
    assert m["engine.translate.accept_ratio"] == 0.4
