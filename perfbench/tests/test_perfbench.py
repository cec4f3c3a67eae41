import json

import pytest

import checks
import run
import spans
import workloads
from spans import END, ID, NAME, PARENT, START


def panel(commands):
    return [(c.label, c.argv[2], c.info["N"]) for c in commands]


def test_same_seed_gives_same_panel(tmp_path):
    a = workloads.set_up("multi-realize", tmp_path / "a", 7)
    b = workloads.set_up("multi-realize", tmp_path / "b", 7)
    c = workloads.set_up("multi-realize", tmp_path / "c", 8)
    for index in (0, 1):
        assert panel(a.pass_commands(index)) == panel(b.pass_commands(index))
    assert panel(a.pass_commands(0)) != panel(a.pass_commands(1))
    assert panel(a.pass_commands(0)) != panel(c.pass_commands(0))


def test_multi_realize_pass_fills_every_octile(tmp_path):
    commands = workloads.set_up("multi-realize", tmp_path, 3).pass_commands(0)
    assert [c.label for c in commands[:2]] == ["pinned-worked", "pinned-loop"]
    drawn = commands[2:]
    assert len(drawn) == 40
    counts = [0] * (len(workloads.N_OCTILE_EDGES) + 1)
    for c in drawn:
        counts[workloads.bisect_left(workloads.N_OCTILE_EDGES, c.info["N"])] += 1
        assert 12 <= len(c.info["kinds"]) <= 22
    assert counts == [workloads.DRAWS_PER_OCTILE] * len(counts)


def test_known_defects_stay_out_of_the_passes(tmp_path):
    source = workloads.set_up("multi-realize", tmp_path, 3)
    pool = json.loads(workloads.POOL_FILE.read_text())
    failing = {f"pool-{i}" for i, e in enumerate(pool) if e["failure"] is not None}
    known = [c.label for c in source.known_defects]
    assert known == ["pinned-straddle", *sorted(failing, key=lambda x: int(x[5:]))]
    assert all(c.info["known_failure"] for c in source.known_defects)
    for index in range(5):
        assert not {c.label for c in source.pass_commands(index)} & set(known)


def test_fail_ratio_counts_known_defects():
    command = workloads.Command("p", "partition", ["partition"])
    ok = checks.Outcome("p", "partition", 0.3, 0, None, "", "")
    bad = checks.Outcome("k", "realize", 0.1, None, "AssertionError", "", "", failure="raised")
    table = run.end_to_end([([command] * 3, [ok] * 3)], [(0.1, run.PROBE_REF_S)],
                           [run.PROBE_REF_S], [bad])
    assert table["fail_ratio"]["value"] == pytest.approx(0.25)
    assert table["known_defects.failed"]["value"] == 1


def span(i, parent, start, end, name="x"):
    return [0, i, parent, name, start, end, None]


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),   # child
        span(2, 1, 2.0, 3.0),   # grandchild: counts against 1, not 0
        span(3, 0, 5.0, 6.5),   # second child
        span(4, None, 20.0, 21.0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)


def test_self_time_counts_overlapping_children_once():
    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 4.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_gated_times_are_scaled_by_the_probe():
    command = workloads.Command("p", "partition", ["partition"])
    outcome = checks.Outcome("p", "partition", 0.3, 0, None, "", "")
    rounds = [(0.1, 2 * run.PROBE_REF_S), (0.2, run.PROBE_REF_S), (0.1, run.PROBE_REF_S / 2)]
    table = run.end_to_end([([command], [outcome])], rounds, [4 * run.PROBE_REF_S])
    assert table["setup_s"]["value"] == pytest.approx(0.2)  # median of 0.05, 0.2, 0.2
    assert table["setup_unscaled_s"]["value"] == pytest.approx(0.1)
    assert table["cmd_gmean_s"]["value"] == pytest.approx(0.075)
    assert table["cmd_gmean_unscaled_s"]["value"] == pytest.approx(0.3)


def realize_command(tmp_path, report):
    out = tmp_path / "report.json"

    def main(argv):
        out.write_text(json.dumps(report))
        return 0

    command = workloads.Command("r", "realize", ["realize"], output=str(out),
                                expect={"seed_file": "unused", "kinds": "bbbtb"})
    return command, main


def test_doctored_certificate_counts_as_failure(tmp_path):
    command, main = realize_command(
        tmp_path, {"status": "realized", "certificate": False, "iterations": 3, "tau": {}})
    (outcome,) = run.run_pass(main, [command], {})
    assert outcome.failure and outcome.wrong


def test_raised_exception_counts_as_failure():
    def main(argv):
        raise AssertionError("interval straddles a breakpoint")

    command = workloads.Command("r", "realize", ["realize"])
    (outcome,) = run.run_pass(main, [command], {})
    assert outcome.failure == "raised AssertionError: interval straddles a breakpoint"
    assert not outcome.wrong


def test_nonzero_exit_counts_as_failure():
    command = workloads.Command("s", "semiconj", ["semiconj"])
    (outcome,) = run.run_pass(lambda argv: 4, [command], {})
    assert outcome.failure.startswith("exit code 4") and not outcome.wrong


def test_wrong_labels_count_as_failure(tmp_path):
    out = tmp_path / "partition.json"
    labels = ["A0", "B0", "B1"]
    pins = {"f@1": {"atoms": 3, "labels": checks.label_digest(labels), "source": "model"}}

    def main_with(doc_labels):
        def main(argv):
            out.write_text(json.dumps({"atoms": [{"label": x} for x in doc_labels]}))
            return 0
        return main

    command = workloads.Command("p", "partition", ["partition"], output=str(out),
                                expect={"pin": "f@1"})
    good, bad = (run.run_pass(main_with(x), [command], pins)[0]
                 for x in (labels, ["A0", "B1", "B0"]))
    assert good.failure is None
    assert bad.failure and bad.wrong


def test_traced_realize_covers_its_layers_and_restores_the_program(tmp_path):
    import gietlab.cli
    from gietlab import thurston
    from gietlab.giet import Giet

    originals = (thurston.solve, thurston.dynamical_partition, Giet.rauzy_path)
    commands = workloads.set_up("multi-realize", tmp_path, 1).pass_commands(0)[:2]
    plain = run.run_pass(gietlab.cli.main, commands, {})
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced = run.run_pass(gietlab.cli.main, commands, {}, recorder)
    finally:
        recorder.uninstall()
    assert (thurston.solve, thurston.dynamical_partition, Giet.rauzy_path) == originals
    assert all(o.failure is None for o in plain + traced)
    assert [checks.same_output(a, b) for a, b in zip(plain, traced)] == [None, None]
    assert spans.missing_layers("fib-realize", recorder.spans, recorder.counts) == []
    assert {s[PARENT] for s in recorder.spans if s[NAME] == "cli.realize"} == {None}
    metrics = spans.layer_metrics(recorder.spans, recorder.counts, recorder.max_depth, 1)
    iterations = sum(o.result["iterations"] for o in traced)
    assert metrics["thurston.step.calls"] == iterations
    assert metrics["thurston.path_check.calls"] == iterations + 2
    assert metrics["thurston.path_check.hit_ratio"] == pytest.approx(2 / (iterations + 2))
    assert all(s[END] >= s[START] for s in recorder.spans)
    assert len({s[ID] for s in recorder.spans}) == len(recorder.spans)
