"""The benchmark's tracer names dualdec functions by module and attribute;
a rename or deletion in dualdec must show up here, not as a crash of every
benchmark run."""
import json
import subprocess
import sys

import pytest

from conftest import BENCH, load_bench_module

from dualdec import cli

FIXTURE = BENCH / "fixture"


def test_every_traced_name_resolves_and_is_unwrapped():
    tracing = load_bench_module("tracing")
    assert tracing.wrapped_names() == []


def test_every_score_component_runs_under_its_precompute(tmp_path):
    # ``decode.component_s.*`` sums the spans of ``COMPONENTS``' functions
    # whose parent is ``decode.precompute_<direction>``, and ``decode.beam_self_s.*``
    # takes the step spans out of ``decode.<direction>_hypotheses``; a scorer or
    # step call moved elsewhere would make those metrics read 0 without failing
    # anything
    tracing = load_bench_module("tracing")
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "3", "--train-size", "1",
                     "--valid-size", "1", "--test-size", "3"]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "data": {f"{d}_test": str(data / f"{d}_test.jsonl") for d in ("nlu", "nlg")},
        "decode": {"beam": 3, "max_len": 8, "k_intent": 2}}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["dualinf", "--config", str(cfg), "--checkpoints", str(FIXTURE),
                         "--direction", "both", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    under = {(s[tracing.NAME], spans[s[tracing.PARENT]][tracing.NAME])
             for s in spans if s[tracing.PARENT] >= 0}
    for direction, parts in tracing.COMPONENTS.items():
        for fn in parts.values():
            assert (fn, f"decode.precompute_{direction}") in under, (direction, fn)
    for direction in tracing.DIRECTIONS:
        step = f"models.{direction}_step"
        assert (step, f"decode.{direction}_hypotheses") in under, step
    names = {s[tracing.NAME] for s in spans}
    for scorer in tracing.SCORERS:
        assert f"models.{scorer}" in names, scorer


def test_training_runs_every_forcing_graph_under_train_model(tmp_path):
    # ``models.forward_s.*`` sums the spans of ``FORCING``'s functions under
    # ``models.train_model``, whose kind the tracer reads from its first
    # argument; a forcing graph called elsewhere would read 0 without failing
    tracing = load_bench_module("tracing")
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "3", "--train-size", "4",
                     "--valid-size", "1", "--test-size", "1"]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "data": {f"{d}_train": str(data / f"{d}_train.jsonl") for d in ("nlu", "nlg")},
        "model": {"hidden": 4, "embedding": 3, "merges": 50},
        "train": {"epochs": 1, "batch_size": 2}}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    kinds = {(s[tracing.NAME], spans[s[tracing.PARENT]][tracing.INFO]["kind"])
             for s in spans if s[tracing.PARENT] >= 0
             and spans[s[tracing.PARENT]][tracing.NAME] == "models.train_model"}
    for name, kind in tracing.FORCING.items():
        assert (name, kind) in kinds, name
    names = {s[tracing.NAME] for s in spans}
    for name in ("tensor.backward", "tensor.adam_step", "tensor.clip_grad_norm"):
        assert name in names, name


def test_scorers_never_run_the_traced_forcing_graphs(tmp_path):
    # the scorers share their loss routines with the forcing graphs; one that
    # called a forcing graph by its public name would add spans of
    # ``FORCING``'s names to every decode iteration and split its time
    tracing = load_bench_module("tracing")
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "5", "--train-size", "1",
                     "--valid-size", "1", "--test-size", "2"]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "data": {f"{d}_test": str(data / f"{d}_test.jsonl") for d in ("nlu", "nlg")},
        "decode": {"beam": 3, "max_len": 8, "k_intent": 2}}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["dualinf", "--config", str(cfg), "--checkpoints", str(FIXTURE),
                         "--direction", "both", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {f"models.{scorer}" for scorer in tracing.SCORERS} <= names
    assert not names & set(tracing.FORCING)


@pytest.mark.slow
def test_bench_selftest_passes():
    # the tracer's hooks read traced functions' arguments by position, so a
    # changed signature shows up here rather than in a benchmark run
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
