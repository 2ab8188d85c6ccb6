import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdec import cli, data, decode, metrics
from dualdec.cli import main
from dualdec.decode import DualWeights, ModelsBundle
from dualdec.models import model_from_checkpoint


def run(*argv) -> int:
    return main([str(a) for a in argv])


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def files_under(path: Path) -> list[Path]:
    """Every file below ``path``; ``cli.main`` creates ``--out`` before the
    command runs, so a failed command may leave the empty directory."""
    return sorted(p for p in path.rglob("*") if p.is_file()) if path.exists() else []


def load_bundle(ckpt_dir: Path) -> ModelsBundle:
    return ModelsBundle(*(model_from_checkpoint(
        data.load_checkpoint(ckpt_dir / f"{k}.ckpt")) for k in data.MODEL_KINDS))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small synth corpus + one trained checkpoint set, shared by the
    cheap CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "dataset"
    assert run("synth", "--out", dataset, "--seed", "5",
               "--train-size", "24", "--valid-size", "8", "--test-size", "8") == 0
    config = {
        "seed": 11,
        "data": {p: str(dataset / f"{p}.jsonl")
                 for p in ("nlu_train", "nlg_train", "nlu_valid", "nlg_valid",
                           "nlu_test", "nlg_test")},
        "model": {"hidden": 12, "embedding": 8, "merges": 200},
        "train": {"epochs": 3, "batch_size": 8},
        "decode": {"beam": 4, "max_len": 14, "k_intent": 2},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    ckpt_dir = root / "run1"
    assert run("train", "--config", cfg_path, "--out", ckpt_dir) == 0
    return root, cfg_path, ckpt_dir


def test_synth_writes_splits_and_manifest(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--out", out, "--seed", "3") == 0
    names = {p.name for p in out.iterdir()}
    assert {"nlu_train.jsonl", "nlg_train.jsonl", "nlu_valid.jsonl",
            "nlg_valid.jsonl", "nlu_test.jsonl", "nlg_test.jsonl",
            "dataset.json", "manifest.json"} <= names
    assert len(data.load_nlu(out / "nlu_train.jsonl")) == 32


def test_train_twice_same_seed_byte_identical(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    again = tmp_path / "run2"
    assert run("train", "--config", cfg_path, "--out", again) == 0
    a = dir_bytes(ckpt_dir)
    b = dir_bytes(again)
    assert set(a) == set(b)
    for name in a:
        if name == "manifest.json":
            continue  # embeds out_dir, which differs here by construction
        assert a[name] == b[name], name


def test_missing_dataset_path_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"hidden": 4, "embedding": 3}}))
    assert run("train", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "data.nlu_train" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"typo_key": 1}))
    assert run("train", "--config", cfg, "--out", tmp_path / "o") == 2


def test_malformed_dataset_exits_3(workspace, tmp_path):
    root, cfg_path, _ = workspace
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    override = json.loads(cfg_path.read_text())
    override["data"]["nlu_train"] = str(bad)
    cfg2 = tmp_path / "c.json"
    cfg2.write_text(json.dumps(override))
    assert run("train", "--config", cfg2, "--out", tmp_path / "o") == 3


def test_missing_checkpoints_exit_4(workspace, tmp_path):
    root, cfg_path, _ = workspace
    assert run("eval", "--config", cfg_path, "--checkpoints", tmp_path / "nowhere",
               "--out", tmp_path / "o") == 4


def test_eval_reads_only_the_checkpoints_of_its_directions(workspace, tmp_path, capsys):
    """``train.models = [nlu, nlg]`` writes two checkpoints; plain ``eval``
    reads only those, and ``--direction nlu`` only ``nlu.ckpt``. ``dualinf``
    reads all four."""
    root, cfg_path, ckpt_dir = workspace
    cfg = json.loads(cfg_path.read_text())
    cfg["train"]["models"] = ["nlu", "nlg"]
    cfg2 = tmp_path / "c2.json"
    cfg2.write_text(json.dumps(cfg))
    two = tmp_path / "two"
    assert run("train", "--config", cfg2, "--out", two) == 0
    assert sorted(p.name for p in two.glob("*.ckpt")) == ["nlg.ckpt", "nlu.ckpt"]
    assert run("eval", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", tmp_path / "full_eval") == 0
    assert run("eval", "--config", cfg_path, "--checkpoints", two,
               "--out", tmp_path / "two_eval") == 0
    assert ((tmp_path / "two_eval" / "report.json").read_bytes()
            == (tmp_path / "full_eval" / "report.json").read_bytes())

    nlu_only = tmp_path / "nlu_only"
    nlu_only.mkdir()
    (nlu_only / "nlu.ckpt").write_bytes((ckpt_dir / "nlu.ckpt").read_bytes())
    assert run("eval", "--config", cfg_path, "--checkpoints", nlu_only, "--direction", "nlu",
               "--out", tmp_path / "nlu_eval") == 0
    assert json.loads((tmp_path / "nlu_eval" / "report.json").read_text())["slot_f1"] is not None

    capsys.readouterr()
    assert run("dualinf", "--config", cfg_path, "--checkpoints", two,
               "--out", tmp_path / "dual") == 4
    assert "lm.ckpt" in capsys.readouterr().err


def test_incompatible_checkpoints_exit_4(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    other = tmp_path / "other"
    # train on a different corpus -> different inventories
    dataset2 = tmp_path / "ds2"
    assert run("synth", "--out", dataset2, "--seed", "99",
               "--train-size", "8", "--valid-size", "4", "--test-size", "4") == 0
    cfg = json.loads((cfg_path).read_text())
    cfg["data"] = {p: str(dataset2 / f"{p}.jsonl")
                   for p in ("nlu_train", "nlg_train", "nlu_valid", "nlg_valid",
                             "nlu_test", "nlg_test")}
    cfg["model"]["merges"] = 50  # different tokenizer
    cfg2 = tmp_path / "c2.json"
    cfg2.write_text(json.dumps(cfg))
    assert run("train", "--config", cfg2, "--out", other) == 0
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for kind in ("nlu", "lm", "mfm"):
        (mixed / f"{kind}.ckpt").write_bytes((ckpt_dir / f"{kind}.ckpt").read_bytes())
    (mixed / "nlg.ckpt").write_bytes((other / "nlg.ckpt").read_bytes())
    assert run("eval", "--config", cfg_path, "--checkpoints", mixed,
               "--out", tmp_path / "o") == 4


@pytest.mark.parametrize("flags, file_cfg", [
    (["synth", "--seed", "-1"], None),
    (["dualinf", "--alpha", "1.5"], None),
    (["dualinf", "--beta", "-0.5"], None),
    (["eval", "--beam", "0"], None),
    (["eval"], {"seed": -2}),
    (["eval"], {"seed": 1.5}),
    (["dualinf"], {"dual": {"alpha": "0.5"}}),
    (["eval"], {"decode": {"beam": "4"}}),
    (["gridsearch"], {"dual": {"grid_step": 0.3}}),
    (["gridsearch"], {"dual": {"grid_step": 0}}),
    (["gridsearch"], {"dual": {"grid_step": "0.5"}}),
    (["gridsearch"], {"dual": {"grid_step": True}}),
    (["eval"], {"dual": 5}),
    (["train"], {"model": {"hidden": 0}}),
    (["train"], {"model": {"embedding": 2.5}}),
    (["train"], {"model": {"merges": -1}}),
    (["train"], {"train": {"epochs": "x"}}),
    (["train"], {"train": {"batch_size": 0}}),
    (["train"], {"train": {"teacher_forcing": 2.5}}),
    (["train"], {"train": {"lr": "fast"}}),
    (["train"], {"train": {"clip": -1}}),
    (["train"], {"train": {"models": ["nlu", "x"]}}),
    (["eval"], {"decode": {"max_len": 0}}),
    (["eval"], {"decode": {"k_intent": None}}),
    (["eval"], {"checkpoints": 5}),
    (["train"], {"data": {"nlu_train": []}}),
    (["synth", "--train-size", "-1"], None),
    (["synth", "--valid-size", "-3"], None),
    (["synth", "--test-size", "0"], None),
    (["eval", "--direction", "nlg", "--beam", "99999999999999999999"], None),
    (["eval"], {"decode": {"beam": 1001}}),
    (["train"], {"model": {"hidden": 10 ** 20}}),
    (["train"], {"model": {"hidden": 5_000_000}}),
    (["train"], {"model": {"embedding": 1025}}),
    (["gridsearch"], {"dual": {"grid_step": 1e-7}}),
    (["gridsearch"], {"dual": {"grid_step": 0.001}}),
    (["synth", "--train-size", "100001"], None),
    (["synth", "--valid-size", str(10 ** 9)], None),
    (["synth", "--test-size", "100001"], None),
    (["eval"], {"decode": {"max_len": 10 ** 9}}),
    (["train"], {"train": {"models": []}}),
    (["train"], {"train": {"lr": math.inf}}),
    (["train"], {"train": {"clip": math.inf}}),
])
def test_usage_errors_exit_2_without_traceback(tmp_path, capsys, flags, file_cfg):
    argv = [*flags, "--out", tmp_path / "o"]
    if file_cfg is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(file_cfg))
        argv += ["--config", cfg]
    assert run(*argv) == 2
    assert not files_under(tmp_path / "o")
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    key = []
    while isinstance(file_cfg, dict):
        (name, file_cfg), = file_cfg.items()
        key.append(name)
    assert ".".join(key) in err


# each fuzzed config key and a command that reads it
FUZZ_COMMANDS = {
    "seed": ["dualinf"], "direction": ["eval"], "checkpoints": ["eval"],
    "data.nlu_train": ["train"], "data.nlg_test": ["eval"],
    "model.hidden": ["train"], "model.embedding": ["train"], "model.merges": ["train"],
    "train.epochs": ["train"], "train.batch_size": ["train"],
    "train.teacher_forcing": ["train"], "train.lr": ["train"], "train.clip": ["train"],
    "train.models": ["train"], "decode.beam": ["eval"], "decode.max_len": ["eval"],
    "decode.k_intent": ["eval"], "dual.alpha": ["dualinf"], "dual.beta": ["dualinf"],
    "dual.grid_step": ["gridsearch"],
}
# wrong types, negatives, zero and small positives; no size that allocates much
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([-1.0, 0.0, 0.5, 2.5]),
    st.sampled_from(["", "x", "nlu", "auto"]), st.lists(st.sampled_from(["nlu", "x", 1]),
                                                        max_size=2), st.just({}))


def test_fuzz_commands_name_config_keys_and_every_numeric_key():
    """A key gone from the config but left here would fuzz only the
    unknown-key path, and a numeric key missing here would go unfuzzed."""
    keys = set()
    for section, value in cli.DEFAULTS.items():
        keys |= {f"{section}.{k}" for k in value} if isinstance(value, dict) else {section}
    assert set(FUZZ_COMMANDS) <= keys
    assert {key for key, *_ in cli.NUMERIC_KEYS} <= set(FUZZ_COMMANDS)


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A tiny corpus, a config that works with it and checkpoints it trained."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run("synth", "--out", root, "--seed", "2", "--train-size", "4",
               "--valid-size", "2", "--test-size", "2") == 0
    config = {
        "seed": 1, "checkpoints": str(root / "ckpt"),
        "data": {p: str(root / f"{p}.jsonl")
                 for p in ("nlu_train", "nlg_train", "nlu_valid", "nlg_valid",
                           "nlu_test", "nlg_test")},
        "model": {"hidden": 3, "embedding": 2, "merges": 10},
        "train": {"epochs": 1, "batch_size": 4},
        "decode": {"beam": 2, "max_len": 3, "k_intent": 1},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run("train", "--config", cfg_path, "--out", root / "ckpt") == 0
    return root, config


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(FUZZ_COMMANDS)), value=FUZZ_VALUES)
def test_fuzzed_config_value_exits_with_a_documented_code(fuzz_workspace, key, value):
    root, config = fuzz_workspace
    config = json.loads(json.dumps(config))
    section, _, name = key.rpartition(".")
    (config.setdefault(section, {}) if section else config)[name] = value
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*FUZZ_COMMANDS[key], "--config", cfg_path, "--out", Path(tmp) / "out")
        assert code == 0 or not files_under(Path(tmp) / "out"), (key, value, err.getvalue())
    assert code in (0, 2, 3, 4), (key, value, err.getvalue())
    assert "Traceback" not in err.getvalue()


# the flags each command reads, and values for them: wrong types, negatives,
# zero and small values; no size or beam that allocates more than a few MB
FUZZ_FLAGS = {
    "synth": ("--seed", "--train-size", "--valid-size", "--test-size"),
    "eval": ("--direction", "--beam"),
    "dualinf": ("--seed", "--direction", "--beam", "--alpha", "--beta"),
    "gridsearch": ("--seed", "--direction", "--beam"),
}
INT_FLAG_VALUES = st.integers(-3, 40).map(str) | st.sampled_from(["", "x", "2.5", "0x10"])
FLOAT_FLAG_VALUES = st.sampled_from(["0", "0.5", "1", "-0.5", "1.5", "1e-3", "nan", "inf", "x"])
FUZZ_FLAG_VALUES = {"--direction": st.sampled_from(["nlu", "nlg", "both", "x"]),
                    "--alpha": FLOAT_FLAG_VALUES, "--beta": FLOAT_FLAG_VALUES}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(FUZZ_FLAGS)), drawn=st.data())
def test_fuzzed_flag_values_exit_with_a_documented_code(fuzz_workspace, command, drawn):
    root, _ = fuzz_workspace
    flags = drawn.draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), min_size=1, max_size=3,
                                unique=True))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        argv = [command, "--out", Path(tmp) / "out"]
        for flag in flags:
            argv += [flag, drawn.draw(FUZZ_FLAG_VALUES.get(flag, INT_FLAG_VALUES))]
        if command != "synth":
            argv += ["--config", root / "config.json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = run(*argv)
            except SystemExit as e:  # argparse rejects a value of the wrong type
                code = e.code
        assert code == 0 or not files_under(Path(tmp) / "out"), (argv, err.getvalue())
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# (command, flag) pairs a command does not read: argparse rejects them
UNREAD_FLAGS = {"train": ("--direction", "--alpha", "--beta", "--beam"),
                "eval": ("--seed", "--alpha", "--beta"),
                "gridsearch": ("--alpha", "--beta"),
                "synth": ("--direction", "--alpha", "--beta", "--beam")}
FLAG_VALUES = {"--direction": "nlu", "--alpha": "0.3", "--beta": "1", "--beam": "5",
               "--seed": "1"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                           for f in flags])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run(command, flag, FLAG_VALUES[flag], "--out", tmp_path / "o")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _drop_params(h):
    del h["params"]


def _drop_config(h):
    del h["config"]


def _bad_param_entry(h):
    h["params"][0] = h["params"][0][:1]


def _negative_shape(h):
    h["params"][0][1] = [-1]


def _overflowing_shape(h):
    # 2**64 entries: an int64 product of the sizes would wrap to 0
    h["params"][0][1] = [2**32, 2**32]


def _negatively_wrapping_shape(h):
    # an int64 product of these sizes would wrap to a negative count
    h["params"][0][1] = [2**31, 2**31, 3]


def _no_hidden(h):
    del h["config"]["hidden"]


def _text_embedding(h):
    h["config"]["embedding"] = "8"


def _huge_hidden(h):
    # about 38 GB per hidden-sized row if anything were allocated from it
    h["config"]["hidden"] = 4800000000


def _labels_without_slot_keys(h):
    h["labels"] = {"intents": ["a"]}


def _vocab_without_marker(h):
    h["vocab"] = {"version": 1}


def _vocab_not_an_object(h):
    h["vocab"] = []


# the four checkpoints must share one inventory, so these corrupt all four
INVENTORY_CORRUPTIONS = (_labels_without_slot_keys, _vocab_without_marker,
                         _vocab_not_an_object)


@pytest.mark.parametrize("corrupt", [_drop_params, _drop_config, _bad_param_entry,
                                     _negative_shape, _no_hidden, _text_embedding,
                                     _huge_hidden, *INVENTORY_CORRUPTIONS,
                                     _overflowing_shape, _negatively_wrapping_shape])
def test_checkpoint_header_errors_exit_4_without_traceback(workspace, tmp_path, capsys,
                                                           corrupt):
    root, cfg_path, ckpt_dir = workspace
    broken = tmp_path / "ckpt"
    broken.mkdir()
    for src in ckpt_dir.glob("*.ckpt"):
        (broken / src.name).write_bytes(src.read_bytes())
    kinds = data.MODEL_KINDS if corrupt in INVENTORY_CORRUPTIONS else ("nlg",)
    for kind in kinds:
        blob = (broken / f"{kind}.ckpt").read_bytes()
        nl = blob.index(b"\n")
        header = json.loads(blob[:nl])
        corrupt(header)
        (broken / f"{kind}.ckpt").write_bytes(json.dumps(header).encode() + blob[nl:])
    assert run("eval", "--config", cfg_path, "--checkpoints", broken,
               "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "Traceback" not in err


def test_checkpoint_listing_a_parameter_twice_exits_4(workspace, tmp_path, capsys):
    """A header entry repeated, with its floats appended to the payload, so
    that every size check still passes."""
    root, cfg_path, ckpt_dir = workspace
    broken = tmp_path / "ckpt"
    broken.mkdir()
    for src in ckpt_dir.glob("*.ckpt"):
        (broken / src.name).write_bytes(src.read_bytes())
    blob = (broken / "nlg.ckpt").read_bytes()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    name, shape = header["params"][0]
    header["params"].append([name, shape])
    extra = np.zeros(math.prod(shape), dtype="<f8").tobytes()
    (broken / "nlg.ckpt").write_bytes(json.dumps(header).encode() + blob[nl:] + extra)
    assert run("eval", "--config", cfg_path, "--checkpoints", broken,
               "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and f"parameter {name!r} twice" in err
    assert "Traceback" not in err


# header fields a fuzzed checkpoint edits, and the values it may write there:
# wrong types and small sizes only, so no edit can allocate much
HEADER_FIELDS = (("format_version",), ("kind",), ("seed",), ("config", "hidden"),
                 ("config", "embedding"), ("params", 0, 1), ("params", -1, 1, 0),
                 ("labels", "intents"), ("vocab", "merges"))
HEADER_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 6),
                          st.sampled_from(["", "x", 0.5]),
                          st.lists(st.integers(0, 4), max_size=2))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(data.MODEL_KINDS),
       edit=st.sampled_from(["truncate", "flip", "append", "header"]), draws=st.data())
def test_fuzzed_checkpoint_bytes_exit_with_a_documented_code(fuzz_workspace, kind, edit,
                                                             draws):
    root, _ = fuzz_workspace
    blob = (root / "ckpt" / f"{kind}.ckpt").read_bytes()
    if edit == "truncate":
        blob = blob[:draws.draw(st.integers(0, len(blob) - 1))]
    elif edit == "flip":
        at = draws.draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draws.draw(st.integers(1, 255))]) + blob[at + 1:]
    elif edit == "append":
        blob += draws.draw(st.binary(min_size=1, max_size=16))
    else:
        nl = blob.index(b"\n")
        header = json.loads(blob[:nl])
        *path, last = draws.draw(st.sampled_from(HEADER_FIELDS))
        node = header
        for step in path:
            node = node[step]
        node[last] = draws.draw(HEADER_VALUES)
        blob = json.dumps(header).encode() + blob[nl:]
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        ckpt_dir = Path(tmp) / "ckpt"
        ckpt_dir.mkdir()
        for k in data.MODEL_KINDS:
            (ckpt_dir / f"{k}.ckpt").write_bytes(
                blob if k == kind else (root / "ckpt" / f"{k}.ckpt").read_bytes())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):  # dualinf reads all four checkpoints
            code = run("dualinf", "--config", root / "config.json", "--checkpoints", ckpt_dir,
                       "--out", Path(tmp) / "out")
        assert code == 0 or not files_under(Path(tmp) / "out"), (kind, edit, err.getvalue())
    assert code in (0, 3, 4), (kind, edit, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("kind", data.MODEL_KINDS)
def test_non_finite_checkpoint_parameter_exits_4_without_traceback(workspace, tmp_path,
                                                                   capsys, kind):
    root, cfg_path, ckpt_dir = workspace
    broken = tmp_path / "ckpt"
    broken.mkdir()
    for src in ckpt_dir.glob("*.ckpt"):
        (broken / src.name).write_bytes(src.read_bytes())
    # the payload ends with the last entry of a bias vector
    blob = (broken / f"{kind}.ckpt").read_bytes()
    (broken / f"{kind}.ckpt").write_bytes(blob[:-8] + struct.pack("<d", math.nan))
    assert run("dualinf", "--config", cfg_path, "--checkpoints", broken,
               "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "non-finite" in err
    assert "Traceback" not in err


def test_nan_step_distribution_from_finite_checkpoint_exits_3(workspace, tmp_path, capsys):
    # a saturated decoder cell holds every hidden unit at exactly 1, so a
    # finite 1e308 output weight overflows every word logit to +inf and the
    # log-softmax is NaN
    root, cfg_path, ckpt_dir = workspace
    broken = tmp_path / "ckpt"
    broken.mkdir()
    for src in ckpt_dir.glob("*.ckpt"):
        (broken / src.name).write_bytes(src.read_bytes())
    ckpt = data.load_checkpoint(ckpt_dir / "nlg.ckpt")
    p = ckpt.params
    hidden = p["dec.w_hh"].shape[1]
    for name in ("dec.w_ih", "dec.w_hh", "dec.b_hh", "out.b"):
        p[name] = np.zeros_like(p[name])
    p["dec.b_ih"] = np.repeat([0.0, -100.0, 100.0], hidden)
    p["out.w"] = np.full_like(p["out.w"], 1e308)
    data.save_checkpoint(broken / "nlg.ckpt", ckpt)
    assert run("eval", "--config", cfg_path, "--checkpoints", broken,
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "nan" in err and "decode step 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("loader, line", [
    ("nlu_train", {"text": "a b", "tags": "OO"}),
    ("nlu_train", {"text": "a b", "tags": ["O", "X-k"]}),
    ("nlg_train", {"frame": {"slots": []}, "refs": "abc"}),
    ("nlu_train", {"text": "a b", "tags": ["O", "O"], "intent": 5}),
    ("nlg_train", {"frame": {"slots": [[5, "boston"]]}, "refs": ["boston"]}),
    ("nlg_train", {"frame": {"slots": [["city", [""]]]}, "refs": ["boston"]}),
])
def test_bad_field_shape_exits_3_with_line(tmp_path, capsys, loader, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(line) + "\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": {loader: str(bad)},
                               "model": {"hidden": 4, "embedding": 3, "merges": 10},
                               "train": {"epochs": 1}}))
    assert run("train", "--config", cfg, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{bad}:1:" in err


# training splits with an empty utterance beside one that is not empty
EMPTY_UTTERANCE_SPLITS = {
    "empty-text": ("nlu_train", [{"text": "fly to boston", "tags": ["O", "O", "B-city"]},
                                 {"text": "", "tags": []}]),
    "blank-text-among-intents": ("nlu_train", [{"text": "fly to boston",
                                                "tags": ["O", "O", "B-city"],
                                                "intent": "find_flight"},
                                               {"text": "   ", "tags": []}]),
    "nlg-empty-ref": ("nlg_train", [{"frame": {"intent": "find_flight",
                                               "slots": [["city", "boston"]]},
                                     "refs": ["fly to boston"]},
                                    {"frame": {"slots": []}, "refs": [""]}]),
}


@pytest.mark.parametrize("loader, lines, batch_size", [
    (*split, batch_size) for batch_size in (1, 2) for split in EMPTY_UTTERANCE_SPLITS.values()
], ids=[*EMPTY_UTTERANCE_SPLITS, *(f"{name}-shared-batch" for name in EMPTY_UTTERANCE_SPLITS)])
def test_training_on_an_empty_utterance_exits_0(tmp_path, capsys, loader, lines, batch_size):
    # an example with no tags and no intent adds a loss of 0, the
    # log-probability of an empty sequence; at batch size 1 a batch holds it
    # alone, at 2 it shares a stack with the other row
    split = tmp_path / "train.jsonl"
    split.write_text("".join(json.dumps(line) + "\n" for line in lines))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": {loader: str(split)},
                               "model": {"hidden": 4, "embedding": 3, "merges": 10},
                               "train": {"epochs": 1, "batch_size": batch_size}}))
    out = tmp_path / "o"
    code = run("train", "--config", cfg, "--out", out)
    err = capsys.readouterr().err
    assert code == 0 and "Traceback" not in err, err
    assert sorted(p.name for p in out.glob("*.ckpt")) == sorted(
        f"{k}.ckpt" for k in data.MODEL_KINDS)
    # tagging an empty utterance is still refused
    split.write_text(json.dumps({"text": "", "tags": []}) + "\n")
    cfg.write_text(json.dumps({"data": {"nlu_test": str(split)}}))
    assert run("eval", "--config", cfg, "--checkpoints", out, "--direction", "nlu",
               "--out", tmp_path / "eval") == 3
    assert "cannot tag an empty utterance" in capsys.readouterr().err


# one drawn line as the whole test split of eval on the benchmark fixture
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                        st.sampled_from([0.5, -1.0]), st.text(max_size=6))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
TEXTS = st.lists(st.sampled_from(["show", "flights", "boston", "zq", "", " ", "\u00e9"]),
                 max_size=4).map(" ".join)
INTENTS = st.one_of(st.sampled_from(["weather", "find_flight", "zzz", ""]), JSON_VALUES)
NLU_LINES = st.fixed_dictionaries({}, optional={
    "text": st.one_of(TEXTS, JSON_VALUES),
    "tags": st.one_of(st.lists(st.sampled_from(["O", "B-city", "I-city", "B-zzz", "B-", "X-city",
                                                "", "O-"]), max_size=4), JSON_VALUES),
    "intent": INTENTS})
SLOTS = st.lists(st.tuples(st.one_of(st.sampled_from(["city", "day", "zzz", ""]), JSON_LEAVES),
                           st.one_of(TEXTS, st.lists(st.one_of(TEXTS, JSON_LEAVES), max_size=3),
                                     JSON_VALUES)).map(list), max_size=3)
NLG_LINES = st.fixed_dictionaries({}, optional={
    "frame": st.one_of(st.fixed_dictionaries({}, optional={
        "intent": INTENTS, "slots": st.one_of(SLOTS, JSON_VALUES)}), JSON_VALUES),
    "refs": st.one_of(st.lists(TEXTS, max_size=6), JSON_VALUES)})


@pytest.fixture(scope="module")
def line_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("lines")
    assert run("synth", "--out", root, "--seed", "2", "--train-size", "2",
               "--valid-size", "1", "--test-size", "1") == 0
    return root


def _eval_one_line(root: Path, direction: str, line: str) -> tuple[int, str]:
    """Exit code and stderr of ``eval`` at beam 2 whose ``direction`` test
    split is the one ``line``; a non-zero exit must leave no file under
    ``--out``."""
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        split = Path(tmp) / "test.jsonl"
        split.write_text(line + "\n", encoding="utf-8")
        paths = {f"{d}_{s}": str(root / f"{d}_{s}.jsonl")
                 for d in ("nlu", "nlg") for s in ("train", "valid", "test")}
        paths[f"{direction}_test"] = str(split)
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"data": paths,
                                   "decode": {"beam": 2, "max_len": 4, "k_intent": 1}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("eval", "--config", cfg, "--checkpoints", FIXTURE,
                       "--direction", direction, "--out", Path(tmp) / "out")
        assert code == 0 or not files_under(Path(tmp) / "out"), (line, err.getvalue())
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just("nlu"), st.one_of(NLU_LINES, JSON_VALUES).map(json.dumps)),
    st.tuples(st.just("nlg"), st.one_of(NLG_LINES, JSON_VALUES).map(json.dumps)),
    st.tuples(st.sampled_from(["nlu", "nlg"]), st.text(max_size=12))))
def test_fuzzed_jsonl_line_exits_with_a_documented_code(line_workspace, case):
    code, err = _eval_one_line(line_workspace, *case)
    assert code in (0, 2, 3, 4), (case, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    ({"frame": {"intent": "zzz", "slots": []}, "refs": ["hi"]},
     "intent 'zzz' outside inventory"),
    ({"frame": {"slots": [["city", ["a", 1]]]}, "refs": ["x"]},
     "value of slot 'city' must be a string or a list of strings"),
    ({"frame": {"slots": [["city", {"a": "b"}]]}, "refs": ["x"]},
     "value of slot 'city' must be a string or a list of strings"),
    # the end-of-word marker would split a word in two under BPE
    ({"frame": {"slots": [["city", "boston"]]}, "refs": ["to \u2581boston"]},
     "test.jsonl:1: U+2581"),
    ({"frame": {"slots": [["city", "bos\u2581ton"]]}, "refs": ["to boston"]},
     "test.jsonl:1: U+2581"),
    ({"frame": {"slots": [["city", ["new", "\u2581york"]]]}, "refs": ["to new york"]},
     "test.jsonl:1: U+2581"),
])
def test_nlg_test_line_with_unknown_intent_or_non_string_value_exits_3(line_workspace,
                                                                       line, message):
    code, err = _eval_one_line(line_workspace, "nlg", json.dumps(line))
    assert code == 3 and err.startswith("data error:") and message in err, err


@pytest.mark.parametrize("text", ["\u2581a to boston", "a to\u2581 boston", "a \u2581 boston"])
def test_nlu_test_line_with_the_end_of_word_marker_exits_3(line_workspace, text):
    # BPE would read the marker as a word end, so the line's words and pieces
    # disagree; it is refused at load time, naming the line and the character
    line = json.dumps({"text": text, "tags": ["O", "O", "B-city"], "intent": "flight"})
    code, err = _eval_one_line(line_workspace, "nlu", line)
    assert code == 3 and err.startswith("data error:"), err
    assert "test.jsonl:1: U+2581 ('\u2581') is the tokenizer's end-of-word marker" in err, err


SURROGATE = "\ud800"  # json.dumps writes the escape, whose string UTF-8 cannot encode


def _spoil(text: bytes, fault: str) -> bytes:
    """``text`` led by a byte that is not UTF-8, or replaced by JSON nested
    100 000 deep or by an integer past Python's 4300-digit limit; a lone
    surrogate goes into the JSON before it is written."""
    return {"bytes": b"\xff" + text, "nesting": b"[" * 100_000,
            "digits": b"[" + b"9" * 5000 + b"]"}.get(fault, text)


@pytest.mark.parametrize("where, fault", [
    *((where, fault) for where in ("config", "data", "checkpoint")
      for fault in ("bytes", "nesting", "digits", "surrogate")),
    ("out", "bytes")])
def test_input_text_faults_exit_with_their_code_before_any_output(
        line_workspace, tmp_path, capsys, where, fault):
    """Each ``_spoil`` fault and a lone surrogate escape, in a config, a data
    line or a checkpoint header, and a non-UTF-8 ``--out`` (a surrogate once
    argv is decoded), exit with their documented code before any output,
    naming their file in one line."""
    out = tmp_path / ("out\udcff" if where == "out" else "out")
    split, ckpt_dir, cfg = tmp_path / "nlu_test.jsonl", tmp_path / "ckpt", tmp_path / "c.json"
    line = json.loads((line_workspace / "nlu_test.jsonl").read_text(encoding="utf-8"))
    if (where, fault) == ("data", "surrogate"):
        line["text"] += SURROGATE
    text = json.dumps(line).encode() + b"\n"
    split.write_bytes(_spoil(text, fault) if where == "data" else text)
    ckpt_dir.mkdir()
    for kind in data.MODEL_KINDS:
        blob = (FIXTURE / f"{kind}.ckpt").read_bytes()
        nl = blob.index(b"\n")
        header = json.loads(blob[:nl])
        if (where, fault) == ("checkpoint", "surrogate"):  # every inventory alike
            header["labels"]["intents"] = [i + SURROGATE for i in header["labels"]["intents"]]
        text = json.dumps(header).encode()
        (ckpt_dir / f"{kind}.ckpt").write_bytes(
            (_spoil(text, fault) if where == "checkpoint" and kind == "nlu" else text)
            + blob[nl:])
    test_path = str(split) + (SURROGATE if (where, fault) == ("config", "surrogate") else "")
    text = json.dumps({"data": {"nlu_test": test_path},
                       "decode": {"beam": 2, "max_len": 4, "k_intent": 1}}).encode()
    cfg.write_bytes(_spoil(text, fault) if where == "config" else text)
    if where == "out":
        code = run("synth", "--out", out, "--train-size", "2", "--valid-size", "1",
                   "--test-size", "1")
    else:
        code = run("dualinf", "--config", cfg, "--checkpoints", ckpt_dir, "--direction", "nlu",
                   "--out", out)
    err = capsys.readouterr().err
    # the surrogate of a config value names the file the value names
    culprit = {"config": test_path if fault == "surrogate" else cfg, "data": split,
               "checkpoint": ckpt_dir / "nlu.ckpt", "out": out}[where]
    error = {"out": "config"}.get(where, where)
    assert code == {"config": 2, "data": 3, "checkpoint": 4}[error], err
    assert err.startswith(f"{error} error:") and err.count("\n") == 1, err
    assert repr(str(culprit))[1:-1] in err and "Traceback" not in err, err
    assert not files_under(out)


def test_manifest_defaults_match_published_recipe(tmp_path):
    out = tmp_path / "synth"
    assert run("synth", "--out", out, "--seed", "1") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = manifest["config"]
    assert cfg["model"]["hidden"] == 200
    assert cfg["model"]["embedding"] == 50
    assert cfg["train"]["batch_size"] == 48
    assert cfg["train"]["epochs"] == 10
    assert cfg["train"]["teacher_forcing"] == 0.9
    assert cfg["decode"]["beam"] == 20
    assert cfg["dual"] == {"alpha": 0.5, "beta": 0.5, "grid_step": 0.1}


def test_eval_reports_all_fields_and_matches_api(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    out = tmp_path / "eval"
    assert run("eval", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("intent_accuracy", "slot_f1", "bleu", "rouge1", "rouge2", "rougeL"):
        assert report[key] is not None
    assert report["n_nlu"] == 8 and report["n_nlg"] == 8

    # API parity: the same decode through the library gives the same report
    cfg = json.loads(cfg_path.read_text())
    bundle = load_bundle(ckpt_dir)
    nlu_test = data.load_nlu(cfg["data"]["nlu_test"])
    nlg_test = data.load_nlg(cfg["data"]["nlg_test"])
    rep_nlu, _ = decode.evaluate_direction(nlu_test, bundle, "nlu", None,
                                           beam=4, max_len=14, k_intent=2, seed=11)
    rep_nlg, _ = decode.evaluate_direction(nlg_test, bundle, "nlg", None,
                                           beam=4, max_len=14, k_intent=2, seed=11)
    merged = metrics.merge_reports(rep_nlu, rep_nlg)
    assert json.loads(merged.to_json()) == report


def test_dualinf_alpha_one_equals_eval_and_trace_formula(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    eval_out = tmp_path / "e"
    dual_out = tmp_path / "d"
    assert run("eval", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", eval_out) == 0
    assert run("dualinf", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", dual_out, "--alpha", "1.0", "--beta", "0.5") == 0
    assert (eval_out / "report.json").read_bytes() == (dual_out / "report.json").read_bytes()
    for direction in ("nlu", "nlg"):
        rows = [json.loads(l) for l in (dual_out / f"trace_{direction}.jsonl")
                .read_text().splitlines()]
        assert rows, direction
        for row in rows:
            assert row["selected"] == 0  # alpha=1 keeps the beam order
            for hyp in row["hypotheses"]:
                expect = 1.0 * hyp["forward"]
                assert abs(hyp["combined"] - expect) < 1e-12


def test_dualinf_trace_satisfies_combined_formula(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    out = tmp_path / "d2"
    assert run("dualinf", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", out, "--alpha", "0.4", "--beta", "0.7") == 0
    for direction in ("nlu", "nlg"):
        rows = [json.loads(l) for l in (out / f"trace_{direction}.jsonl")
                .read_text().splitlines()]
        for row in rows:
            for hyp in row["hypotheses"]:
                expect = (0.4 * hyp["forward"]
                          + 0.6 * (hyp["backward"] + 0.7 * hyp["marg_out"]
                                   - 0.7 * hyp["marg_in"]))
                assert abs(hyp["combined"] - expect) < 1e-12


def test_dualinf_rerun_byte_identical(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert run("dualinf", "--config", cfg_path, "--checkpoints", ckpt_dir,
                   "--out", out, "--alpha", "0.5", "--beta", "0.5") == 0
    a, b = dir_bytes(out1), dir_bytes(out2)
    assert set(a) == set(b)
    for name in a:
        if name == "manifest.json":
            continue
        assert a[name] == b[name], name


def test_gridsearch_csv_rows_and_selection_reproducible(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    out = tmp_path / "grid"
    assert run("gridsearch", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", out) == 0
    selection = json.loads((out / "selection.json").read_text())
    for direction in ("nlu", "nlg"):
        lines = (out / f"grid_{direction}.csv").read_text().splitlines()
        assert len(lines) == 122  # header + 121 pairs
        header = lines[0].split(",")
        assert header[:2] == ["alpha", "beta"]
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        for name, info in selection[direction].items():
            best = max(float(r[name]) for r in rows)
            assert best == info["value"]
            top = next(r for r in rows if float(r[name]) == best)
            assert float(top["alpha"]) == info["alpha"]
            assert float(top["beta"]) == info["beta"]


def test_gridsearch_eval_test_reports_each_selected_pair(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    out = tmp_path / "grid"
    assert run("gridsearch", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", out, "--eval-test") == 0
    selection = json.loads((out / "selection.json").read_text())
    test_report = json.loads((out / "test_report.json").read_text())
    cfg = json.loads(cfg_path.read_text())
    bundle = load_bundle(ckpt_dir)
    splits = {"nlu": data.load_nlu(cfg["data"]["nlu_test"]),
              "nlg": data.load_nlg(cfg["data"]["nlg_test"])}
    assert set(test_report) == set(splits)
    for direction, examples in splits.items():
        assert set(test_report[direction]) == set(selection[direction])
        for name, info in selection[direction].items():
            w = DualWeights(info["alpha"], info["beta"])
            rep, _ = decode.evaluate_direction(examples, bundle, direction, w, beam=4,
                                               max_len=14, k_intent=2, seed=11)
            assert test_report[direction][name] == {
                "alpha": info["alpha"], "beta": info["beta"],
                "report": json.loads(rep.to_json())}, (direction, name)


def test_gridsearch_missing_valid_split_exits_2(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    cfg = json.loads(cfg_path.read_text())
    cfg["data"]["nlu_valid"] = None
    cfg["data"]["nlg_valid"] = None
    cfg2 = tmp_path / "c.json"
    cfg2.write_text(json.dumps(cfg))
    assert run("gridsearch", "--config", cfg2, "--checkpoints", ckpt_dir,
               "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("line, code, message", [
    (None, 2, "config error: config is missing required dataset path data.nlu_test"),
    ("not json", 3, "data error: "),
], ids=["missing", "malformed"])
def test_gridsearch_eval_test_reads_the_test_split_before_the_sweep(
        workspace, tmp_path, capsys, line, code, message):
    root, cfg_path, ckpt_dir = workspace
    cfg = json.loads(cfg_path.read_text())
    cfg["data"]["nlu_test"] = None
    if line is not None:
        cfg["data"]["nlu_test"] = str(tmp_path / "nlu_test.jsonl")
        (tmp_path / "nlu_test.jsonl").write_text(line + "\n")
    cfg2 = tmp_path / "c.json"
    cfg2.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run("gridsearch", "--config", cfg2, "--checkpoints", ckpt_dir,
               "--out", out, "--eval-test") == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err, err
    assert list(out.iterdir()) == []  # no grid_*.csv, no selection.json


def test_manifest_config_reproduces_outputs(workspace, tmp_path):
    root, cfg_path, ckpt_dir = workspace
    out = tmp_path / "first"
    assert run("dualinf", "--config", cfg_path, "--checkpoints", ckpt_dir,
               "--out", out, "--alpha", "0.3", "--beta", "0.8") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    first = dir_bytes(out)
    # the manifest's resolved config alone (no flags) reproduces every file
    assert run("dualinf", "--config", replay_cfg) == 0
    assert dir_bytes(out) == first


def test_train_with_nlu_only_augments_nlg(workspace, tmp_path):
    root, cfg_path, _ = workspace
    cfg = json.loads(cfg_path.read_text())
    cfg["data"]["nlg_train"] = None
    cfg["train"]["epochs"] = 1
    cfg2 = tmp_path / "c.json"
    cfg2.write_text(json.dumps(cfg))
    out = tmp_path / "aug"
    assert run("train", "--config", cfg2, "--out", out) == 0
    assert (out / "nlg.ckpt").exists() and (out / "mfm.ckpt").exists()


def test_eval_and_dualinf_refuse_an_intent_of_a_model_without_intents(tmp_path, capsys):
    # the training split has slots but no intent, so the label set holds none
    nlu = tmp_path / "nlu_train.jsonl"
    nlu.write_text("".join(json.dumps({"text": text, "tags": ["O", "B-city"]}) + "\n"
                           for text in ("to boston", "from denver", "via austin")))
    nlg = tmp_path / "nlg_test.jsonl"
    nlg.write_text(json.dumps({"frame": {"intent": "greet", "slots": []},
                               "refs": ["hello"]}) + "\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": {"nlu_train": str(nlu), "nlg_test": str(nlg)},
                               "model": {"hidden": 4, "embedding": 3, "merges": 20},
                               "train": {"epochs": 1},
                               "decode": {"beam": 2, "max_len": 4}}))
    ckpt = tmp_path / "ckpt"
    assert run("train", "--config", cfg, "--out", ckpt) == 0
    assert data.load_checkpoint(ckpt / "nlg.ckpt").labels["intents"] == []
    capsys.readouterr()
    for command in ("eval", "dualinf"):
        assert run(command, "--config", cfg, "--checkpoints", ckpt, "--direction", "nlg",
                   "--out", tmp_path / command) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "intent 'greet' outside inventory" in err, err


def test_train_without_any_slot_or_intent_exits_3_before_training(tmp_path, capsys):
    nlu = tmp_path / "nlu_train.jsonl"
    nlu.write_text("".join(json.dumps({"text": text, "tags": ["O", "O"]}) + "\n"
                           for text in ("hello there", "good morning", "thanks again")))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": {"nlu_train": str(nlu)},
                               "model": {"hidden": 4, "embedding": 3, "merges": 20},
                               "train": {"epochs": 1}}))
    out = tmp_path / "out"
    assert run("train", "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: the masked frame model needs a training frame")
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_diverging_training_exits_3_naming_the_batch_and_writes_no_checkpoint(
        workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    cfg = json.loads(cfg_path.read_text())
    cfg["train"].update(lr=1e300, epochs=3, models=["nlg", "nlu"])
    cfg["model"].update(hidden=6, embedding=4)
    diverge = tmp_path / "diverge.json"
    diverge.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("train", "--config", diverge, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("training error: nlg training diverged:")
    assert "at epoch 1, batch 2" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_train_manifest_records_augmentation_drops(workspace, tmp_path):
    root, cfg_path, _ = workspace
    # the second reference names neither slot value, so augmentation drops it
    nlg_train = tmp_path / "nlg_train.jsonl"
    nlg_train.write_text(json.dumps({
        "frame": {"intent": "find_flight",
                  "slots": [["origin", "boston"], ["destination", "denver"]]},
        "refs": ["flights from boston to denver", "show me some flights"]}) + "\n")
    cfg = json.loads(cfg_path.read_text())
    cfg["data"].update(nlu_train=None, nlg_train=str(nlg_train))
    cfg["train"]["epochs"] = 0
    cfg2 = tmp_path / "c.json"
    cfg2.write_text(json.dumps(cfg))
    manifests = []
    for name in ("a", "b"):
        assert run("train", "--config", cfg2, "--out", tmp_path / name) == 0
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    assert manifests[0]["augmentation"] == {"nlg_to_nlu": {"kept": 1, "dropped": 1}}
    assert manifests[1]["augmentation"] == manifests[0]["augmentation"]
    full = json.loads((workspace[2] / "manifest.json").read_text())
    assert "augmentation" not in full


def test_training_that_diverges_after_other_models_trained_writes_nothing(tmp_path, capsys):
    # nlu, nlg and lm train to the end before the masked frame model
    # diverges; their checkpoints must not be left behind for eval to read
    dataset = tmp_path / "dataset"
    assert run("synth", "--out", dataset, "--seed", "5", "--train-size", "32",
               "--valid-size", "8", "--test-size", "8") == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "data": {f"{d}_train": str(dataset / f"{d}_train.jsonl") for d in ("nlu", "nlg")},
        "model": {"hidden": 8, "embedding": 4, "merges": 50},
        "train": {"epochs": 2, "lr": 1e150, "clip": 0}}))
    out = tmp_path / "out"
    assert run("train", "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("training error: mfm training diverged:"), err
    assert list(out.iterdir()) == []


def test_gridsearch_whose_second_sweep_fails_writes_nothing(workspace, tmp_path, capsys):
    # the NLU sweep runs to the end; the NLG split then holds a slot key the
    # models lack, and no grid_nlu.csv may be left behind
    root, cfg_path, ckpt_dir = workspace
    cfg = json.loads(cfg_path.read_text())
    nlg_valid = tmp_path / "nlg_valid.jsonl"
    nlg_valid.write_text(json.dumps({"frame": {"intent": None, "slots": [["zzz", "boston"]]},
                                     "refs": ["boston"]}) + "\n")
    cfg["data"]["nlg_valid"] = str(nlg_valid)
    cfg2 = tmp_path / "c.json"
    cfg2.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run("gridsearch", "--config", cfg2, "--checkpoints", ckpt_dir, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'zzz' outside inventory" in err, err
    assert list(out.iterdir()) == []
