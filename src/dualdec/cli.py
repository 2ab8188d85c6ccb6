"""Experiment orchestration: train, eval, dualinf, gridsearch, synth.

Configuration is a single JSON document; command-line flags override file
values, which override the built-in defaults (the defaults are the published
training recipe: hidden 200, embedding 50, batch 48, 10 epochs, teacher
forcing 0.9, beam 20). Every command writes a manifest with the fully
resolved configuration, and reruns with the same configuration and seed
produce byte-identical outputs.

Exit codes: 0 success, 2 usage or configuration, 3 data, 4 checkpoint.
"""
from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, data, decode, metrics, models
from .data import (Checkpoint, CheckpointError, DataError, augment_nlg_to_nlu,
                   augment_nlu_to_nlg, build_vocabs, load_checkpoint, load_nlg,
                   load_nlu, merge_dedup, save_checkpoint, save_nlg, save_nlu,
                   synth_corpus)
from .decode import DecodeError, DualWeights, ModelsBundle, grid_search
from .frames import FrameError
from .metrics import MetricError
from .models import (TrainConfig, TrainingError, model_from_checkpoint, to_checkpoint,
                     train_model)
from .textproc import BpeError


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "seed": 0,
    "out_dir": "runs/out",
    "direction": "both",
    "checkpoints": None,
    "data": {
        "nlu_train": None, "nlg_train": None,
        "nlu_valid": None, "nlg_valid": None,
        "nlu_test": None, "nlg_test": None,
    },
    "model": {"hidden": 200, "embedding": 50, "merges": 1000},
    "train": {"epochs": 10, "batch_size": 48, "teacher_forcing": 0.9,
              "lr": 0.001, "clip": 5.0, "models": ["nlu", "nlg", "lm", "mfm"]},
    "decode": {"beam": 20, "max_len": 60, "k_intent": 3},
    "dual": {"alpha": 0.5, "beta": 0.5, "grid_step": 0.1},
}


# (key, integer, lo, hi): every numeric config value and its closed range;
# an infinite upper end stands for no bound, and the value must be finite.
# The size keys are capped, so an absurd size exits 2 instead of exhausting
# memory: at the caps, one beam step's log-probs or one weight matrix takes
# tens of MB.
NUMERIC_KEYS = (
    ("seed", True, 0, math.inf),
    ("model.hidden", True, 1, 1024), ("model.embedding", True, 1, 1024),
    ("model.merges", True, 0, math.inf),
    ("train.epochs", True, 0, math.inf), ("train.batch_size", True, 1, math.inf),
    ("train.teacher_forcing", False, 0, 1), ("train.lr", False, 0, math.inf),
    ("train.clip", False, 0, math.inf),
    ("decode.beam", True, 1, 1000), ("decode.max_len", True, 1, 1000),
    ("decode.k_intent", True, 1, math.inf),
    ("dual.alpha", False, 0, 1), ("dual.beta", False, 0, 1), ("dual.grid_step", False, 0, 1),
)
MAX_SPLIT_SIZE = 100_000  # examples per synth split, so a mistyped size cannot fill the disk


def _lookup(cfg: dict, key: str):
    section, _, name = key.rpartition(".")
    return (cfg[section] if section else cfg)[name]


def _merge_section(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must hold an object")
            out[key] = _merge_section(base[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {config_path}: {e}") from None
        except (ValueError, RecursionError) as e:  # not UTF-8 or not JSON Python can parse
            raise ConfigError(f"malformed config {config_path}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge_section(cfg, file_cfg)
    for flag, section, key in (
            ("seed", None, "seed"), ("out", None, "out_dir"), ("direction", None, "direction"),
            ("checkpoints", None, "checkpoints"), ("alpha", "dual", "alpha"),
            ("beta", "dual", "beta"), ("beam", "decode", "beam")):
        value = getattr(args, flag, None)
        if value is not None:
            (cfg[section] if section else cfg)[key] = value
    for split in ("train", "valid", "test"):
        size = getattr(args, f"{split}_size", None)
        if size is not None and not 1 <= size <= MAX_SPLIT_SIZE:
            raise ConfigError(f"--{split}-size must be in [1, {MAX_SPLIT_SIZE}], not {size}")
    if cfg["direction"] not in ("nlu", "nlg", "both"):
        raise ConfigError(f"direction must be nlu, nlg or both, not {cfg['direction']!r}")
    for key, integer, lo, hi in NUMERIC_KEYS:
        value = _lookup(cfg, key)
        if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
                or not lo <= value <= hi or value == math.inf):
            kind = "an integer" if integer else "a finite number"
            raise ConfigError(f"{key} must be {kind} in [{lo}, {hi}], not {value!r}")
    grid_step = cfg["dual"]["grid_step"]
    try:
        decode.grid_intervals(grid_step)
    except (DecodeError, ArithmeticError):
        raise ConfigError(f"dual.grid_step must divide 1 at most 100 times, not {grid_step!r}") from None
    for key in ("out_dir", "checkpoints", *(f"data.{k}" for k in cfg["data"])):
        value = _lookup(cfg, key)
        if not isinstance(value, str) and (value is not None or key == "out_dir"):
            raise ConfigError(f"{key} must be a string, not {value!r}")
    kinds = cfg["train"]["models"]
    if not isinstance(kinds, list) or not kinds or not all(k in data.MODEL_KINDS for k in kinds):
        raise ConfigError(f"train.models must be a non-empty list drawn from "
                          f"{', '.join(data.MODEL_KINDS)}, not {kinds!r}")
    if (bad := data.unencodable(cfg)) is not None:  # from the file or from argv
        raise ConfigError(f"config value {bad}")
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, ensure_ascii=False,
                               indent=2) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, cfg: dict, extra: dict | None = None):
    manifest = {"command": command, "config": cfg, "package_version": __version__}
    if extra:
        manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _load_split(cfg: dict, split: str) -> dict[str, list]:
    """The examples of ``split`` for each configured direction, keyed by it."""
    directions = ("nlu", "nlg") if cfg["direction"] == "both" else (cfg["direction"],)
    paths = {d: cfg["data"][f"{d}_{split}"] for d in directions}
    for d, path in paths.items():
        if not path:
            raise ConfigError(f"config is missing required dataset path data.{d}_{split}")
    loaders = {"nlu": load_nlu, "nlg": load_nlg}
    return {d: loaders[d](path) for d, path in paths.items()}


def _load_train_split(cfg: dict):
    """Training examples for both shapes, filling a missing one by
    augmentation; also returns the kept and dropped counts of each
    augmentation that ran."""
    d = cfg["data"]
    nlu = load_nlu(d["nlu_train"]) if d["nlu_train"] else None
    nlg = load_nlg(d["nlg_train"]) if d["nlg_train"] else None
    if nlu is None and nlg is None:
        raise ConfigError("config needs data.nlu_train and/or data.nlg_train")
    augmentation = {}
    if nlu is None:
        nlu, dropped = augment_nlg_to_nlu(nlg)
        augmentation["nlg_to_nlu"] = {"kept": len(nlu), "dropped": dropped}
        if not nlu:
            raise DataError("augmentation produced no usable tagged examples")
    if nlg is None:
        nlg = augment_nlu_to_nlg(nlu)
        augmentation["nlu_to_nlg"] = {"kept": len(nlg), "dropped": 0}
    return nlu, nlg, augmentation


def cmd_train(args, cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    nlu_raw, nlg_raw, augmentation = _load_train_split(cfg)
    vocabs = build_vocabs(nlu_raw, nlg_raw, cfg["model"]["merges"])

    # the training settings, also echoed into every checkpoint's config
    echo = {k: v for k, v in cfg["train"].items() if k != "models"}
    tc = TrainConfig(hidden=cfg["model"]["hidden"], embedding=cfg["model"]["embedding"],
                     seed=cfg["seed"], **echo)
    lm_texts = merge_dedup([ex.text for ex in nlu_raw],
                           [r for ex in nlg_raw for r in ex.refs])
    datasets = {
        "nlu": lambda: models.prepare_nlu_samples(nlu_raw, vocabs),
        "nlg": lambda: models.prepare_nlg_samples(nlg_raw, vocabs),
        "lm": lambda: models.prepare_lm_samples(lm_texts, vocabs),
        "mfm": lambda: [f for f in merge_dedup([ex.frame for ex in nlg_raw], [])
                        if f.n_features > 0],
    }
    # built before any training; only mfm's can be empty (the rest hold a row per example)
    prepared = {kind: datasets[kind]() for kind in cfg["train"]["models"]}
    if prepared.get("mfm") == []:
        raise DataError("the masked frame model needs a training frame with a slot or an intent")
    # every model trains before any file is written, so a run that fails
    # leaves out_dir as it found it
    losses: dict[str, list[float]] = {}
    checkpoints: dict[str, Checkpoint] = {}
    for kind, dataset in prepared.items():
        model, losses[kind] = train_model(kind, dataset, tc, vocabs)
        checkpoints[kind] = to_checkpoint(model, seed=cfg["seed"], extra_config=echo)
    for kind, ckpt in checkpoints.items():
        save_checkpoint(out_dir / f"{kind}.ckpt", ckpt)
    extra = {"losses": losses}
    if augmentation:
        extra["augmentation"] = augmentation
    _write_manifest(out_dir, "train", cfg, extra)
    return 0


def _load_bundle(cfg: dict, kinds: tuple[str, ...] = data.MODEL_KINDS) -> ModelsBundle:
    """The models of ``kinds`` from the checkpoint directory; the others stay
    None. Every loaded checkpoint must carry the first one's inventories."""
    ckpt_dir = cfg.get("checkpoints") or cfg["out_dir"]
    loaded: dict[str, Checkpoint] = {}
    for kind in kinds:
        path = Path(ckpt_dir) / f"{kind}.ckpt"
        if not path.exists():
            raise CheckpointError(f"missing checkpoint {path}")
        loaded[kind] = load_checkpoint(path)
        if loaded[kind].kind != kind:
            raise CheckpointError(f"{path} holds a {loaded[kind].kind!r} model")
    first, ref = next(iter(loaded.items()))
    for kind, ckpt in loaded.items():
        if ckpt.vocab != ref.vocab or ckpt.labels != ref.labels:
            raise CheckpointError(
                f"checkpoint inventories are incompatible: {kind} vs {first}")
    return ModelsBundle(*(model_from_checkpoint(loaded[k]) if k in loaded else None
                          for k in data.MODEL_KINDS))


def _decode_settings(cfg: dict) -> dict:
    dec = cfg["decode"]
    return {"beam": dec["beam"], "max_len": dec["max_len"],
            "k_intent": dec["k_intent"], "seed": cfg["seed"]}


def cmd_eval(args, cfg: dict) -> int:
    """``eval`` reports the beam's top hypotheses; ``dualinf`` re-ranks them
    at the configured (alpha, beta) and also writes per-hypothesis traces."""
    out_dir = Path(cfg["out_dir"])
    test = _load_split(cfg, "test")
    if args.command == "dualinf":
        bundle = _load_bundle(cfg)
        weights = DualWeights(cfg["dual"]["alpha"], cfg["dual"]["beta"])
    else:  # plain decoding reads only the model of each direction
        bundle = _load_bundle(cfg, tuple(test))
        weights = None
    reports: dict[str, metrics.EvalReport] = {}
    traces: dict[str, list] = {}
    for direction, examples in test.items():
        reports[direction], traces[direction] = decode.evaluate_direction(
            examples, bundle, direction, weights, **_decode_settings(cfg))
    report = metrics.merge_reports(reports.get("nlu"), reports.get("nlg"))
    (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    if weights is not None:
        for direction, rows in traces.items():
            with open(out_dir / f"trace_{direction}.jsonl", "w", encoding="utf-8") as fh:
                for t in rows:
                    fh.write(json.dumps(t, sort_keys=True, ensure_ascii=False) + "\n")
    _write_manifest(out_dir, args.command, cfg)
    return 0


def cmd_gridsearch(args, cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    valid = _load_split(cfg, "valid")
    test = _load_split(cfg, "test") if args.eval_test else {}
    bundle = _load_bundle(cfg)
    settings = _decode_settings(cfg)
    # every sweep and test evaluation runs before any file is written
    grids: dict[str, str] = {}
    selection: dict[str, dict] = {}
    for direction, examples in valid.items():
        res = grid_search(examples, bundle, direction, step=cfg["dual"]["grid_step"],
                          **settings)
        grids[direction] = res.to_csv()
        selection[direction] = {
            name: {"alpha": alpha, "beta": beta, "value": value}
            for name, (alpha, beta, value) in res.best.items()}

    test_eval: dict[str, dict] = {}
    if args.eval_test:
        # one decode of the test split per direction, re-ranked for each pair
        for direction, examples in test.items():
            chosen = selection[direction]
            cached = decode.precompute(direction, examples, bundle, **settings)
            res = decode.sweep(examples, bundle, direction, cached,
                               [(info["alpha"], info["beta"]) for info in chosen.values()])
            test_eval[direction] = {
                name: {"alpha": row.alpha, "beta": row.beta,
                       "report": json.loads(row.report.to_json())}
                for name, row in zip(chosen, res.rows)}
    for direction, csv in grids.items():
        (out_dir / f"grid_{direction}.csv").write_text(csv, encoding="utf-8")
    _write_json(out_dir / "selection.json", selection)
    if args.eval_test:
        _write_json(out_dir / "test_report.json", test_eval)
    _write_manifest(out_dir, "gridsearch", cfg)
    return 0


def cmd_synth(args, cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    sizes = {"train": args.train_size, "valid": args.valid_size, "test": args.test_size}
    manifest_splits = {}
    for i, (split, size) in enumerate(sizes.items()):
        nlu, nlg = synth_corpus(cfg["seed"] + i, size)
        save_nlu(out_dir / f"nlu_{split}.jsonl", nlu)
        save_nlg(out_dir / f"nlg_{split}.jsonl", nlg)
        manifest_splits[split] = {"count": size,
                                  "nlu": f"nlu_{split}.jsonl",
                                  "nlg": f"nlg_{split}.jsonl"}
    _write_json(out_dir / "dataset.json", {"name": "synthetic", "splits": manifest_splits})
    _write_manifest(out_dir, "synth", cfg, {"sizes": sizes})
    return 0


COMMANDS = {"train": cmd_train, "eval": cmd_eval, "dualinf": cmd_eval,
            "gridsearch": cmd_gridsearch, "synth": cmd_synth}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualdec",
        description="Dual-inference decoding between slot-filling NLU and "
                    "semantic-frame NLG.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("train", "train the four models and write checkpoints"),
            ("eval", "plain (alpha=1) decoding and metrics on the test split"),
            ("dualinf", "dual-inference re-ranking at one (alpha, beta)"),
            ("gridsearch", "sweep the (alpha, beta) grid of dual.grid_step on the "
                           "validation split (121 pairs at the default 0.1)"),
            ("synth", "generate the synthetic template corpus")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory")
        if name != "eval":  # plain decoding draws no random numbers
            p.add_argument("--seed", type=int)
        if name in ("eval", "dualinf", "gridsearch"):
            p.add_argument("--direction", choices=["nlu", "nlg", "both"])
            p.add_argument("--beam", type=int)
            p.add_argument("--checkpoints", help="directory holding *.ckpt files")
        if name == "dualinf":
            p.add_argument("--alpha", type=float)
            p.add_argument("--beta", type=float)
        if name == "gridsearch":
            p.add_argument("--eval-test", action="store_true", dest="eval_test",
                           help="also evaluate the selected pairs on the test split")
        if name == "synth":
            p.add_argument("--train-size", type=int, default=32)
            p.add_argument("--valid-size", type=int, default=16)
            p.add_argument("--test-size", type=int, default=32)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        Path(cfg["out_dir"]).mkdir(parents=True, exist_ok=True)
        # an overflowing logit or a NaN parameter reaches an explicit check
        # that exits 3 or 4 and names it; numpy need not warn on the way
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, FrameError, BpeError, MetricError, DecodeError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
