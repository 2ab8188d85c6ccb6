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
from .models import TrainConfig, model_from_checkpoint, to_checkpoint, train_model
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
        "augment": "auto",
    },
    "model": {"hidden": 200, "embedding": 50, "merges": 1000},
    "train": {"epochs": 10, "batch_size": 48, "teacher_forcing": 0.9,
              "lr": 0.001, "clip": 5.0, "models": ["nlu", "nlg", "lm", "mfm"]},
    "decode": {"beam": 20, "max_len": 60, "k_intent": 3},
    "dual": {"alpha": 0.5, "beta": 0.5, "grid_step": 0.1},
}


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
        except json.JSONDecodeError as e:
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
    if cfg["direction"] not in ("nlu", "nlg", "both"):
        raise ConfigError(f"direction must be nlu, nlg or both, not {cfg['direction']!r}")
    dual = cfg["dual"]
    for key, value, integer, lo, hi in (
            ("seed", cfg["seed"], True, 0, math.inf), ("dual.alpha", dual["alpha"], False, 0, 1),
            ("dual.beta", dual["beta"], False, 0, 1),
            ("decode.beam", cfg["decode"]["beam"], True, 1, math.inf)):
        if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
                or not lo <= value <= hi):
            kind = "an integer" if integer else "a number"
            raise ConfigError(f"{key} must be {kind} in [{lo}, {hi}], not {value!r}")
    try:
        decode.grid_intervals(dual["grid_step"])
    except (DecodeError, TypeError, ArithmeticError):
        raise ConfigError(f"dual.grid_step must divide 1, not {dual['grid_step']!r}") from None
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, ensure_ascii=False,
                               indent=2) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, cfg: dict, extra: dict | None = None):
    manifest = {"command": command, "config": cfg, "package_version": __version__}
    if extra:
        manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _require_path(cfg: dict, key: str) -> str:
    path = cfg["data"].get(key)
    if not path:
        raise ConfigError(f"config is missing required dataset path data.{key}")
    return path


def _load_train_split(cfg: dict):
    """Training examples for both shapes, filling a missing direction by
    augmentation when data.augment is 'auto'."""
    d = cfg["data"]
    nlu = load_nlu(d["nlu_train"]) if d.get("nlu_train") else None
    nlg = load_nlg(d["nlg_train"]) if d.get("nlg_train") else None
    if nlu is None and nlg is None:
        raise ConfigError("config needs data.nlu_train and/or data.nlg_train")
    if cfg["data"]["augment"] == "auto":
        if nlu is None:
            nlu, _ = augment_nlg_to_nlu(nlg)
            if not nlu:
                raise DataError("augmentation produced no usable tagged examples")
        if nlg is None:
            nlg = augment_nlu_to_nlg(nlu)
    if nlu is None or nlg is None:
        raise ConfigError("both data shapes are required when data.augment is not 'auto'")
    return nlu, nlg


def cmd_train(args, cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    nlu_raw, nlg_raw = _load_train_split(cfg)
    vocabs = build_vocabs(nlu_raw, nlg_raw, cfg["model"]["merges"])

    tc = TrainConfig(
        hidden=cfg["model"]["hidden"], embedding=cfg["model"]["embedding"],
        epochs=cfg["train"]["epochs"], batch_size=cfg["train"]["batch_size"],
        teacher_forcing=cfg["train"]["teacher_forcing"], lr=cfg["train"]["lr"],
        clip=cfg["train"]["clip"], seed=cfg["seed"])
    lm_texts = merge_dedup([ex.text for ex in nlu_raw],
                           [r for ex in nlg_raw for r in ex.refs])
    datasets = {
        "nlu": lambda: models.prepare_nlu_samples(nlu_raw, vocabs),
        "nlg": lambda: models.prepare_nlg_samples(nlg_raw, vocabs),
        "lm": lambda: models.prepare_lm_samples(lm_texts, vocabs),
        "mfm": lambda: [f for f in merge_dedup([ex.frame for ex in nlg_raw], [])
                        if f.n_features > 0],
    }
    echo = {"epochs": tc.epochs, "batch_size": tc.batch_size,
            "teacher_forcing": tc.teacher_forcing, "lr": tc.lr, "clip": tc.clip}
    losses: dict[str, list[float]] = {}
    for kind in cfg["train"]["models"]:
        if kind not in datasets:
            raise ConfigError(f"unknown model kind {kind!r} in train.models")
        model, kind_losses = train_model(kind, datasets[kind](), tc, vocabs)
        losses[kind] = kind_losses
        save_checkpoint(out_dir / f"{kind}.ckpt",
                        to_checkpoint(model, seed=cfg["seed"], extra_config=echo))
    _write_manifest(out_dir, "train", cfg, {"losses": losses})
    return 0


def _load_bundle(cfg: dict) -> ModelsBundle:
    ckpt_dir = cfg.get("checkpoints") or cfg["out_dir"]
    loaded: dict[str, Checkpoint] = {}
    for kind in data.MODEL_KINDS:
        path = Path(ckpt_dir) / f"{kind}.ckpt"
        if not path.exists():
            raise CheckpointError(f"missing checkpoint {path}")
        loaded[kind] = load_checkpoint(path)
        if loaded[kind].kind != kind:
            raise CheckpointError(f"{path} holds a {loaded[kind].kind!r} model")
    ref = loaded["nlu"]
    for kind, ckpt in loaded.items():
        if ckpt.vocab != ref.vocab or ckpt.labels != ref.labels:
            raise CheckpointError(
                f"checkpoint inventories are incompatible: {kind} vs nlu")
    return ModelsBundle(*(model_from_checkpoint(loaded[k]) for k in data.MODEL_KINDS))


def _eval_split(cfg: dict, split: str):
    nlu = nlg = None
    if cfg["direction"] in ("nlu", "both"):
        nlu = load_nlu(_require_path(cfg, f"nlu_{split}"))
    if cfg["direction"] in ("nlg", "both"):
        nlg = load_nlg(_require_path(cfg, f"nlg_{split}"))
    return nlu, nlg


def _decode_settings(cfg: dict) -> dict:
    dec = cfg["decode"]
    return {"beam": dec["beam"], "max_len": dec["max_len"],
            "k_intent": dec["k_intent"], "seed": cfg["seed"]}


def cmd_eval(args, cfg: dict) -> int:
    """``eval`` reports the beam's top hypotheses; ``dualinf`` re-ranks them
    at the configured (alpha, beta) and also writes per-hypothesis traces."""
    out_dir = Path(cfg["out_dir"])
    bundle = _load_bundle(cfg)
    weights = None
    if args.command == "dualinf":
        weights = DualWeights(cfg["dual"]["alpha"], cfg["dual"]["beta"])
    reports: dict[str, metrics.EvalReport] = {}
    traces: dict[str, list] = {}
    for direction, examples in zip(("nlu", "nlg"), _eval_split(cfg, "test")):
        if examples is not None:
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
    bundle = _load_bundle(cfg)
    settings = _decode_settings(cfg)
    selection: dict[str, dict] = {}
    for direction, examples in zip(("nlu", "nlg"), _eval_split(cfg, "valid")):
        if examples is None:
            continue
        res = grid_search(examples, bundle, direction, step=cfg["dual"]["grid_step"],
                          **settings)
        (out_dir / f"grid_{direction}.csv").write_text(res.to_csv(), encoding="utf-8")
        selection[direction] = {
            name: {"alpha": alpha, "beta": beta, "value": value}
            for name, (alpha, beta, value) in res.best.items()}
    _write_json(out_dir / "selection.json", selection)

    if args.eval_test:
        # one decode of the test split per direction, re-ranked for each pair
        test_eval: dict[str, dict] = {}
        for direction, examples in zip(("nlu", "nlg"), _eval_split(cfg, "test")):
            if examples is None:
                continue
            chosen = selection[direction]
            cached = decode.precompute(direction, examples, bundle, **settings)
            res = decode.sweep(examples, bundle, direction, cached,
                               [(info["alpha"], info["beta"]) for info in chosen.values()])
            test_eval[direction] = {
                name: {"alpha": row.alpha, "beta": row.beta,
                       "report": json.loads(row.report.to_json())}
                for name, row in zip(chosen, res.rows)}
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
            ("gridsearch", "sweep the 121 (alpha, beta) pairs on the validation split"),
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
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
