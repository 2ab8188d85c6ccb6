"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight fixtures
(700-example scored split, the 32-example overfit, the label-noise lift run)
are module-scoped and shared between criteria.
"""
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import RowStepper, finite_difference_check, make_model

from dualdec import data, decode, metrics, models
from dualdec.cli import main as cli_main
from dualdec.data import NlgExample, build_vocabs, save_nlg, save_nlu, synth_corpus
from dualdec.decode import DualWeights, Hypothesis, ModelsBundle, beam_search
from dualdec.frames import SemanticFrame
from dualdec.models import MODEL_CLASSES, ModelConfig, TrainConfig, train_model
from dualdec.tensor import derive_rng

pytestmark = pytest.mark.acceptance


def ok(criterion: int, detail: str):
    print(f"\ncriterion {criterion:02d} PASS: {detail}")


def run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def scored_split():
    """700-example synthetic test split, both directions decoded with beam 20
    and all four score components cached; models are seed-initialized (the
    reduction and invariance criteria hold for any parameter values)."""
    nlu_tr, nlg_tr = synth_corpus(501, 64)
    nlu_te, nlg_te = synth_corpus(502, 700)
    vocabs = build_vocabs(nlu_tr + nlu_te, nlg_tr + nlg_te, 600)
    bundle = ModelsBundle(*(MODEL_CLASSES[k](ModelConfig(hidden=16, embedding=8),
                                             vocabs, derive_rng(3, "init", k))
                            for k in ("nlu", "nlg", "lm", "mfm")))
    t0 = time.monotonic()
    nlg_cache = decode.precompute_nlg(nlg_te, bundle, beam=20, max_len=12, seed=9)
    nlu_cache = decode.precompute_nlu(nlu_te, bundle, beam=20, k_intent=3, seed=9)
    elapsed = time.monotonic() - t0
    return {"bundle": bundle, "vocabs": vocabs, "nlg_te": nlg_te, "nlu_te": nlu_te,
            "nlg_cache": nlg_cache, "nlu_cache": nlu_cache, "elapsed": elapsed}


@pytest.fixture(scope="module")
def overfit32():
    """Criterion 5 fixture: 200-epoch training on the fixed 32-example corpus."""
    nlu_raw, nlg_raw = synth_corpus(seed=301, size=32)
    vocabs = build_vocabs(nlu_raw, nlg_raw, merges=600)
    t0 = time.monotonic()
    nlu_m, _ = train_model(
        "nlu", models.prepare_nlu_samples(nlu_raw, vocabs),
        TrainConfig(hidden=32, embedding=16, epochs=200, batch_size=4, lr=3e-3, seed=7),
        vocabs)
    nlg_m, _ = train_model(
        "nlg", models.prepare_nlg_samples(nlg_raw, vocabs),
        TrainConfig(hidden=96, embedding=32, epochs=200, batch_size=2, lr=3e-3, seed=7),
        vocabs)
    elapsed = time.monotonic() - t0
    bundle = ModelsBundle(nlu_m, nlg_m, None, None)
    rep_nlu, _ = decode.evaluate_direction(nlu_raw, bundle, "nlu", None,
                                           beam=20, max_len=20, k_intent=3, seed=1)
    rep_nlg, _ = decode.evaluate_direction(nlg_raw, bundle, "nlg", None,
                                           beam=20, max_len=20, k_intent=3, seed=1)
    return {"rep_nlu": rep_nlu, "rep_nlg": rep_nlg, "elapsed": elapsed}


def corrupt_frames(examples, fraction, rng):
    """Swap slot values between corrupted examples (rotation within each slot
    key), so the corpus-wide value multiset, and therefore the learned
    vocabularies, stay identical to the clean data."""
    n = round(fraction * len(examples))
    idx = sorted(rng.choice(len(examples), size=n, replace=False).tolist())
    by_key = defaultdict(list)
    for i in idx:
        slots = examples[i].frame.slots
        pos = int(rng.integers(0, len(slots)))
        by_key[slots[pos][0]].append((i, pos))
    new_slots = {i: list(examples[i].frame.slots) for i in idx}
    for key in sorted(by_key):
        members = by_key[key]
        vals = [examples[i].frame.slots[pos][1] for i, pos in members]
        for (i, pos), v in zip(members, vals[1:] + vals[:1]):
            new_slots[i][pos] = (key, v)
    out = list(examples)
    for i in idx:
        frame = SemanticFrame(examples[i].frame.intent, tuple(new_slots[i]))
        out[i] = NlgExample(frame, examples[i].refs)
    return out, len(idx)


@pytest.fixture(scope="module")
def lift_run(tmp_path_factory):
    """Criterion 6 fixture, driven through the CLI: the generator trains on
    label-noised frames, the other three models on clean data, then
    cmd_gridsearch sweeps the clean validation split."""
    root = tmp_path_factory.mktemp("lift")
    nlu_tr, nlg_tr = synth_corpus(401, 160)
    nlu_va, nlg_va = synth_corpus(402, 48)
    noisy_nlg, n_corrupted = corrupt_frames(nlg_tr, 0.30, derive_rng(97, "noise"))
    assert n_corrupted == 48
    paths = {}
    for name, saver, examples in (
            ("nlu_train", save_nlu, nlu_tr), ("nlg_train", save_nlg, nlg_tr),
            ("nlg_train_noisy", save_nlg, noisy_nlg),
            ("nlu_valid", save_nlu, nlu_va), ("nlg_valid", save_nlg, nlg_va)):
        paths[name] = root / f"{name}.jsonl"
        saver(paths[name], examples)

    base = {
        "seed": 5,
        "model": {"hidden": 48, "embedding": 24, "merges": 600},
        "train": {"epochs": 30, "batch_size": 4, "lr": 3e-3},
        "decode": {"beam": 10, "max_len": 16},
        "data": {"nlu_train": str(paths["nlu_train"]),
                 "nlg_train": str(paths["nlg_train"]),
                 "nlu_valid": str(paths["nlu_valid"]),
                 "nlg_valid": str(paths["nlg_valid"])},
    }
    clean_cfg = json.loads(json.dumps(base))
    clean_cfg["train"]["models"] = ["nlu", "lm", "mfm"]
    noisy_cfg = json.loads(json.dumps(base))
    noisy_cfg["train"]["models"] = ["nlg"]
    noisy_cfg["data"]["nlg_train"] = str(paths["nlg_train_noisy"])
    (root / "clean.json").write_text(json.dumps(clean_cfg))
    (root / "noisy.json").write_text(json.dumps(noisy_cfg))
    assert run_cli("train", "--config", root / "clean.json", "--out", root / "clean") == 0
    assert run_cli("train", "--config", root / "noisy.json", "--out", root / "noisy") == 0

    mixed = root / "mixed"
    mixed.mkdir()
    for kind in ("nlu", "lm", "mfm"):
        (mixed / f"{kind}.ckpt").write_bytes((root / "clean" / f"{kind}.ckpt").read_bytes())
    (mixed / "nlg.ckpt").write_bytes((root / "noisy" / "nlg.ckpt").read_bytes())

    grid_out = root / "grid"
    assert run_cli("gridsearch", "--config", root / "clean.json", "--checkpoints",
                   mixed, "--out", grid_out, "--direction", "nlg", "--seed", "11") == 0
    return {"root": root, "grid_out": grid_out, "mixed": mixed}


def read_grid_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        vals = ln.split(",")
        rows.append({k: float(v) for k, v in zip(header, vals)})
    return header, rows


# ---------------------------------------------------------------------------
# criteria


@pytest.mark.slow
def test_criterion_01_alpha_one_reduction(scored_split):
    s = scored_split
    mismatches = 0
    for cache in (s["nlg_cache"], s["nlu_cache"]):
        for c in cache:
            for beta in (0.0, 0.5, 1.0):
                if c.select(DualWeights(1.0, beta)) != 0:
                    mismatches += 1
    # tie the cached hypotheses to a fresh plain decode on a subsample
    for ex, c in zip(s["nlg_te"][:25], s["nlg_cache"][:25]):
        fresh = decode.nlg_hypotheses(s["bundle"].nlg, ex.frame, 20, 12)
        assert fresh[0].payload == c.hypotheses[0].payload
    for ex, c in zip(s["nlu_te"][:25], s["nlu_cache"][:25]):
        utt = s["vocabs"].bpe.encode(ex.text)
        fresh = decode.nlu_hypotheses(s["bundle"].nlu, utt, 20, 3)
        assert (fresh[0].payload, fresh[0].intent) == \
            (c.hypotheses[0].payload, c.hypotheses[0].intent)
    assert mismatches == 0
    assert s["elapsed"] < 120.0, f"decode+scoring took {s['elapsed']:.1f}s"
    ok(1, f"0 mismatches over 700 examples x 2 directions x 3 betas "
          f"({s['elapsed']:.1f}s < 120s)")


@pytest.mark.slow
def test_criterion_02_input_marginal_invariance(scored_split):
    s = scored_split
    weights = [DualWeights(a, b) for a in (0.0, 0.3, 0.5, 0.7, 1.0)
               for b in (0.0, 0.5, 1.0)]
    changes = 0
    for cache in (s["nlg_cache"], s["nlu_cache"]):
        for c in cache:
            stripped = decode.CachedExample(
                c.hypotheses,
                [decode.Components(x.forward, x.backward, x.marg_out, 0.0)
                 for x in c.components])
            for w in weights:
                if c.select(w) != stripped.select(w):
                    changes += 1
    assert changes == 0
    ok(2, f"dropping the input-marginal term changed 0 of "
          f"{2 * 700 * len(weights)} rerank decisions")


def log_softmax_np(x):
    z = x - x.max()
    return z - math.log(np.exp(z).sum())


class TableStepper(RowStepper):
    def __init__(self, rng, n_symbols, eos, max_steps, spread=1.5):
        self.n_symbols = n_symbols
        self.eos = eos
        self.table = rng.normal(size=(max_steps + 2, n_symbols + 1, n_symbols)) * spread

    def start_one(self):
        return (0, self.n_symbols), log_softmax_np(self.table[0, self.n_symbols])

    def step(self, state, symbol):
        t, _ = state
        return (t + 1, symbol), log_softmax_np(self.table[t + 1, symbol])


def exhaustive_completions(stepper, max_len):
    out = []

    def rec(state, dist, payload, score):
        lp = dist[stepper.eos]
        out.append(Hypothesis(payload, score + lp))
        if len(payload) == max_len:
            return
        for v in range(stepper.n_symbols):
            if v == stepper.eos:
                continue
            ns, nd = stepper.step(state, v)
            rec(ns, nd, payload + (v,), score + float(dist[v]))

    state, dist = stepper.start_one()
    rec(state, dist, (), 0.0)
    out.sort(key=lambda h: (-h.forward_logprob, len(h.payload), h.payload))
    return out


def test_criterion_03_beam_vs_exhaustive_oracle():
    # beam search prunes the frontier to the beam width, so it provably equals
    # exhaustive enumeration only when tokens**(max_len-1) <= beam; sizes are
    # drawn within vocab <= 4 / max_len <= 4 under that bound (all combos but
    # vocab 4 with max_len 4)
    combos = [(v, l) for v in (2, 3, 4) for l in (2, 3, 4) if (v - 1) ** (l - 1) <= 20]
    rng = derive_rng(2024, "tiny")
    for i in range(50):
        v, l = combos[int(rng.integers(0, len(combos)))]
        stepper = TableStepper(derive_rng(2024, "tiny", i), v, v - 1, l)
        got = beam_search(stepper, 20, l)
        want = exhaustive_completions(stepper, l)[:20]
        assert [h.payload for h in got] == [h.payload for h in want], (v, l, i)
        for g, w in zip(got, want):
            assert abs(g.forward_logprob - w.forward_logprob) <= 1e-9
    ok(3, "beam-20 equals exhaustive top-20 on 50 random tiny models (tol 1e-9)")


def test_criterion_04_gradient_correctness():
    nlu_raw, nlg_raw = synth_corpus(seed=11, size=8)
    vocabs = build_vocabs(nlu_raw, nlg_raw, 300)
    datasets = {
        "nlu": models.prepare_nlu_samples(nlu_raw[:2], vocabs),
        "nlg": models.prepare_nlg_samples(nlg_raw[:2], vocabs),
        "lm": models.prepare_lm_samples([ex.text for ex in nlu_raw[:2]], vocabs),
        "mfm": [ex.frame for ex in nlg_raw[:2]],
    }
    worst_by_kind = {}
    rng = derive_rng(17, "acceptance-fd")
    for kind, samples in datasets.items():
        model = make_model(kind, vocabs, hidden=4, embedding=3, seed=23)
        checked, worst = finite_difference_check(kind, model, samples, rng,
                                                 n_params=20, h=1e-5)
        assert checked >= 20
        assert worst < 1e-4, f"{kind}: {worst}"
        worst_by_kind[kind] = worst
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst_by_kind.items())
    ok(4, f"20 finite-difference spot checks per model kind; worst rel err {detail}")


@pytest.mark.slow
def test_criterion_05_overfit_end_to_end(overfit32):
    f = overfit32
    assert f["rep_nlu"].intent_accuracy == 1.0
    assert f["rep_nlu"].slot_f1 >= 0.99
    assert f["rep_nlg"].bleu >= 0.90
    assert f["elapsed"] < 600.0
    ok(5, f"intent acc {f['rep_nlu'].intent_accuracy}, slot F1 "
          f"{f['rep_nlu'].slot_f1:.4f}, BLEU {f['rep_nlg'].bleu:.4f} "
          f"({f['elapsed']:.0f}s < 600s)")


@pytest.mark.slow
def test_criterion_06_dual_inference_lift(lift_run):
    header, rows = read_grid_csv(lift_run["grid_out"] / "grid_nlg.csv")
    baselines = {r["bleu"] for r in rows if r["alpha"] == 1.0}
    assert len(baselines) == 1  # alpha = 1 ignores beta entirely
    baseline = baselines.pop()
    lifted = [r for r in rows if r["alpha"] < 1.0 and r["bleu"] > baseline]
    assert lifted, f"no (alpha < 1) pair beat the baseline {baseline:.4f}"
    selection = json.loads((lift_run["grid_out"] / "selection.json").read_text())
    chosen = selection["nlg"]["bleu"]
    assert chosen["alpha"] < 1.0
    assert chosen["value"] > baseline
    best = max(r["bleu"] for r in rows)
    assert chosen["value"] == best
    ok(6, f"validation BLEU {baseline:.4f} (alpha=1) -> {chosen['value']:.4f} at "
          f"alpha={chosen['alpha']}, beta={chosen['beta']}; selected by cmd_gridsearch")


def test_criterion_07_metric_oracles():
    # frozen 5-pair corpus; all counts below were tallied by hand
    hyps = ["the cat sat on the mat", "a b c d", "x y z w", "p q r s t",
            "m n o p q"]
    refs = [["the cat sat on a mat"], ["a b c d", "a b c d e"], ["x y z w"],
            ["p q r s t u v"], ["m n x o p q"]]
    # clipped n-gram matches/totals per order, summed over the corpus:
    #   1g 23/24, 2g 16/19, 3g 10/14, 4g 5/9; hyp len 24, closest ref len 27
    expect_bleu = math.exp(1 - 27 / 24) * (23 / 24 * 16 / 19 * 10 / 14 * 5 / 9) ** 0.25
    assert abs(metrics.bleu(hyps, refs) - expect_bleu) < 1e-9

    # per-pair ROUGE F1 values (max over references, beta = 1):
    r1 = [5 / 6, 1.0, 1.0, 2 * (1 * 5 / 7) / (1 + 5 / 7), 2 * (1 * 5 / 6) / (1 + 5 / 6)]
    r2 = [3 / 5, 1.0, 1.0, 2 * (1 * 4 / 6) / (1 + 4 / 6),
          2 * (3 / 4 * 3 / 5) / (3 / 4 + 3 / 5)]
    rl = [5 / 6, 1.0, 1.0, 2 * (1 * 5 / 7) / (1 + 5 / 7), 2 * (1 * 5 / 6) / (1 + 5 / 6)]
    assert abs(metrics.rouge_n_corpus(hyps, refs, 1) - sum(r1) / 5) < 1e-9
    assert abs(metrics.rouge_n_corpus(hyps, refs, 2) - sum(r2) / 5) < 1e-9
    assert abs(metrics.rouge_l_corpus(hyps, refs) - sum(rl) / 5) < 1e-9
    for hyp, rs, e1, e2, el in zip(hyps, refs, r1, r2, rl):
        assert abs(metrics.rouge_n(hyp, rs, 1) - e1) < 1e-9
        assert abs(metrics.rouge_n(hyp, rs, 2) - e2) < 1e-9
        assert abs(metrics.rouge_l(hyp, rs) - el) < 1e-9

    prf = metrics.slot_f1([["B-a", "I-a", "O", "B-b"]], [["B-a", "I-a", "O", "O"]])
    assert prf.precision == 0.5 and prf.recall == 1.0
    assert prf.f1 == pytest.approx(2 / 3, abs=0)
    ok(7, "BLEU and ROUGE-(1,2,L) match hand-computed values to 1e-9; "
          "slot F1 fixture exact")


def test_criterion_08_worked_augmentation_examples():
    atis_words = "which flights travel from kansas city to los angeles on april ninth"
    atis_tags = ("O", "O", "O", "O", "B-fromloc.city_name", "I-fromloc.city_name",
                 "O", "B-toloc.city_name", "I-toloc.city_name", "O",
                 "B-depart_date.month_name", "B-depart_date.day_number")
    out = data.augment_nlu_to_nlg([data.NluExample(atis_words, atis_tags, "atis_flight")])
    from dualdec.frames import format_frame
    assert format_frame(out[0].frame) == (
        "intent[atis_flight], fromloc.city_name[kansas city], "
        "toloc.city_name[los angeles], depart_date.month_name[april], "
        "depart_date.day_number[ninth]")

    sentence = ("Bibimbap House is a moderately priced restaurant who's main cuisine "
                "is English food. You will find this local gem near Clare Hall in the "
                "Riverside area.")
    frame = SemanticFrame.build(None, [
        ("name", "Bibimbap House"), ("food", "English"), ("priceRange", "moderate"),
        ("area", "riverside"), ("near", "Clare Hall")])
    kept, dropped = data.augment_nlg_to_nlu([NlgExample(frame, (sentence,))])
    assert dropped == 0
    words = sentence.split()
    got = {w: t for w, t in zip(words, kept[0].tags) if t != "O"}
    assert got == {"Bibimbap": "B-name", "House": "I-name",
                   "moderately": "B-priceRange", "English": "B-food",
                   "Clare": "B-near", "Hall": "I-near", "Riverside": "B-area"}
    ok(8, "flight-query frame and restaurant tagging both reproduced")


@pytest.mark.slow
def test_criterion_09_grid_protocol(lift_run, tiny_corpus, tiny_vocabs):
    # (a) the CLI sweep emits exactly 121 data rows
    csv_path = lift_run["grid_out"] / "grid_nlg.csv"
    header, rows = read_grid_csv(csv_path)
    assert len(rows) == 121
    assert [(r["alpha"], r["beta"]) for r in rows] == decode.weight_grid(0.1)

    # (b) per-metric selection is reproducible from the CSV alone
    selection = json.loads((lift_run["grid_out"] / "selection.json").read_text())
    for name, info in selection["nlg"].items():
        best = max(r[name] for r in rows)
        first = next(r for r in rows if r[name] == best)
        assert info == {"alpha": first["alpha"], "beta": first["beta"], "value": best}

    # (c) cached components reproduce 121 independent full recomputations
    nlu_raw, _ = tiny_corpus
    bundle = ModelsBundle(*(make_model(k, tiny_vocabs, hidden=5, embedding=4, seed=41)
                            for k in ("nlu", "nlg", "lm", "mfm")))
    examples = nlu_raw[:3]
    res = decode.grid_search(examples, bundle, "nlu", beam=3, k_intent=2,
                             seed=13, step=0.1)
    assert len(res.rows) == 121
    utts = [tiny_vocabs.bpe.encode(ex.text) for ex in examples]
    for (a, b), picks in res.selections.items():
        w = DualWeights(a, b)
        for idx, utt in enumerate(utts):
            hyps = decode.nlu_hypotheses(bundle.nlu, utt, 3, 2)
            scored = [(h, decode.dual_score_nlu(h, utt, bundle.nlg, bundle.mfm,
                                                bundle.lm, w,
                                                derive_rng(13, "mask", idx, rank)))
                      for rank, h in enumerate(hyps)]
            assert decode.rerank_index(scored) == picks[idx]
    ok(9, "121 rows; cached rankings equal 121 full recomputations; "
          "selection reproducible from the CSV")


@pytest.mark.slow
def test_criterion_10_byte_identical_reruns(tmp_path):
    dataset = tmp_path / "ds"
    cfg_path = tmp_path / "cfg.json"
    run_dir = tmp_path / "run"
    dual_dir = tmp_path / "dual"
    grid_dir = tmp_path / "grid"

    def snapshot(path: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}

    assert run_cli("synth", "--out", dataset, "--seed", "3", "--train-size", "12",
                   "--valid-size", "6", "--test-size", "6") == 0
    first = snapshot(dataset)
    assert run_cli("synth", "--out", dataset, "--seed", "3", "--train-size", "12",
                   "--valid-size", "6", "--test-size", "6") == 0
    assert snapshot(dataset) == first

    cfg = {
        "seed": 21,
        "data": {p: str(dataset / f"{p}.jsonl")
                 for p in ("nlu_train", "nlg_train", "nlu_valid", "nlg_valid",
                           "nlu_test", "nlg_test")},
        "model": {"hidden": 8, "embedding": 6, "merges": 120},
        "train": {"epochs": 2, "batch_size": 6},
        "decode": {"beam": 3, "max_len": 8, "k_intent": 2},
    }
    cfg_path.write_text(json.dumps(cfg))

    checks = []
    for name, argv in (
            ("train", ("train", "--config", cfg_path, "--out", run_dir)),
            ("dualinf", ("dualinf", "--config", cfg_path, "--checkpoints", run_dir,
                         "--out", dual_dir, "--alpha", "0.5", "--beta", "0.5")),
            ("gridsearch", ("gridsearch", "--config", cfg_path, "--checkpoints",
                            run_dir, "--out", grid_dir))):
        assert run_cli(*argv) == 0
        out_dir = {"train": run_dir, "dualinf": dual_dir, "gridsearch": grid_dir}[name]
        first = snapshot(out_dir)
        assert run_cli(*argv) == 0
        second = snapshot(out_dir)
        assert set(first) == set(second)
        diff = [f for f in first if first[f] != second[f]]
        assert not diff, f"{name}: {diff} changed between reruns"
        checks.append(f"{name}({len(first)} files)")
    ok(10, "byte-identical reruns: synth, " + ", ".join(checks))
