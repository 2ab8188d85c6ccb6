import math
from pathlib import Path

import numpy as np
import pytest

from conftest import build_vocabs, make_model, randomize

from dualdec import data, models
from dualdec import tensor as T
from dualdec.frames import FrameError, SemanticFrame
from dualdec.models import (TrainConfig, lm_score_tokens, masked_frame_score, nlg_score,
                            nlg_step, nlu_intent, nlu_score, nlu_step, train_model)
from dualdec.tensor import derive_rng, nd
from dualdec.textproc import BOS, EOS, LabelVocab, Vocabs, bpe_train


# ---------------------------------------------------------------------------
# independent numpy forward oracle (no use of the library's op trace)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_gru(ps, prefix, x, h):
    H = len(h)
    gi = ps[f"{prefix}.w_ih"] @ x + ps[f"{prefix}.b_ih"]
    gh = ps[f"{prefix}.w_hh"] @ h + ps[f"{prefix}.b_hh"]
    r = np_sigmoid(gi[:H] + gh[:H])
    z = np_sigmoid(gi[H:2 * H] + gh[H:2 * H])
    n = np.tanh(gi[2 * H:] + r * gh[2 * H:])
    return (1 - z) * n + z * h


def np_log_softmax(x):
    z = x - x.max()
    return z - math.log(np.exp(z).sum())


def manual_nlu_score(m, utt, tags, intent):
    ps = {k: p.data for k, p in m.params.items()}
    h = np.zeros(m.cfg.hidden)
    prev = ps["start_tag"]
    total = 0.0
    for tok, tag in zip(utt.tokens, tags):
        h = np_gru(ps, "gru", np.concatenate([ps["word_emb"][tok], prev]), h)
        lp = np_log_softmax(ps["tag_proj.w"] @ h + ps["tag_proj.b"])
        total += lp[tag]
        prev = ps["tag_emb"][tag]
    if intent is not None:
        total += np_log_softmax(ps["intent_proj.w"] @ h + ps["intent_proj.b"])[intent]
    return total


def manual_pair_feature(ps, seq):
    H = ps["feat.b"].shape[0]
    hf = np.zeros(H)
    hb = np.zeros(H)
    for x in seq:
        hf = np_gru(ps, "enc_f", x, hf)
    for x in reversed(seq):
        hb = np_gru(ps, "enc_b", x, hb)
    return np.tanh(ps["feat.w"] @ np.concatenate([hf, hb]) + ps["feat.b"])


def manual_nlg_score(m, frame, utt):
    ps = {k: p.data for k, p in m.params.items()}
    feats = []
    for key, value in frame.slots:
        ids = m.vocabs.bpe.encode_ids(" ".join(value))
        seq = [ps["key_emb"][m.vocabs.labels.key_id(key)]] + [ps["word_emb"][i] for i in ids]
        feats.append(manual_pair_feature(ps, seq))
    if frame.intent is not None and m.vocabs.labels.n_intents:
        feats.append(ps["intent_emb"][m.vocabs.labels.intent_id(frame.intent)])
    F = np.stack(feats)
    h = F.mean(axis=0)
    prev = BOS
    total = 0.0
    for tok in list(utt.tokens) + [EOS]:
        scores = F @ h / math.sqrt(m.cfg.hidden)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        ctx = w @ F
        h = np_gru(ps, "dec", np.concatenate([ctx, ps["word_emb"][prev]]), h)
        total += np_log_softmax(ps["out.w"] @ h + ps["out.b"])[tok]
        prev = tok
    return total


def manual_lm_score(m, tokens):
    ps = {k: p.data for k, p in m.params.items()}
    h = np.zeros(m.cfg.hidden)
    prev = BOS
    total = 0.0
    for tok in list(tokens) + [EOS]:
        h = np_gru(ps, "gru", ps["word_emb"][prev], h)
        total += np_log_softmax(ps["out.w"] @ h + ps["out.b"])[tok]
        prev = tok
    return total


def manual_mfm_single_mask(m, frame, pos):
    """log P(true label at ``pos`` | the frame with ``pos`` masked)."""
    ps = {k: p.data for k, p in m.params.items()}
    labels = m.vocabs.labels
    feats, targets = [], []
    for key, value in frame.slots:
        ids = m.vocabs.bpe.encode_ids(" ".join(value))
        key_id = labels.key_id(key)
        feats.append(manual_pair_feature(ps, [ps["key_emb"][key_id]]
                                         + [ps["word_emb"][i] for i in ids]))
        targets.append(key_id)
    if frame.intent is not None and labels.n_intents:
        feats.append(ps["intent_emb"][labels.intent_id(frame.intent)])
        targets.append(labels.n_slot_keys + labels.intent_id(frame.intent))
    feats[pos] = ps["mask"]
    X = np.stack(feats)
    for li in range(2):
        L = {n: ps[f"layer{li}.{n}"] for n in ("q", "k", "v", "f1.w", "f1.b", "f2.w", "f2.b")}
        scores = (X @ L["q"].T) @ (X @ L["k"].T).T / math.sqrt(m.cfg.hidden)
        A = np.exp(scores - scores.max(axis=1, keepdims=True))
        A /= A.sum(axis=1, keepdims=True)
        X = X + A @ (X @ L["v"].T)
        X = X + np.tanh(X @ L["f1.w"].T + L["f1.b"]) @ L["f2.w"].T + L["f2.b"]
    logits = X @ ps["cls.w"].T + ps["cls.b"]
    return np_log_softmax(logits[pos])[targets[pos]]


# ---------------------------------------------------------------------------
# NLU


def force_one_hot_tags(m, tag_for_all: int):
    m.params["tag_proj.w"].data[...] = 0.0
    m.params["tag_proj.b"].data[...] = -2000.0
    m.params["tag_proj.b"].data[tag_for_all] = 2000.0


def test_nlu_one_hot_forcing_scores_exactly_zero(tiny_vocabs):
    m = make_model("nlu", tiny_vocabs)
    force_one_hot_tags(m, 0)
    utt = tiny_vocabs.bpe.encode("show flights from boston")
    score = nlu_score(m, utt, [0] * len(utt.tokens))
    assert score.total == 0.0


def test_nlu_score_additivity(tiny_vocabs, tiny_models):
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("book a thai table in denver")
    tags = [i % 3 for i in range(len(utt.tokens))]
    score = nlu_score(m, utt, tags, intent=1)
    assert score.total == pytest.approx(sum(score.steps) + score.intent_logprob, abs=1e-12)


def test_nlu_matches_manual_forward_oracle(tiny_vocabs):
    m = make_model("nlu", tiny_vocabs, hidden=2, embedding=3, seed=5)
    randomize(m, derive_rng(8, "rand"))
    utt = tiny_vocabs.bpe.encode("play something by nina simone")
    tags = [(i * 2) % tiny_vocabs.labels.n_tags for i in range(len(utt.tokens))]
    got = nlu_score(m, utt, tags, intent=2)
    want = manual_nlu_score(m, utt, tags, 2)
    assert got.total == pytest.approx(want, rel=1e-12)


def test_nlu_step_normalizes_and_is_deterministic(tiny_models):
    m = tiny_models["nlu"]
    state = models.nlu_start(m)
    lp1, h1 = nlu_step(m, state, word=5, prev_tag=None)
    lp2, h2 = nlu_step(m, state, word=5, prev_tag=None)
    assert np.array_equal(lp1, lp2) and np.array_equal(h1, h2)
    assert np.exp(lp1).sum() == pytest.approx(1.0, abs=1e-9)
    ilp = nlu_intent(m, h1)
    assert np.exp(ilp).sum() == pytest.approx(1.0, abs=1e-9)


def test_nlu_step_chain_agrees_with_score(tiny_vocabs, tiny_models):
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("what is the forecast for seattle")
    tags = [(i + 1) % tiny_vocabs.labels.n_tags for i in range(len(utt.tokens))]
    state = models.nlu_start(m)
    prev = None
    total = 0.0
    for tok, tag in zip(utt.tokens, tags):
        lp, state = nlu_step(m, state, tok, prev)
        total += lp[tag]
        prev = tag
    total += nlu_intent(m, state)[0]
    score = nlu_score(m, utt, tags, intent=0)
    assert total == pytest.approx(score.total, abs=1e-12)


def test_nlu_inventory_mismatch_rejected(tiny_vocabs, tiny_models):
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("play")
    with pytest.raises(FrameError):
        nlu_score(m, utt, [10_000] * len(utt.tokens))
    with pytest.raises(FrameError):
        nlu_score(m, utt, [0] * (len(utt.tokens) + 1))


# ---------------------------------------------------------------------------
# NLG


def test_nlg_one_hot_forcing_scores_exactly_zero(tiny_vocabs):
    m = make_model("nlg", tiny_vocabs)
    utt = tiny_vocabs.bpe.encode("play something")
    out_b = m.params["out.b"].data
    m.params["out.w"].data[...] = 0.0
    out_b[...] = -2000.0
    # force the gold token at every step, EOS included
    frame = SemanticFrame.build("play_music", [("artist", "nina simone")])
    seq = list(utt.tokens) + [EOS]
    for tok in seq:
        out_b[tok] = 2000.0
    # only exact when all steps share one target; use a repeated single token
    rep = tiny_vocabs.bpe.encode("play play play")
    out_b[...] = -2000.0
    out_b[rep.tokens[0]] = 2000.0
    out_b[EOS] = 2000.0
    # two-way tie between the token and EOS gives log(1/2) per step, so pin
    # the token alone and score a sequence without the EOS competition
    out_b[EOS] = -2000.0
    score = nlg_score(m, frame, rep)
    assert score.steps[0] == 0.0
    assert all(s == 0.0 for s in score.steps[:-1])


def test_nlg_slot_permutation_with_identical_features(tiny_vocabs):
    # zeroed encoder weights make every slot feature identical, so permuting
    # slots must leave the score bit-for-bit unchanged
    m = make_model("nlg", tiny_vocabs)
    for name, p in m.params.items():
        if name.startswith(("enc_f", "enc_b", "feat.")):
            p.data[...] = 0.0
    frame_a = SemanticFrame.build("find_flight",
                                  [("origin", "boston"), ("destination", "denver")])
    frame_b = SemanticFrame.build("find_flight",
                                  [("destination", "denver"), ("origin", "boston")])
    utt = tiny_vocabs.bpe.encode("show flights from boston to denver")
    assert nlg_score(m, frame_a, utt).total == nlg_score(m, frame_b, utt).total


def test_nlg_slot_permutation_invariance_random_model(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    frame_a = SemanticFrame.build("book_table", [("cuisine", "thai"), ("city", "austin")])
    frame_b = SemanticFrame.build("book_table", [("city", "austin"), ("cuisine", "thai")])
    utt = tiny_vocabs.bpe.encode("book a thai table in austin")
    a = nlg_score(m, frame_a, utt).total
    b = nlg_score(m, frame_b, utt).total
    assert a == pytest.approx(b, abs=1e-9)


def test_nlg_matches_manual_forward_oracle(tiny_vocabs):
    m = make_model("nlg", tiny_vocabs, hidden=2, embedding=3, seed=6)
    randomize(m, derive_rng(9, "rand"))
    frame = SemanticFrame.build("weather", [("city", "portland"), ("day", "friday")])
    utt = tiny_vocabs.bpe.encode("what is the forecast for portland on friday")
    got = nlg_score(m, frame, utt).total
    assert got == pytest.approx(manual_nlg_score(m, frame, utt), rel=1e-12)


def test_nlg_step_chain_agrees_with_score(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    frame = SemanticFrame.build("play_music", [("artist", "chet baker")])
    utt = tiny_vocabs.bpe.encode("play chet baker for me please")
    F = models.nlg_features_np(m, frame)
    state = models.nlg_start(m, F)
    prev = None
    total = 0.0
    for tok in list(utt.tokens) + [EOS]:
        lp, attn, state = nlg_step(m, state, prev, F)
        assert attn.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-9)
        total += lp[tok]
        prev = tok
    assert total == pytest.approx(nlg_score(m, frame, utt).total, abs=1e-12)


def test_nlg_single_feature_gets_full_attention(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    F = models.nlg_features_np(m, SemanticFrame.build(None, [("city", "boston")]))
    assert F.shape[0] == 1
    _, attn, _ = nlg_step(m, models.nlg_start(m, F), None, F)
    assert attn.shape == (1,) and attn[0] == 1.0


def test_nlg_empty_feature_fallback(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    degenerate = SemanticFrame(None, ())
    F = models.nlg_features_np(m, degenerate)
    assert F.shape == (1, m.cfg.hidden)
    assert np.array_equal(F[0], m.params["empty_feat"].data)
    utt = tiny_vocabs.bpe.encode("play")
    assert math.isfinite(nlg_score(m, degenerate, utt).total)


def test_nlg_step_rejects_empty_features(tiny_models):
    m = tiny_models["nlg"]
    with pytest.raises(FrameError):
        nlg_step(m, np.zeros(m.cfg.hidden), None, np.zeros((0, m.cfg.hidden)))


# ---------------------------------------------------------------------------
# LM


def test_lm_uniform_forced_score(tiny_vocabs):
    m = make_model("lm", tiny_vocabs)
    m.params["out.w"].data[...] = 0.0
    m.params["out.b"].data[...] = 0.0
    utt = tiny_vocabs.bpe.encode("play something by chet baker")
    V = len(tiny_vocabs.bpe.pieces)
    L = len(utt.tokens)
    assert lm_score_tokens(m, utt.tokens).total == pytest.approx(-(L + 1) * math.log(V),
                                                                 rel=1e-12)


def test_lm_appending_token_decreases_prefix_logprob(tiny_vocabs, tiny_models):
    m = tiny_models["lm"]
    utt = tiny_vocabs.bpe.encode("show flights from boston")
    longer = tiny_vocabs.bpe.encode("show flights from boston boston")
    short_prefix = sum(lm_score_tokens(m, utt.tokens).steps[:-1])
    long_prefix = sum(lm_score_tokens(m, longer.tokens).steps[:-1])
    assert long_prefix < short_prefix


def test_lm_matches_manual_forward_oracle(tiny_vocabs):
    m = make_model("lm", tiny_vocabs, hidden=2, embedding=3, seed=7)
    randomize(m, derive_rng(10, "rand"))
    utt = tiny_vocabs.bpe.encode("how is the weather in orlando")
    assert lm_score_tokens(m, utt.tokens).total == pytest.approx(
        manual_lm_score(m, utt.tokens), rel=1e-12)


# ---------------------------------------------------------------------------
# masked frame model


def test_mfm_forced_certain_classifier_scores_zero(tiny_vocabs):
    m = make_model("mfm", tiny_vocabs)
    frame = SemanticFrame.build(None, [("city", "boston")])
    m.params["cls.w"].data[...] = 0.0
    m.params["cls.b"].data[...] = -2000.0
    m.params["cls.b"].data[tiny_vocabs.labels.key_id("city")] = 2000.0
    assert masked_frame_score(m, frame, derive_rng(0, "mask")) == 0.0


def test_mfm_same_seed_same_score(tiny_vocabs, tiny_models):
    m = tiny_models["mfm"]
    frame = SemanticFrame.build("find_flight",
                                [("origin", "boston"), ("destination", "austin"),
                                 ("day", "monday")])
    a = masked_frame_score(m, frame, derive_rng(4, "mask"))
    b = masked_frame_score(m, frame, derive_rng(4, "mask"))
    assert a == b
    scores = {masked_frame_score(m, frame, derive_rng(s, "mask")) for s in range(8)}
    assert len(scores) > 1


def test_mfm_single_feature_equals_three_single_masks(tiny_vocabs, tiny_models):
    m = tiny_models["mfm"]
    frame = SemanticFrame.build(None, [("cuisine", "ramen")])
    single = manual_mfm_single_mask(m, frame, 0)
    total = masked_frame_score(m, frame, derive_rng(12, "mask"))
    assert total == pytest.approx(3 * single, rel=1e-12)


def test_mfm_zero_features_rejected(tiny_models):
    with pytest.raises(FrameError):
        masked_frame_score(tiny_models["mfm"], SemanticFrame(None, ()),
                           derive_rng(0, "mask"))


def test_mfm_intent_feature_counts(tiny_vocabs, tiny_models):
    m = tiny_models["mfm"]
    with_intent = SemanticFrame.build("weather", [("city", "denver")])
    feats, targets = models.mfm_features(m, nd, m.arrays, with_intent)
    assert len(feats) == 2
    assert targets[1] == tiny_vocabs.labels.n_slot_keys + tiny_vocabs.labels.intent_id("weather")


# ---------------------------------------------------------------------------
# training


def small_train_setup(seed=3):
    nlu_raw, nlg_raw = data.synth_corpus(seed=seed, size=8)
    vocabs = build_vocabs(nlu_raw, nlg_raw)
    return nlu_raw, nlg_raw, vocabs


def test_training_loss_decreases_from_first_to_last_epoch():
    nlu_raw, nlg_raw, vocabs = small_train_setup()
    cfg = TrainConfig(hidden=8, embedding=6, epochs=10, batch_size=4, seed=5)
    samples = models.prepare_nlu_samples(nlu_raw, vocabs)
    _, losses = train_model("nlu", samples, cfg, vocabs)
    assert len(losses) == 10
    assert losses[-1] <= losses[0]


def test_training_rejects_empty_dataset(tiny_vocabs):
    with pytest.raises(ValueError):
        train_model("nlu", [], TrainConfig(), tiny_vocabs)


def test_teacher_forcing_one_ignores_sampling_path():
    nlu_raw, nlg_raw, vocabs = small_train_setup()
    samples = models.prepare_nlg_samples(nlg_raw, vocabs)
    base = TrainConfig(hidden=8, embedding=6, epochs=2, batch_size=4, seed=9,
                       teacher_forcing=1.0)
    m1, l1 = train_model("nlg", samples, base, vocabs)
    m2, l2 = train_model("nlg", samples, base, vocabs)
    assert l1 == l2
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_training_is_seed_deterministic():
    nlu_raw, nlg_raw, vocabs = small_train_setup()
    samples = models.prepare_nlu_samples(nlu_raw, vocabs)
    cfg = TrainConfig(hidden=8, embedding=6, epochs=3, batch_size=4, seed=21,
                      teacher_forcing=0.9)
    m1, l1 = train_model("nlu", samples, cfg, vocabs)
    m2, l2 = train_model("nlu", samples, cfg, vocabs)
    assert l1 == l2
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


@pytest.mark.slow
def test_lm_overfits_repetitive_corpus_to_low_perplexity():
    # 32 sentences drawn from 4 distinct long templates; the only entropy is
    # the choice among 4 openers, so per-token perplexity can approach
    # exp(log(4) / 21) ~= 1.068 and must land under 1.1
    sents = [
        "alpha the quick brown fox jumps over the lazy dog near the quiet river bank at dawn every single day",
        "bravo the quick brown fox jumps over the lazy dog near the quiet river bank at dawn every single day",
        "charlie the quick brown fox jumps over the lazy dog near the quiet river bank at dawn every single day",
        "delta the quick brown fox jumps over the lazy dog near the quiet river bank at dawn every single day",
    ] * 8
    bpe = bpe_train(sents, 300)
    vocabs = Vocabs(bpe, LabelVocab([], []))
    samples = models.prepare_lm_samples(sents, vocabs)
    cfg = TrainConfig(hidden=24, embedding=12, epochs=200, batch_size=4, lr=3e-3, seed=1)
    m, losses = train_model("lm", samples, cfg, vocabs)
    nll = 0.0
    n_tok = 0
    for s in samples:
        sc = lm_score_tokens(m, s.tokens)
        nll -= sc.total
        n_tok += len(sc.steps)
    ppl = math.exp(nll / n_tok)
    assert ppl < 1.1


def test_gradients_match_finite_differences_all_kinds():
    from conftest import finite_difference_check
    nlu_raw, nlg_raw, vocabs = small_train_setup(seed=11)
    rng = derive_rng(17, "fdcheck")
    datasets = {
        "nlu": models.prepare_nlu_samples(nlu_raw[:2], vocabs),
        "nlg": models.prepare_nlg_samples(nlg_raw[:2], vocabs),
        "lm": models.prepare_lm_samples([ex.text for ex in nlu_raw[:2]], vocabs),
        "mfm": [ex.frame for ex in nlg_raw[:2]],
    }
    for kind, samples in datasets.items():
        model = make_model(kind, vocabs, hidden=4, embedding=3, seed=23)
        checked, worst = finite_difference_check(kind, model, samples, rng)
        assert checked >= 20
        assert worst < 1e-4, f"{kind}: worst relative error {worst}"


# ---------------------------------------------------------------------------
# the tensor and ndarray backends run the same model code


FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


def _tensor_mfm_score(m, frame, rng):
    """``masked_frame_score`` computed on the tensor backend."""
    feats, targets = models.mfm_features(m, T, m.params, frame)
    total = 0.0
    for pos in rng.integers(0, len(feats), size=3):
        logits = models._masked_logits(m, T, m.params, feats, [pos])
        total += float(T.pick(T.log_softmax(T.row(logits, pos)), targets[pos]).data)
    return total


def _assert_backends_agree(kind, m, nlu_raw, nlg_raw):
    vocabs = m.vocabs
    if kind == "nlu":
        for s in models.prepare_nlu_samples(nlu_raw, vocabs):
            steps, intent_lp = models.nlu_forcing_graph(m, s.utt, s.tags, s.intent)
            got = nlu_score(m, s.utt, s.tags, s.intent)
            assert got.steps == tuple(float(t.data) for t in steps)
            assert got.intent_logprob == (None if intent_lp is None else float(intent_lp.data))
    elif kind == "nlg":
        for s in models.prepare_nlg_samples(nlg_raw, vocabs):
            steps = models.nlg_forcing_graph(m, s.frame, s.ref)
            assert nlg_score(m, s.frame, s.ref).steps == tuple(float(t.data) for t in steps)
            F = T.stack(models._nlg_features(m, T, m.params, s.frame))
            assert np.array_equal(models.nlg_features_np(m, s.frame), F.data)
    elif kind == "lm":
        for s in models.prepare_lm_samples([ex.text for ex in nlu_raw], vocabs):
            steps = models.lm_forcing_graph(m, s.tokens)
            assert lm_score_tokens(m, s.tokens).steps == tuple(float(t.data) for t in steps)
    else:
        for i, ex in enumerate(nlg_raw):
            got = masked_frame_score(m, ex.frame, derive_rng(i, "mask"))
            assert got == _tensor_mfm_score(m, ex.frame, derive_rng(i, "mask"))


@pytest.mark.parametrize("kind", data.MODEL_KINDS)
def test_backends_agree_bitwise(kind, tiny_corpus, tiny_vocabs):
    nlu_raw, nlg_raw = tiny_corpus
    # a randomized tiny model
    m = randomize(make_model(kind, tiny_vocabs), derive_rng(31, "rand", kind))
    _assert_backends_agree(kind, m, nlu_raw[:6], nlg_raw[:6])
    # the benchmark fixture's trained checkpoint
    m = models.model_from_checkpoint(data.load_checkpoint(FIXTURE / f"{kind}.ckpt"))
    _assert_backends_agree(kind, m, nlu_raw[:6], nlg_raw[:6])
    # straight after training, which writes the parameters in place
    nlu_raw, nlg_raw, vocabs = small_train_setup()
    samples = {"nlu": lambda: models.prepare_nlu_samples(nlu_raw, vocabs),
               "nlg": lambda: models.prepare_nlg_samples(nlg_raw, vocabs),
               "lm": lambda: models.prepare_lm_samples([ex.text for ex in nlu_raw], vocabs),
               "mfm": lambda: [ex.frame for ex in nlg_raw]}[kind]()
    cfg = TrainConfig(hidden=8, embedding=6, epochs=1, batch_size=4, seed=13)
    m, _ = train_model(kind, samples, cfg, vocabs)
    _assert_backends_agree(kind, m, nlu_raw, nlg_raw)
