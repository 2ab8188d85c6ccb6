import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import node_ops
from conftest import build_vocabs, make_model, randomize

from dualdec import data, decode, models
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
    assert nlu_score(m, [utt], [[0] * len(utt.tokens)])[0] == 0.0


def test_nlu_score_additivity(tiny_vocabs, tiny_models):
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("book a thai table in denver")
    tags = [i % 3 for i in range(len(utt.tokens))]
    steps, intent_lp = models._nlu_forward(m, nd, m.arrays, models._steps([utt.tokens]),
                                           models._steps([tags]), np.array([1]),
                                           np.zeros((1, m.cfg.hidden)))
    terms = [float(t[0]) for t in steps] + [float(intent_lp[0])]
    assert nlu_score(m, [utt], [tags], [1])[0] == pytest.approx(sum(terms), abs=1e-12)


def test_nlu_matches_manual_forward_oracle(tiny_vocabs):
    m = make_model("nlu", tiny_vocabs, hidden=2, embedding=3, seed=5)
    randomize(m, derive_rng(8, "rand"))
    utt = tiny_vocabs.bpe.encode("play something by nina simone")
    tags = [(i * 2) % tiny_vocabs.labels.n_tags for i in range(len(utt.tokens))]
    got = nlu_score(m, [utt], [tags], [2])[0]
    want = manual_nlu_score(m, utt, tags, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_nlu_step_normalizes_and_is_deterministic(tiny_models):
    m = tiny_models["nlu"]
    state = np.zeros(m.cfg.hidden)
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
    state = np.zeros(m.cfg.hidden)
    prev = None
    total = 0.0
    for tok, tag in zip(utt.tokens, tags):
        lp, state = nlu_step(m, state, tok, prev)
        total += lp[tag]
        prev = tag
    total += nlu_intent(m, state)[0]
    assert total == pytest.approx(nlu_score(m, [utt], [tags], [0])[0], abs=1e-12)


def test_nlu_inventory_mismatch_rejected(tiny_vocabs, tiny_models):
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("play")
    with pytest.raises(FrameError):
        nlu_score(m, [utt], [[10_000] * len(utt.tokens)])
    with pytest.raises(FrameError):
        nlu_score(m, [utt], [[0] * (len(utt.tokens) + 1)])


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
    F = models.nlg_frame_features(m, [frame])[0]
    steps = [float(s[0]) for s in models._nlg_forward(m, nd, m.arrays, F[None],
                                                      models._steps([[*rep.tokens, EOS]]))]
    assert steps[0] == 0.0
    assert all(s == 0.0 for s in steps[:-1])


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
    assert nlg_score(m, [frame_a], [utt]) == nlg_score(m, [frame_b], [utt])


def test_nlg_slot_permutation_invariance_random_model(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    frame_a = SemanticFrame.build("book_table", [("cuisine", "thai"), ("city", "austin")])
    frame_b = SemanticFrame.build("book_table", [("city", "austin"), ("cuisine", "thai")])
    utt = tiny_vocabs.bpe.encode("book a thai table in austin")
    [a] = nlg_score(m, [frame_a], [utt])
    [b] = nlg_score(m, [frame_b], [utt])
    assert a == pytest.approx(b, abs=1e-9)


def test_nlg_matches_manual_forward_oracle(tiny_vocabs):
    m = make_model("nlg", tiny_vocabs, hidden=2, embedding=3, seed=6)
    randomize(m, derive_rng(9, "rand"))
    frame = SemanticFrame.build("weather", [("city", "portland"), ("day", "friday")])
    utt = tiny_vocabs.bpe.encode("what is the forecast for portland on friday")
    [got] = nlg_score(m, [frame], [utt])
    assert got == pytest.approx(manual_nlg_score(m, frame, utt), rel=1e-12)


def test_nlg_step_chain_agrees_with_score(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    frame = SemanticFrame.build("play_music", [("artist", "chet baker")])
    utt = tiny_vocabs.bpe.encode("play chet baker for me please")
    F = models.nlg_frame_features(m, [frame])[0]
    state = F.mean(axis=0)
    prev = BOS
    total = 0.0
    for tok in list(utt.tokens) + [EOS]:
        lp, attn, state = nlg_step(m, state, prev, F)
        assert attn.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-9)
        total += lp[tok]
        prev = tok
    assert [total] == pytest.approx(nlg_score(m, [frame], [utt]), abs=1e-12)


def test_nlg_single_feature_gets_full_attention(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    F = models.nlg_frame_features(m, [SemanticFrame.build(None, [("city", "boston")])])[0]
    assert F.shape[0] == 1
    _, attn, _ = nlg_step(m, F.mean(axis=0), BOS, F)
    assert attn.shape == (1,) and attn[0] == 1.0


def test_nlg_empty_feature_fallback(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    degenerate = SemanticFrame(None, ())
    F = models.nlg_frame_features(m, [degenerate])[0]
    assert F.shape == (1, m.cfg.hidden)
    assert np.array_equal(F[0], m.params["empty_feat"].data)
    utt = tiny_vocabs.bpe.encode("play")
    assert math.isfinite(nlg_score(m, [degenerate], [utt])[0])


def test_nlg_step_rejects_empty_features(tiny_models):
    m = tiny_models["nlg"]
    with pytest.raises(FrameError):
        nlg_step(m, np.zeros(m.cfg.hidden), BOS, np.zeros((0, m.cfg.hidden)))


def test_nlg_score_rejects_unequal_beams(tiny_vocabs, tiny_models):
    m = tiny_models["nlg"]
    frame = SemanticFrame.build(None, [("cuisine", "ramen")])
    utt = tiny_vocabs.bpe.encode("play")
    for frames, utts in (([frame], [utt, utt]), ([frame, frame], [utt])):
        with pytest.raises(FrameError):
            nlg_score(m, frames, utts)


# ---------------------------------------------------------------------------
# LM


def test_lm_uniform_forced_score(tiny_vocabs):
    m = make_model("lm", tiny_vocabs)
    m.params["out.w"].data[...] = 0.0
    m.params["out.b"].data[...] = 0.0
    utt = tiny_vocabs.bpe.encode("play something by chet baker")
    V = len(tiny_vocabs.bpe.pieces)
    L = len(utt.tokens)
    assert lm_score_tokens(m, [utt.tokens])[0] == pytest.approx(-(L + 1) * math.log(V), rel=1e-12)


def test_lm_appending_token_decreases_prefix_logprob(tiny_vocabs, tiny_models):
    m = tiny_models["lm"]
    utt = tiny_vocabs.bpe.encode("show flights from boston")
    longer = tiny_vocabs.bpe.encode("show flights from boston boston")
    def prefix(tokens):
        steps = models._lm_forward(m, nd, m.arrays, models._steps([[BOS, *tokens]]),
                                   models._steps([[*tokens, EOS]]), np.zeros((1, m.cfg.hidden)))
        return sum(float(t[0]) for t in steps[:-1])
    short_prefix = prefix(utt.tokens)
    long_prefix = prefix(longer.tokens)
    assert long_prefix < short_prefix


def test_lm_matches_manual_forward_oracle(tiny_vocabs):
    m = make_model("lm", tiny_vocabs, hidden=2, embedding=3, seed=7)
    randomize(m, derive_rng(10, "rand"))
    utt = tiny_vocabs.bpe.encode("how is the weather in orlando")
    assert lm_score_tokens(m, [utt.tokens])[0] == pytest.approx(
        manual_lm_score(m, utt.tokens), rel=1e-12)


# ---------------------------------------------------------------------------
# masked frame model


def test_mfm_forced_certain_classifier_scores_zero(tiny_vocabs):
    m = make_model("mfm", tiny_vocabs)
    frame = SemanticFrame.build(None, [("city", "boston")])
    m.params["cls.w"].data[...] = 0.0
    m.params["cls.b"].data[...] = -2000.0
    m.params["cls.b"].data[tiny_vocabs.labels.key_id("city")] = 2000.0
    assert masked_frame_score(m, [frame], [derive_rng(0, "mask")]) == [0.0]


def test_mfm_same_seed_same_score(tiny_vocabs, tiny_models):
    m = tiny_models["mfm"]
    frame = SemanticFrame.build("find_flight",
                                [("origin", "boston"), ("destination", "austin"),
                                 ("day", "monday")])
    a = masked_frame_score(m, [frame], [derive_rng(4, "mask")])
    b = masked_frame_score(m, [frame], [derive_rng(4, "mask")])
    assert a == b
    scores = {masked_frame_score(m, [frame], [derive_rng(s, "mask")])[0] for s in range(8)}
    assert len(scores) > 1


def test_mfm_single_feature_equals_three_single_masks(tiny_vocabs, tiny_models):
    m = tiny_models["mfm"]
    frame = SemanticFrame.build(None, [("cuisine", "ramen")])
    single = manual_mfm_single_mask(m, frame, 0)
    [total] = masked_frame_score(m, [frame], [derive_rng(12, "mask")])
    assert total == pytest.approx(3 * single, rel=1e-12)


def test_mfm_zero_features_rejected(tiny_models):
    with pytest.raises(FrameError):
        masked_frame_score(tiny_models["mfm"], [SemanticFrame(None, ())],
                           [derive_rng(0, "mask")])


def test_mfm_intent_feature_counts(tiny_vocabs, tiny_models):
    m = tiny_models["mfm"]
    with_intent = SemanticFrame.build("weather", [("city", "denver")])
    _, [places], [targets] = models._frame_rows(m, nd, m.arrays, [with_intent],
                                                T.example_keys(1), m.arrays["mask"])
    assert len(places) == 2
    assert targets[1] == tiny_vocabs.labels.n_slot_keys + tiny_vocabs.labels.intent_id("weather")


def test_mfm_feature_masked_in_every_copy_is_never_encoded(tiny_models, monkeypatch):
    m = tiny_models["mfm"]
    encoded = []
    pair_feature = models._pair_feature

    def counting_pair_feature(ops, P, seq, h):
        encoded.append(h.shape[0])
        return pair_feature(ops, P, seq, h)

    monkeypatch.setattr(models, "_pair_feature", counting_pair_feature)
    frame = SemanticFrame.build(None, [("origin", "boston"), ("destination", "austin")])
    # (masked copies of the frame, slot rows encoded)
    for copies, rows in (([[0], [0, 1]], 1), ([[1], [0]], 2), ([[0, 1], [1, 0]], 0)):
        for ops, P in ((nd, m.arrays), (T, m.params)):
            encoded.clear()
            models._mfm_losses(m, ops, P, [frame], [copies])
            assert sum(encoded) == rows, (copies, ops)
    # every draw of a one-slot frame masks its slot
    encoded.clear()
    masked_frame_score(m, [SemanticFrame.build(None, [("city", "boston")])],
                       [derive_rng(2, "mask")])
    assert encoded == []


# ---------------------------------------------------------------------------
# each scorer runs a beam as one stack


def _drawn_frame(draw, pool):
    """A drawn subset of a corpus frame's slots, with or without its intent:
    from zero features up to the frame's own count."""
    base = draw(st.sampled_from(pool))
    slots = draw(st.lists(st.sampled_from(base.slots), unique=True)) if base.slots else []
    return SemanticFrame(draw(st.sampled_from([None, base.intent])), tuple(slots))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_stacked_scorers_equal_one_row_calls(tiny_corpus, tiny_vocabs, drawn):
    _, nlg_raw = tiny_corpus
    labels = tiny_vocabs.labels
    ms = {k: randomize(make_model(k, tiny_vocabs), derive_rng(61, "stack", k))
          for k in data.MODEL_KINDS}
    n = drawn.draw(st.integers(1, 8))
    payloads = [tuple(drawn.draw(st.lists(st.integers(4, len(tiny_vocabs.bpe.pieces) - 1),
                                          max_size=12))) for _ in range(n)]
    utts = [decode.utterance_from_payload(tiny_vocabs, p) for p in payloads]
    tags = [drawn.draw(st.lists(st.integers(0, labels.n_tags - 1),
                                min_size=len(p), max_size=len(p))) for p in payloads]
    intents = [drawn.draw(st.one_of(st.none(), st.integers(0, labels.n_intents - 1)))
               for _ in range(n)]
    frames = [_drawn_frame(drawn.draw, [ex.frame for ex in nlg_raw]) for _ in range(n)]

    assert models.nlu_score(ms["nlu"], utts, tags, intents) == [
        models.nlu_score(ms["nlu"], [u], [t], [i])[0] for u, t, i in zip(utts, tags, intents)]
    assert models.lm_score_tokens(ms["lm"], payloads) == [
        models.lm_score_tokens(ms["lm"], [p])[0] for p in payloads]
    one_row_nlg = [models.nlg_score(ms["nlg"], [f], [u])[0] for f, u in zip(frames, utts)]
    assert models.nlg_score(ms["nlg"], frames, utts) == one_row_nlg

    def rngs():
        return [derive_rng(5, "mask", i) for i in range(n)]
    one_row_marginals = [decode.frame_marginal(ms["mfm"], [f], [r])[0]
                         for f, r in zip(frames, rngs())]
    assert decode.frame_marginal(ms["mfm"], frames, rngs()) == one_row_marginals
    featured = [i for i, f in enumerate(frames) if f.n_features]
    assert models.masked_frame_score(ms["mfm"], [frames[i] for i in featured],
                                     [rngs()[i] for i in featured]) == [
        one_row_marginals[i] for i in featured]


def test_scorers_equal_one_row_calls_across_stack_boundaries(tiny_corpus, tiny_vocabs,
                                                            monkeypatch):
    # more than 2 * STACK_ROWS rows of one group, of mixed lengths, run as
    # three stacks
    _, nlg_raw = tiny_corpus
    n = 2 * models.STACK_ROWS + 3
    labels = tiny_vocabs.labels
    ms = {k: randomize(make_model(k, tiny_vocabs), derive_rng(67, "stack", k))
          for k in data.MODEL_KINDS}
    stack_rows = []
    lm_forward = models._lm_forward

    def counted(m, ops, P, inputs, tokens, h):
        stack_rows.append(len(h))
        return lm_forward(m, ops, P, inputs, tokens, h)
    monkeypatch.setattr(models, "_lm_forward", counted)
    # distinct rows, since a scorer runs each distinct row once
    mixed = [[5 + i % 3] * (i % 4) + [4 + i // 11, 4 + i % 11] for i in range(n)]
    scores = lm_score_tokens(ms["lm"], mixed)
    monkeypatch.undo()
    assert stack_rows == [models.STACK_ROWS] * 2 + [3]
    assert scores == [lm_score_tokens(ms["lm"], [p])[0] for p in mixed]
    rng = derive_rng(67, "rows")
    frames = [ex.frame for ex in nlg_raw if ex.frame.n_features == 3]
    frames = [frames[i % len(frames)] for i in range(n)]
    for lengths in ([0] * n, [5] * n, [i % 7 for i in range(n)]):
        payloads = [tuple(rng.integers(4, len(tiny_vocabs.bpe.pieces), size=k).tolist())
                    for k in lengths]
        utts = [decode.utterance_from_payload(tiny_vocabs, p) for p in payloads]
        tags = [rng.integers(0, labels.n_tags, size=k).tolist() for k in lengths]
        for intents in ([None] * n, rng.integers(0, labels.n_intents, size=n).tolist()):
            assert nlu_score(ms["nlu"], utts, tags, intents) == [
                nlu_score(ms["nlu"], [u], [t], [i])[0] for u, t, i in zip(utts, tags, intents)]
        assert nlg_score(ms["nlg"], frames, utts) == [
            nlg_score(ms["nlg"], [f], [u])[0] for f, u in zip(frames, utts)]
        assert lm_score_tokens(ms["lm"], payloads) == [
            lm_score_tokens(ms["lm"], [p])[0] for p in payloads]
    rngs = [derive_rng(8, "mask", i) for i in range(n)]
    one_row = [masked_frame_score(ms["mfm"], [f], [derive_rng(8, "mask", i)])[0]
               for i, f in enumerate(frames)]
    assert masked_frame_score(ms["mfm"], frames, rngs) == one_row


def test_scorers_score_each_distinct_row_once(tiny_corpus, tiny_vocabs, monkeypatch):
    _, nlg_raw = tiny_corpus
    labels = tiny_vocabs.labels
    ms = {k: randomize(make_model(k, tiny_vocabs), derive_rng(71, "distinct", k))
          for k in data.MODEL_KINDS}
    rng = derive_rng(71, "rows")
    payloads = [tuple(rng.integers(4, len(tiny_vocabs.bpe.pieces), size=k).tolist())
                for k in (3, 5, 3, 1)]
    utts = [decode.utterance_from_payload(tiny_vocabs, p) for p in payloads]
    tags = [rng.integers(0, labels.n_tags, size=len(p)).tolist() for p in payloads]
    frames = [ex.frame for ex in nlg_raw[:3]]
    order = [0, 1, 0, 2, 3, 1, 0, 3, 2, 2]
    # NLU rows differ by intent alone, NLG rows by frame alone, in places
    intents = [None, 0, None, 1, 0, 0, None, 0, 1, 0]
    nlg_frames = [frames[i % 3] for i in range(len(order))]
    lm_rows = [payloads[i] for i in order]
    nlu_rows = [(utts[i], tags[i], intent) for i, intent in zip(order, intents)]
    nlg_rows = [(f, utts[i]) for f, i in zip(nlg_frames, order)]
    one_row = {"lm": [lm_score_tokens(ms["lm"], [p])[0] for p in lm_rows],
               "nlu": [nlu_score(ms["nlu"], [u], [t], [i])[0] for u, t, i in nlu_rows],
               "nlg": [nlg_score(ms["nlg"], [f], [u])[0] for f, u in nlg_rows]}
    stack_rows = {"lm": [], "nlu": [], "nlg": []}

    def count(kind, rows_of):
        forward = getattr(models, f"_{kind}_forward")

        def counted(*args, **kwargs):
            stack_rows[kind].append(rows_of(*args))
            return forward(*args, **kwargs)
        monkeypatch.setattr(models, f"_{kind}_forward", counted)
    count("lm", lambda m, ops, P, inputs, tokens, h: len(h))
    count("nlu", lambda m, ops, P, tokens, tags, intent, h, forced=None: len(h))
    count("nlg", lambda m, ops, P, F, tokens, forced=None: len(F))
    assert lm_score_tokens(ms["lm"], lm_rows) == one_row["lm"]
    assert nlu_score(ms["nlu"], *zip(*nlu_rows)) == one_row["nlu"]
    assert nlg_score(ms["nlg"], *zip(*nlg_rows)) == one_row["nlg"]
    monkeypatch.undo()
    assert sum(stack_rows["lm"]) == len(set(lm_rows)) == 4
    assert sum(stack_rows["nlu"]) == len({(u.tokens, tuple(t), i) for u, t, i in nlu_rows}) == 5
    assert sum(stack_rows["nlg"]) == len({(f, u.tokens) for f, u in nlg_rows}) == 7

    # the frame encoder: on nd a repeated (slot key, value) pair has one row
    # and each value one BPE encoding; on tensor every pair has its own row
    base = next(ex.frame for ex in nlg_raw if len(ex.frame.slots) >= 2)
    other = next(ex.frame for ex in nlg_raw if ex.frame.slots
                 and not set(ex.frame.slots) & set(base.slots))
    frames = [SemanticFrame(None, base.slots), SemanticFrame(None, base.slots[:1]),
              SemanticFrame(None, base.slots), SemanticFrame(None, other.slots)]
    pairs = [pair for f in frames for pair in f.slots]
    m = ms["nlg"]
    encoded = []
    encode_ids = m.vocabs.bpe.encode_ids
    monkeypatch.setattr(m.vocabs.bpe, "encode_ids", lambda text: encoded.append(text)
                        or encode_ids(text))
    for ops, P, rows in ((nd, m.arrays, len(set(pairs))), (T, m.params, len(pairs))):
        encoded.clear()
        parts, places, _ = models._frame_rows(m, ops, P, frames, T.example_keys(len(frames)),
                                              P["empty_feat"])
        assert sum(len(getattr(part, "data", part)) for part in parts[:-1]) == rows
        assert len({place for spot in places for place in spot}) == rows
        assert sorted(encoded) == sorted({" ".join(v) for _, v in pairs})
    monkeypatch.undo()


def _prefix_tree(rng, n, alphabet, max_suffix=4):
    """``n`` sequences over ``alphabet``, each an earlier one cut at a random
    place (or nothing) followed by a random suffix, so many share prefixes
    and some repeat whole."""
    rows: list[tuple] = []
    while len(rows) < n:
        base = rows[rng.integers(len(rows))] if rows and rng.random() < 0.9 else ()
        suffix = rng.integers(len(alphabet), size=rng.integers(max_suffix + 1))
        rows.append(base[:rng.integers(len(base) + 1)] + tuple(alphabet[i] for i in suffix))
    return rows


def _distinct_prefix_steps(stacks, inputs):
    """Per stack, per step, the distinct input prefixes among the running rows."""
    return sum(len({seq[:t + 1] for seq in (inputs[i] for i in rows) if len(seq) > t})
               for rows in stacks for t in range(max(len(inputs[i]) for i in rows)))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(models.STACK_ROWS + 1, 2 * models.STACK_ROWS + 9))
def test_nd_forwards_step_each_distinct_prefix_once(tiny_vocabs, seed, n):
    # candidates of one search tree share prefixes; on nd each stack steps
    # every distinct prefix once and every row keeps its one-row floats
    labels = tiny_vocabs.labels
    rng = np.random.default_rng(seed)
    ms = {k: randomize(make_model(k, tiny_vocabs), derive_rng(73, "prefix", k))
          for k in ("nlu", "lm")}
    lm_rows = _prefix_tree(rng, n, rng.integers(4, len(tiny_vocabs.bpe.pieces), size=3).tolist())
    tagged = _prefix_tree(rng, n, [(5, 0), (5, 1), (6, 0)])
    intents = [None if i == labels.n_intents else int(i)
               for i in rng.integers(min(labels.n_intents, 2) + 1, size=n)]
    utts = [decode.utterance_from_payload(tiny_vocabs, [tok for tok, _ in row]) for row in tagged]
    tags = [[tag for _, tag in row] for row in tagged]
    stepped = []
    gru_step = models._gru_step

    def counted(ops, P, prefix, x, h):
        stepped.append(len(h))
        return gru_step(ops, P, prefix, x, h)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_gru_step", counted)
        lm_scores = lm_score_tokens(ms["lm"], lm_rows)
        lm_stepped = sum(stepped)
        stepped.clear()
        nlu_scores = nlu_score(ms["nlu"], utts, tags, intents)

    # the scorers' plan: distinct rows in order of first appearance, stacked
    lm_distinct = list(dict.fromkeys(lm_rows))
    lm_inputs = [(BOS, *row) for row in lm_distinct]
    assert lm_stepped == _distinct_prefix_steps(
        models._stacks([0] * len(lm_distinct), [len(r) for r in lm_distinct]), lm_inputs)
    nlu_distinct = list(dict.fromkeys(zip(tagged, intents)))
    # the state after step t has read tokens[:t + 1] and tags[:t]
    nlu_inputs = [tuple(zip([tok for tok, _ in row], (None, *(tag for _, tag in row))))
                  for row, _ in nlu_distinct]
    scored = [intent is not None for _, intent in nlu_distinct]
    assert sum(stepped) == _distinct_prefix_steps(
        models._stacks(scored, [len(row) for row, _ in nlu_distinct]), nlu_inputs)
    assert lm_stepped < sum(len(r) + 1 for r in lm_distinct)

    assert lm_scores == [lm_score_tokens(ms["lm"], [r])[0] for r in lm_rows]
    assert nlu_scores == [nlu_score(ms["nlu"], [u], [t], [i])[0]
                          for u, t, i in zip(utts, tags, intents)]


def test_masked_frame_score_scores_each_distinct_copy_once(tiny_corpus, tiny_vocabs,
                                                           monkeypatch):
    # three draws per frame, with repeats within a frame and across equal
    # frames: each distinct (frame, masked feature) copy is scored once, and
    # a frame's value is the three-copy loss the draws make
    _, nlg_raw = tiny_corpus
    m = randomize(make_model("mfm", tiny_vocabs), derive_rng(79, "copies"))
    pool = [ex.frame for ex in nlg_raw if ex.frame.n_features][:5]
    frames = [pool[i % len(pool)] for i in range(3 * models.STACK_ROWS // 2)]
    draws = [derive_rng(79, "mask", i).integers(0, f.n_features, size=3).tolist()
             for i, f in enumerate(frames)]
    distinct = {(f, j) for f, js in zip(frames, draws) for j in js}
    assert len(distinct) < 3 * len(frames)
    assert any(len(set(js)) < 3 for js in draws)
    scored = []
    mfm_losses = models._mfm_losses

    def counted(m, ops, P, frames, copies):
        scored.append(sum(len(cs) for cs in copies))
        return mfm_losses(m, ops, P, frames, copies)
    monkeypatch.setattr(models, "_mfm_losses", counted)
    got = masked_frame_score(m, frames, [derive_rng(79, "mask", i) for i in range(len(frames))])
    monkeypatch.undo()
    assert scored == [len(distinct)]
    a, b, c = (-models._mfm_losses(m, nd, m.arrays, frames,
                                   [[[j] for j in js] for js in draws])).reshape(-1, 3).T
    assert got == (a + b + c).tolist()
    assert got == [masked_frame_score(m, [f], [derive_rng(79, "mask", i)])[0]
                   for i, f in enumerate(frames)]


def test_split_features_equal_one_frame_features_and_decode_alike(tiny_corpus, tiny_vocabs):
    _, nlg_raw = tiny_corpus
    m = randomize(make_model("nlg", tiny_vocabs), derive_rng(83, "features"))
    frames = [ex.frame for ex in nlg_raw] + [SemanticFrame(None, ())]
    features = models.nlg_frame_features(m, frames)
    for frame, F in zip(frames, features):
        one = models.nlg_frame_features(m, [frame])[0]
        assert F.flags.c_contiguous and F.tobytes() == one.tobytes() and F.shape == one.shape
    for frame, F in zip(frames[:4], features):
        assert decode.nlg_hypotheses(m, F, 3, 6) == decode.nlg_hypotheses(m, frame, 3, 6)


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
        nll -= lm_score_tokens(m, [s.tokens])[0]
        n_tok += len(s.tokens) + 1  # the closing EOS is scored too
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


def _tensor_features(m, frames, fill, masked=None):
    """The stacked feature rows of ``frames`` that training builds."""
    keys = T.example_keys(len(frames))
    parts, places, targets = models._frame_rows(m, T, m.params, frames, keys, fill, masked)
    return T.stack(parts, np.array(places), keys), targets


def _tensor_mfm_score(m, frame, rng):
    """``masked_frame_score`` computed on the tensor backend."""
    total = 0.0
    for pos in rng.integers(0, frame.n_features, size=3):
        X, [targets] = _tensor_features(m, [frame], m.params["mask"], [[pos]])
        lp = T.log_softmax(models.mfm_logits(m, T, m.params, X))
        total += float(lp.data[0, pos, targets[pos]])
    return total


def _floats(terms):
    """Per-step log-probs of a one-row stack of either backend as Python floats."""
    return [float((t.data if isinstance(t, T.Tensor) else t)[0]) for t in terms]


def _one_row_states(m):
    return T.Tensor(np.zeros((1, m.cfg.hidden)), keys=T.example_keys(1))


def _assert_backends_agree(kind, m, nlu_raw, nlg_raw):
    """Step by step, the ndarray forward of a row equals the tensor graph with
    ``==``, and each scorer returns minus the loss of the training graph."""
    vocabs = m.vocabs
    zeros = np.zeros((1, m.cfg.hidden))
    if kind == "nlu":
        samples = models.prepare_nlu_samples(nlu_raw, vocabs)
        for s in samples:
            args = (models._steps([s.utt.tokens]), models._steps([s.tags]),
                    None if s.intent is None else np.array([s.intent]))
            steps, intent_lp = models._nlu_forward(m, T, m.params, *args, _one_row_states(m))
            nd_steps, nd_intent = models._nlu_forward(m, nd, m.arrays, *args, zeros)
            assert _floats(nd_steps) == _floats(steps)
            assert ((None if nd_intent is None else _floats([nd_intent]))
                    == (None if intent_lp is None else _floats([intent_lp])))
        losses = models.nlu_forcing_graph(m, samples)
        assert (nlu_score(m, [s.utt for s in samples], [s.tags for s in samples],
                          [s.intent for s in samples]) == (-losses.data).tolist())
    elif kind == "nlg":
        samples = models.prepare_nlg_samples(nlg_raw, vocabs)
        for s in samples:
            tokens = models._steps([[*s.ref.tokens, EOS]])
            F, _ = _tensor_features(m, [s.frame], m.params["empty_feat"])
            F_nd = models.nlg_frame_features(m, [s.frame])[0][None]
            assert np.array_equal(F_nd, F.data)
            assert (_floats(models._nlg_forward(m, nd, m.arrays, F_nd, tokens))
                    == _floats(models._nlg_forward(m, T, m.params, F, tokens)))
        losses = models.nlg_forcing_graph(m, samples)
        assert (nlg_score(m, [s.frame for s in samples], [s.ref for s in samples])
                == (-losses.data).tolist())
    elif kind == "lm":
        samples = models.prepare_lm_samples([ex.text for ex in nlu_raw], vocabs)
        for s in samples:
            args = models._steps([[BOS, *s.tokens]]), models._steps([[*s.tokens, EOS]])
            assert (_floats(models._lm_forward(m, nd, m.arrays, *args, zeros))
                    == _floats(models._lm_forward(m, T, m.params, *args, _one_row_states(m))))
        losses = models.lm_forcing_graph(m, samples)
        assert lm_score_tokens(m, [s.tokens for s in samples]) == (-losses.data).tolist()
    else:
        for i, ex in enumerate(nlg_raw):
            [got] = masked_frame_score(m, [ex.frame], [derive_rng(i, "mask")])
            assert got == _tensor_mfm_score(m, ex.frame, derive_rng(i, "mask"))
        frames = [ex.frame for ex in nlg_raw]
        copies = [[[p] for p in derive_rng(i, "mask").integers(0, f.n_features, size=3).tolist()]
                  for i, f in enumerate(frames)]
        # one loss per copy, three per frame, added in draw order
        a, b, c = (-models._mfm_losses(m, T, m.params, frames, copies).data).reshape(-1, 3).T
        assert (masked_frame_score(m, frames, [derive_rng(i, "mask") for i in range(len(frames))])
                == (a + b + c).tolist())


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


# ---------------------------------------------------------------------------
# the fused training graph against the node-by-node graph it replaced


def _node_by_node_gru_step(ops, P, prefix: str, x, h):
    """``models._gru_step`` before ``tensor.gru_gates`` and ``tensor.linear``:
    20 graph nodes on ``tensor``."""
    H = h.shape[-1]
    gi = T.add(T.matvec(P[prefix + ".w_ih"], x), P[prefix + ".b_ih"])
    gh = T.add(T.matvec(P[prefix + ".w_hh"], h), P[prefix + ".b_hh"])
    r = node_ops.sigmoid(T.add(node_ops.slice1d(gi, 0, H), node_ops.slice1d(gh, 0, H)))
    z = node_ops.sigmoid(T.add(node_ops.slice1d(gi, H, 2 * H), node_ops.slice1d(gh, H, 2 * H)))
    n = T.tanh(T.add(node_ops.slice1d(gi, 2 * H, 3 * H),
                     node_ops.mul(r, node_ops.slice1d(gh, 2 * H, 3 * H))))
    return T.add(n, node_ops.mul(z, node_ops.sub(h, n)))


def _batch_loss_and_grads(kind, m, samples, one_row_graphs=False):
    """One training batch's loss and gradients, built as ``train_model``
    builds them, or, with ``one_row_graphs``, as one graph per example added
    with ``T.add`` in batch order; teacher forcing 0.5, so the argmax branch
    runs too."""
    T.zero_grad(m.params.values())
    rng = derive_rng(3, "batch", kind)
    draws = [models._draws(kind, m, s, 0.5, rng) for s in samples]
    if one_row_graphs:
        terms = [T.batch_mean(models._batch_losses(kind, m, [s], [d]))
                 for s, d in zip(samples, draws)]
        loss = T.scale(functools.reduce(T.add, terms), 1.0 / len(terms))
    else:
        loss = T.batch_mean(models._batch_losses(kind, m, samples, draws))
    T.backward(loss)
    return float(loss.data), {name: p.grad.copy() for name, p in m.params.items()}


def _assert_fused_graph_equals_node_graph(kind, m, nlu_raw, nlg_raw, monkeypatch):
    samples = {"nlu": lambda: models.prepare_nlu_samples(nlu_raw, m.vocabs),
               "nlg": lambda: models.prepare_nlg_samples(nlg_raw, m.vocabs),
               "lm": lambda: models.prepare_lm_samples([ex.text for ex in nlu_raw], m.vocabs),
               "mfm": lambda: [ex.frame for ex in nlg_raw]}[kind]()
    loss, grads = _batch_loss_and_grads(kind, m, samples)
    with monkeypatch.context() as patch:
        patch.setattr(models, "_gru_step", _node_by_node_gru_step)
        patch.setattr(T, "linear", lambda W, x, b: T.add(T.matvec(W, x), b))
        ref_loss, ref_grads = _batch_loss_and_grads(kind, m, samples)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), (kind, name)


@pytest.mark.parametrize("kind", data.MODEL_KINDS)
def test_fused_gradients_equal_the_node_by_node_graph(kind, tiny_corpus, tiny_vocabs,
                                                      monkeypatch):
    """The fused ops add into each ``.grad`` in the node graph's order, so the
    loss and every gradient are bit for bit the node graph's."""
    nlu_raw, nlg_raw = tiny_corpus
    m = randomize(make_model(kind, tiny_vocabs), derive_rng(37, "rand", kind))
    _assert_fused_graph_equals_node_graph(kind, m, nlu_raw[:6], nlg_raw[:6], monkeypatch)
    m = models.model_from_checkpoint(data.load_checkpoint(FIXTURE / f"{kind}.ckpt"))
    _assert_fused_graph_equals_node_graph(kind, m, nlu_raw[:6], nlg_raw[:6], monkeypatch)


# ---------------------------------------------------------------------------
# a batch as one graph over stacks against one graph per example


def _stacking_samples(kind, nlu_raw, nlg_raw, vocabs):
    """A batch whose rows differ in length, whose frames have 2, 3 and 4
    features, and in which two rows read one token id at the same step. An
    NLU batch also holds two empty utterances, one scoring an intent and one
    not, each beside a row that is not empty and scores the same."""
    samples = {"nlu": lambda: models.prepare_nlu_samples(nlu_raw, vocabs),
               "nlg": lambda: models.prepare_nlg_samples(nlg_raw, vocabs),
               "lm": lambda: models.prepare_lm_samples([ex.text for ex in nlu_raw], vocabs),
               "mfm": lambda: [ex.frame for ex in nlg_raw]}[kind]()
    if kind == "mfm":
        assert {f.n_features for f in samples} >= {2, 3, 4}
        firsts = [f.slots[0][0] for f in samples]
    else:
        utts = {"nlu": lambda s: s.utt, "nlg": lambda s: s.ref, "lm": lambda s: s}[kind]
        tokens = [utts(s).tokens for s in samples]
        assert len({len(t) for t in tokens}) > 1
        firsts = [t[0] for t in tokens]
        if kind == "nlg":
            assert {s.frame.n_features for s in samples} >= {2, 3, 4}
    assert len(set(firsts)) < len(firsts)
    if kind == "nlu":
        empty = vocabs.bpe.encode("")
        first = samples[0]
        samples[1:1] = [models.NluSample(empty, (), None),
                        models.NluSample(first.utt, first.tags, None)]
        samples[5:5] = [models.NluSample(empty, (), first.intent)]
    return samples


def _one_group_samples(kind, samples):
    """2 * STACK_ROWS + 3 samples of one stacking group, cycled from
    ``samples``: NLU rows that score an intent, or frames with as many
    features as the last NLG sample's or the first MFM frame's."""
    if kind == "nlu":
        samples = [s for s in samples if s.intent is not None]
    elif kind == "nlg":
        samples = [s for s in samples if s.frame.n_features == samples[-1].frame.n_features]
    elif kind == "mfm":
        samples = [f for f in samples if f.n_features == samples[0].n_features]
    return [samples[i % len(samples)] for i in range(2 * models.STACK_ROWS + 3)]


@pytest.mark.parametrize("kind", data.MODEL_KINDS)
def test_stacked_batch_equals_one_graph_per_example(kind, tiny_corpus, tiny_vocabs):
    """The batch graph's loss and every gradient equal, bit for bit, those of
    one-row graphs added in batch order; so do those of a batch of one
    group, of mixed lengths, that runs as three stacks."""
    nlu_raw, nlg_raw = tiny_corpus
    for m in (randomize(make_model(kind, tiny_vocabs), derive_rng(41, "rand", kind)),
              models.model_from_checkpoint(data.load_checkpoint(FIXTURE / f"{kind}.ckpt"))):
        samples = _stacking_samples(kind, nlu_raw[:10], nlg_raw[:10], m.vocabs)
        big = _one_group_samples(kind, samples)
        if kind != "mfm":
            utts = {"nlu": lambda s: s.utt, "nlg": lambda s: s.ref, "lm": lambda s: s}[kind]
            assert len({len(utts(s).tokens) for s in big}) > 1
        for batch in (samples, big):
            loss, grads = _batch_loss_and_grads(kind, m, batch)
            ref_loss, ref_grads = _batch_loss_and_grads(kind, m, batch, one_row_graphs=True)
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, ref_grads[name]), (kind, name)
