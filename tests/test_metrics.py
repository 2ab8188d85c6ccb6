import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdec import metrics as M
from dualdec.frames import iob_spans


def test_intent_accuracy_boundaries():
    assert M.intent_accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert M.intent_accuracy(["a", "b"], ["b", "a"]) == 0.0
    assert M.intent_accuracy(["a", "b", "c"], ["a", "b", "x"]) == pytest.approx(2 / 3)
    with pytest.raises(M.MetricError):
        M.intent_accuracy(["a"], ["a", "b"])


def test_slot_f1_identical():
    tags = [["B-a", "I-a", "O"]]
    assert M.slot_f1(tags, tags) == M.SlotPRF(1.0, 1.0, 1.0)


def test_slot_f1_spurious_span_fixture():
    # pred: the gold span plus one invented span -> P=0.5, R=1.0, F1=2/3
    gold = [["B-a", "I-a", "O", "O"]]
    pred = [["B-a", "I-a", "O", "B-b"]]
    prf = M.slot_f1(pred, gold)
    assert prf.precision == 0.5
    assert prf.recall == 1.0
    assert prf.f1 == pytest.approx(2 / 3, abs=0)


def test_slot_f1_all_o_prediction():
    prf = M.slot_f1([["O", "O"]], [["B-a", "O"]])
    assert prf == M.SlotPRF(0.0, 0.0, 0.0)


def test_slot_f1_micro_equals_pooled_spans():
    rng = random.Random(5)
    tagset = ["O", "B-a", "I-a", "B-b"]
    preds = [[rng.choice(tagset) for _ in range(6)] for _ in range(10)]
    golds = [[rng.choice(tagset) for _ in range(6)] for _ in range(10)]
    prf = M.slot_f1(preds, golds)

    from dualdec.frames import iob_spans
    tp = n_p = n_g = 0
    for p, g in zip(preds, golds):
        ps, gs = set(iob_spans(p)), set(iob_spans(g))
        tp, n_p, n_g = tp + len(ps & gs), n_p + len(ps), n_g + len(gs)
    assert prf.precision == (tp / n_p if n_p else 0.0)
    assert prf.recall == (tp / n_g if n_g else 0.0)


def test_bleu_perfect_match():
    assert M.bleu(["a b c d e"], [["a b c d e"]]) == 1.0


def test_bleu_no_fourgram_matches_is_zero():
    assert M.bleu(["a b c d"], [["a b x d"]]) == 0.0


def test_bleu_two_sentence_corpus_hand_counted():
    # example 1: hyp "the cat sat on the mat" vs ref "the cat sat on a mat"
    #   1g 5/6 (the clipped to 1), 2g 3/5, 3g 2/4, 4g 1/3, ref len 6
    # example 2: hyp "a b c d" vs refs {"a b c d", "a b c d e"}
    #   1g 4/4, 2g 3/3, 3g 2/2, 4g 1/1, closest ref len 4
    # corpus: p1=9/10, p2=6/8, p3=4/6, p4=2/4; c=10, r=10 -> BP=1
    hyps = ["the cat sat on the mat", "a b c d"]
    refs = [["the cat sat on a mat"], ["a b c d", "a b c d e"]]
    expect = (9 / 10 * 6 / 8 * 4 / 6 * 2 / 4) ** 0.25
    assert M.bleu(hyps, refs) == pytest.approx(expect, abs=1e-9)


def test_bleu_brevity_penalty_tie_prefers_shorter():
    # hyp len 4; refs len 3 and 5 tie in distance -> pick 3 -> no penalty
    got = M.bleu(["a b c d"], [["a b c", "a b c d e"]])
    # clipped counts come from both refs; with r=3 < c=4, BP must be 1
    p1, p2, p3, p4 = 4 / 4, 3 / 3, 2 / 2, 1 / 1
    assert got == pytest.approx((p1 * p2 * p3 * p4) ** 0.25, abs=1e-9)


def test_bleu_empty_hypothesis_scores_zero():
    assert M.bleu([""], [["a b c d"]]) == 0.0


def test_rouge_identical_strings():
    assert M.rouge_n("a b c", ["a b c"], 1) == 1.0
    assert M.rouge_n("a b c", ["a b c"], 2) == 1.0
    assert M.rouge_l("a b c", ["a b c"]) == 1.0


def test_rouge_disjoint_vocabulary():
    assert M.rouge_n("a b", ["x y"], 1) == 0.0
    assert M.rouge_n("a b", ["x y"], 2) == 0.0
    assert M.rouge_l("a b", ["x y"]) == 0.0


def test_rouge_hand_computed_fixture():
    # hyp "a b c" vs ref "a c d": unigram overlap {a, c} -> P=R=2/3 -> F=2/3
    # LCS "a c" (len 2) -> P=R=2/3 -> F=2/3; bigrams disjoint -> 0
    assert M.rouge_n("a b c", ["a c d"], 1) == pytest.approx(2 / 3, abs=1e-9)
    assert M.rouge_n("a b c", ["a c d"], 2) == 0.0
    assert M.rouge_l("a b c", ["a c d"]) == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_multi_reference_takes_max():
    assert M.rouge_l("a b c", ["x y", "a b c"]) == 1.0


def test_rouge_empty_refs_rejected():
    with pytest.raises(M.MetricError):
        M.rouge_n("a", [], 1)
    with pytest.raises(M.MetricError):
        M.rouge_l("a", [])


SENT = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(SENT, st.lists(SENT, min_size=1, max_size=3)),
                min_size=1, max_size=5), st.randoms())
def test_metrics_invariant_to_example_order(pairs, rnd):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    perm = list(range(len(pairs)))
    rnd.shuffle(perm)
    shuffled_h = [hyps[i] for i in perm]
    shuffled_r = [refs[i] for i in perm]
    assert M.bleu(hyps, refs) == pytest.approx(M.bleu(shuffled_h, shuffled_r), abs=1e-12)
    assert M.rouge_n_corpus(hyps, refs, 1) == pytest.approx(
        M.rouge_n_corpus(shuffled_h, shuffled_r, 1), abs=1e-12)
    assert M.rouge_l_corpus(hyps, refs) == pytest.approx(
        M.rouge_l_corpus(shuffled_h, shuffled_r), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(SENT, st.lists(SENT, min_size=1, max_size=3), st.integers(0, 2))
def test_duplicate_reference_never_changes_scores(hyp, refs, dup_idx):
    dup = refs + [refs[dup_idx % len(refs)]]
    assert M.bleu([hyp], [refs]) == pytest.approx(M.bleu([hyp], [dup]), abs=1e-12)
    assert M.rouge_n(hyp, refs, 1) == pytest.approx(M.rouge_n(hyp, dup, 1), abs=1e-12)
    assert M.rouge_n(hyp, refs, 2) == pytest.approx(M.rouge_n(hyp, dup, 2), abs=1e-12)
    assert M.rouge_l(hyp, refs) == pytest.approx(M.rouge_l(hyp, dup), abs=1e-12)


def test_report_serialization_round_trip():
    rep = M.evaluate_nlg(["a b"], [["a b"]])
    assert rep.bleu == 0.0  # no 4-grams in a 2-word corpus
    assert rep.rouge1 == 1.0
    data = rep.to_json()
    assert '"rouge1": 1.0' in data
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("intent_accuracy,")


def test_merge_reports_combines_directions():
    nlu = M.evaluate_nlu(["a"], ["a"], [["B-k"]], [["B-k"]])
    nlg = M.evaluate_nlg(["x y"], [["x y"]])
    rep = M.merge_reports(nlu, nlg)
    assert rep.intent_accuracy == 1.0 and rep.rouge1 == 1.0
    assert rep.n_nlu == 1 and rep.n_nlg == 1


# ---------------------------------------------------------------------------
# the statistic-based metrics against the text-level implementations they
# replaced, kept here verbatim


def old_slot_f1(pred_tags, gold_tags):
    if len(pred_tags) != len(gold_tags):
        raise M.MetricError(f"{len(pred_tags)} predictions vs {len(gold_tags)} golds")
    tp = n_pred = n_gold = 0
    for pred, gold in zip(pred_tags, gold_tags):
        if len(pred) != len(gold):
            raise M.MetricError(f"tag length mismatch: {len(pred)} vs {len(gold)}")
        p_spans = set(iob_spans(pred))
        g_spans = set(iob_spans(gold))
        tp += len(p_spans & g_spans)
        n_pred += len(p_spans)
        n_gold += len(g_spans)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return M.SlotPRF(precision, recall, f1)


def old_bleu(hyps, ref_sets, max_n=4):
    """Corpus BLEU with multiple references and no smoothing."""
    if len(hyps) != len(ref_sets):
        raise M.MetricError(f"{len(hyps)} hypotheses vs {len(ref_sets)} reference sets")
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hyps, ref_sets):
        if not refs:
            raise M.MetricError("empty reference set")
        h = hyp.split()
        rs = [r.split() for r in refs]
        hyp_len += len(h)
        ref_len += min((abs(len(r) - len(h)), len(r)) for r in rs)[1]
        for n in range(1, max_n + 1):
            hc = M._ngrams(h, n)
            if not hc:
                continue
            clip = Counter()
            for r in rs:
                rc = M._ngrams(r, n)
                for g in hc:
                    clip[g] = max(clip[g], rc.get(g, 0))
            matched[n - 1] += sum(min(c, clip[g]) for g, c in hc.items())
            total[n - 1] += sum(hc.values())
    if hyp_len == 0 or any(t == 0 for t in total):
        return 0.0
    if any(m == 0 for m in matched):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_prec)


def old_rouge_n_corpus(hyps, ref_sets, n):
    if len(hyps) != len(ref_sets) or not hyps:
        raise M.MetricError("hypothesis/reference count mismatch or empty corpus")
    return sum(M.rouge_n(h, rs, n) for h, rs in zip(hyps, ref_sets)) / len(hyps)


def old_rouge_l_corpus(hyps, ref_sets):
    if len(hyps) != len(ref_sets) or not hyps:
        raise M.MetricError("hypothesis/reference count mismatch or empty corpus")
    return sum(M.rouge_l(h, rs) for h, rs in zip(hyps, ref_sets)) / len(hyps)


# short words from a small vocabulary, so n-grams repeat; hypotheses may be
# empty or shorter than four words
WORDS = st.lists(st.sampled_from("abcde"), min_size=0, max_size=9).map(" ".join)
REF_SET = st.lists(WORDS.filter(bool), min_size=1, max_size=3).flatmap(
    lambda refs: st.lists(st.sampled_from(refs), min_size=0, max_size=2).map(
        lambda dups: refs + dups))
TAGS = st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(WORDS, REF_SET), min_size=1, max_size=6))
def test_statistic_text_metrics_equal_the_text_level_originals(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert M.bleu(hyps, refs) == old_bleu(hyps, refs)
    assert M.bleu(hyps, refs, 2) == old_bleu(hyps, refs, 2)
    for n in (1, 2):
        assert M.rouge_n_corpus(hyps, refs, n) == old_rouge_n_corpus(hyps, refs, n)
    assert M.rouge_l_corpus(hyps, refs) == old_rouge_l_corpus(hyps, refs)
    assert M.evaluate_nlg(hyps, refs) == M.EvalReport(
        bleu=old_bleu(hyps, refs), rouge1=old_rouge_n_corpus(hyps, refs, 1),
        rouge2=old_rouge_n_corpus(hyps, refs, 2), rougeL=old_rouge_l_corpus(hyps, refs),
        n_nlg=len(hyps))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 7).flatmap(
    lambda n: st.tuples(st.lists(TAGS, min_size=n, max_size=n),
                        st.lists(TAGS, min_size=n, max_size=n),
                        st.sampled_from([None, "x", "y"]), st.sampled_from([None, "x", "y"]))),
    min_size=0, max_size=6))
def test_statistic_slot_metrics_equal_the_text_level_originals(examples):
    preds = [p for p, _, _, _ in examples]
    golds = [g for _, g, _, _ in examples]
    assert M.slot_f1(preds, golds) == old_slot_f1(preds, golds)
    pred_intents = [i for *_, i, _ in examples]
    gold_intents = [i for *_, i in examples]
    report = M.evaluate_nlu(pred_intents, gold_intents, preds, golds)
    prf = old_slot_f1(preds, golds)
    assert (report.slot_precision, report.slot_recall, report.slot_f1) == (
        prf.precision, prf.recall, prf.f1)
    if any(g is not None for g in gold_intents):
        assert report.intent_accuracy == (
            sum(p == g for p, g in zip(pred_intents, gold_intents)) / len(examples))
    else:
        assert report.intent_accuracy is None
