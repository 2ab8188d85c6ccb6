"""Evaluation metrics: intent accuracy, span-level slot F1, corpus BLEU-4,
and multi-reference ROUGE-(1, 2, L).

All text metrics operate on whitespace word tokens of detokenized text.
Conventions pinned here:
  * BLEU is corpus-level, unsmoothed, with per-n-gram clipping against the
    max reference count and brevity penalty against the closest reference
    length (ties resolved toward the shorter reference).
  * ROUGE scores are per-example F1 (beta = 1), max over references,
    arithmetic mean over the corpus.
  * Slot F1 is micro-averaged over exact (start, end, key) span matches of
    repaired IOB sequences; empty denominators score 0.

Every corpus metric is a sum of per-example statistics followed by a final
formula: integer n-gram counts and lengths for BLEU (``bleu_stats``), the
example's F1 for ROUGE, ``(tp, n_pred, n_gold)`` for slots
(``slot_counts``) and a hit flag for intents. ``nlg_stats``/``nlu_stats``
bundle one example's statistics, and ``report_nlg``/``report_nlu`` turn a
corpus of them into an ``EvalReport``; so a caller that scores many
selections of the same hypotheses computes each example's statistics once.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

from .frames import iob_spans


class MetricError(ValueError):
    pass


def accuracy(hits: Sequence[bool]) -> float:
    """The share of true hit flags."""
    if not hits:
        raise MetricError("empty evaluation set")
    return sum(hits) / len(hits)


def intent_accuracy(preds: Sequence[str | None], golds: Sequence[str | None]) -> float:
    if len(preds) != len(golds):
        raise MetricError(f"{len(preds)} predictions vs {len(golds)} golds")
    return accuracy([p == g for p, g in zip(preds, golds)])


@dataclass(frozen=True)
class SlotPRF:
    precision: float
    recall: float
    f1: float


def slot_counts(pred: Sequence[str], gold: Sequence[str]) -> tuple[int, int, int]:
    """One example's (true positive, predicted, gold) span counts."""
    if len(pred) != len(gold):
        raise MetricError(f"tag length mismatch: {len(pred)} vs {len(gold)}")
    p_spans = set(iob_spans(pred))
    g_spans = set(iob_spans(gold))
    return len(p_spans & g_spans), len(p_spans), len(g_spans)


def slot_prf(counts: Sequence[tuple[int, int, int]]) -> SlotPRF:
    """Micro-averaged precision, recall and F1 of summed ``slot_counts``."""
    tp = sum(c[0] for c in counts)
    n_pred = sum(c[1] for c in counts)
    n_gold = sum(c[2] for c in counts)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return SlotPRF(precision, recall, f1)


def slot_f1(pred_tags: Sequence[Sequence[str]], gold_tags: Sequence[Sequence[str]]) -> SlotPRF:
    if len(pred_tags) != len(gold_tags):
        raise MetricError(f"{len(pred_tags)} predictions vs {len(gold_tags)} golds")
    return slot_prf([slot_counts(p, g) for p, g in zip(pred_tags, gold_tags)])


# ---------------------------------------------------------------------------
# BLEU


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_stats(hyp: str, refs: Sequence[str], max_n: int = 4) -> tuple[int, ...]:
    """One example's BLEU statistics: clipped matches for n = 1..max_n, the
    n-gram totals, the hypothesis length and the closest reference length."""
    if not refs:
        raise MetricError("empty reference set")
    h = hyp.split()
    rs = [r.split() for r in refs]
    matched = [0] * max_n
    total = [0] * max_n
    for n in range(1, max_n + 1):
        hc = _ngrams(h, n)
        clip: Counter = Counter()
        for r in rs:
            rc = _ngrams(r, n)
            for g in hc:
                clip[g] = max(clip[g], rc.get(g, 0))
        matched[n - 1] = sum(min(c, clip[g]) for g, c in hc.items())
        total[n - 1] = sum(hc.values())
    ref_len = min((abs(len(r) - len(h)), len(r)) for r in rs)[1]
    return (*matched, *total, len(h), ref_len)


def bleu_score(stats: Sequence[tuple[int, ...]], max_n: int = 4) -> float:
    """Corpus BLEU of summed ``bleu_stats``."""
    sums = [sum(column) for column in zip(*stats)] or [0] * (2 * max_n + 2)
    matched, total = sums[:max_n], sums[max_n:2 * max_n]
    hyp_len, ref_len = sums[2 * max_n:]
    if hyp_len == 0 or any(t == 0 for t in total):
        return 0.0
    if any(m == 0 for m in matched):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_prec)


def bleu(hyps: Sequence[str], ref_sets: Sequence[Sequence[str]], max_n: int = 4) -> float:
    """Corpus BLEU with multiple references and no smoothing."""
    if len(hyps) != len(ref_sets):
        raise MetricError(f"{len(hyps)} hypotheses vs {len(ref_sets)} reference sets")
    return bleu_score([bleu_stats(h, rs, max_n) for h, rs in zip(hyps, ref_sets)], max_n)


# ---------------------------------------------------------------------------
# ROUGE


def _f1(overlap: float, n_hyp: int, n_ref: int) -> float:
    if overlap == 0 or n_hyp == 0 or n_ref == 0:
        return 0.0
    p = overlap / n_hyp
    r = overlap / n_ref
    return 2 * p * r / (p + r)


def rouge_n(hyp: str, refs: Sequence[str], n: int) -> float:
    """N-gram overlap F1, max over references."""
    if n not in (1, 2):
        raise MetricError(f"rouge_n supports n in {{1, 2}}, got {n}")
    if not refs:
        raise MetricError("empty reference set")
    h = hyp.split()
    hc = _ngrams(h, n)
    best = 0.0
    for ref in refs:
        r = ref.split()
        rc = _ngrams(r, n)
        overlap = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
        best = max(best, _f1(overlap, sum(hc.values()), sum(rc.values())))
    return best


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(hyp: str, refs: Sequence[str]) -> float:
    """Longest-common-subsequence F1, max over references."""
    if not refs:
        raise MetricError("empty reference set")
    h = hyp.split()
    best = 0.0
    for ref in refs:
        r = ref.split()
        best = max(best, _f1(_lcs_len(h, r), len(h), len(r)))
    return best


def mean_score(scores: Sequence[float]) -> float:
    """Corpus ROUGE: the per-example scores summed in example order, over
    their count."""
    if not scores:
        raise MetricError("hypothesis/reference count mismatch or empty corpus")
    return sum(scores) / len(scores)


def rouge_n_corpus(hyps: Sequence[str], ref_sets: Sequence[Sequence[str]], n: int) -> float:
    if len(hyps) != len(ref_sets):
        raise MetricError("hypothesis/reference count mismatch or empty corpus")
    return mean_score([rouge_n(h, rs, n) for h, rs in zip(hyps, ref_sets)])


def rouge_l_corpus(hyps: Sequence[str], ref_sets: Sequence[Sequence[str]]) -> float:
    if len(hyps) != len(ref_sets):
        raise MetricError("hypothesis/reference count mismatch or empty corpus")
    return mean_score([rouge_l(h, rs) for h, rs in zip(hyps, ref_sets)])


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class EvalReport:
    intent_accuracy: float | None = None
    slot_precision: float | None = None
    slot_recall: float | None = None
    slot_f1: float | None = None
    bleu: float | None = None
    rouge1: float | None = None
    rouge2: float | None = None
    rougeL: float | None = None
    n_nlu: int = 0
    n_nlg: int = 0

    FIELDS: ClassVar[tuple[str, ...]]  # the fields' names in declaration order

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in self.FIELDS}, sort_keys=True)

    def to_csv(self) -> str:
        header = ",".join(self.FIELDS)
        row = ",".join("" if getattr(self, k) is None else repr(getattr(self, k))
                       for k in self.FIELDS)
        return f"{header}\n{row}\n"


EvalReport.FIELDS = tuple(f.name for f in fields(EvalReport))


@dataclass(frozen=True)
class NlgStats:
    """One NLG example's statistics: BLEU counts and the three ROUGE F1s."""

    bleu: tuple[int, ...]
    rouge1: float
    rouge2: float
    rougeL: float


def nlg_stats(hyp: str, refs: Sequence[str]) -> NlgStats:
    return NlgStats(bleu_stats(hyp, refs), rouge_n(hyp, refs, 1), rouge_n(hyp, refs, 2),
                    rouge_l(hyp, refs))


def report_nlg(stats: Sequence[NlgStats]) -> EvalReport:
    return EvalReport(bleu=bleu_score([s.bleu for s in stats]),
                      rouge1=mean_score([s.rouge1 for s in stats]),
                      rouge2=mean_score([s.rouge2 for s in stats]),
                      rougeL=mean_score([s.rougeL for s in stats]),
                      n_nlg=len(stats))


def evaluate_nlg(hyps, ref_sets) -> EvalReport:
    if len(hyps) != len(ref_sets):
        raise MetricError(f"{len(hyps)} hypotheses vs {len(ref_sets)} reference sets")
    return report_nlg([nlg_stats(h, rs) for h, rs in zip(hyps, ref_sets)])


@dataclass(frozen=True)
class NluStats:
    """One NLU example's statistics: the intent hit flag and ``slot_counts``."""

    intent_hit: bool
    slots: tuple[int, int, int]


def nlu_stats(pred_intent, gold_intent, pred_tags, gold_tags) -> NluStats:
    return NluStats(pred_intent == gold_intent, slot_counts(pred_tags, gold_tags))


def report_nlu(stats: Sequence[NluStats], with_intents: bool) -> EvalReport:
    """The report of ``stats``; intent accuracy only ``with_intents``, when
    some gold example carries an intent."""
    prf = slot_prf([s.slots for s in stats])
    acc = accuracy([s.intent_hit for s in stats]) if with_intents else None
    return EvalReport(intent_accuracy=acc, slot_precision=prf.precision,
                      slot_recall=prf.recall, slot_f1=prf.f1, n_nlu=len(stats))


def evaluate_nlu(pred_intents, gold_intents, pred_tags, gold_tags) -> EvalReport:
    if not len(pred_intents) == len(gold_intents) == len(pred_tags) == len(gold_tags):
        raise MetricError(f"{len(pred_tags)} predictions vs {len(gold_tags)} golds")
    return report_nlu([nlu_stats(*ex) for ex in
                       zip(pred_intents, gold_intents, pred_tags, gold_tags)],
                      any(g is not None for g in gold_intents))


def merge_reports(nlu: EvalReport | None, nlg: EvalReport | None) -> EvalReport:
    out = EvalReport()
    for part in (nlu, nlg):
        if part is None:
            continue
        for k in EvalReport.FIELDS:
            v = getattr(part, k)
            if isinstance(v, int) and k.startswith("n_"):
                if v:
                    setattr(out, k, v)
            elif v is not None:
                setattr(out, k, v)
    return out
