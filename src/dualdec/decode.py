"""Beam search, dual-inference scoring, hypothesis re-ranking, and the
(alpha, beta) grid sweep.

Re-ranking combines four log-probabilities per hypothesis:

    combined = alpha * forward
             + (1 - alpha) * (backward + beta * marg_out - beta * marg_in)

where ``forward`` is the decoding model's own score, ``backward`` is the
reconstruction score of the input under the opposite-direction model, and the
marginal terms come from the language model (utterance side) and the masked
frame model (semantics side). With alpha = 1 the re-ranking reduces to plain
beam-search order. ``marg_in`` is constant per input, so it never changes an
argmax; it is carried for reporting.

Mask positions for frame scoring are drawn from generators derived from
(seed, example index, candidate rank), which makes grid reuse bit-exact.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Protocol, Sequence

import numpy as np

from . import metrics
from .data import NlgExample, NluExample
from .frames import (SemanticFrame, align_tags_to_pieces, collapse_piece_tags,
                     format_frame, frame_to_iob, iob_to_frame)
from .models import (LmModel, MaskedFrameModel, NlgModel, NluModel,
                     lm_score_tokens, masked_frame_score, nlg_features_np,
                     nlg_score, nlg_step, nlu_intent, nlu_score, nlu_step)
from .tensor import derive_rng
from .textproc import BOS, EOS, PAD, UNK, Utterance, detokenize


class DecodeError(ValueError):
    pass


@dataclass(frozen=True)
class Hypothesis:
    """A completed decode: payload token/tag ids and their total log-prob.

    For tag-sequence hypotheses, ``intent`` carries the paired intent id, and
    ``forward_logprob`` includes its log-probability.
    """

    payload: tuple[int, ...]
    forward_logprob: float
    intent: int | None = None


@dataclass(frozen=True)
class DualWeights:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise DecodeError(f"weights outside [0, 1]: {self.alpha}, {self.beta}")


@dataclass(frozen=True)
class Components:
    forward: float
    backward: float
    marg_out: float
    marg_in: float


@dataclass(frozen=True)
class DualScore(Components):
    combined: float


def combine(c: Components, w: DualWeights) -> DualScore:
    return DualScore(c.forward, c.backward, c.marg_out, c.marg_in,
                     w.alpha * c.forward + (1.0 - w.alpha) * (
                         c.backward + w.beta * c.marg_out - w.beta * c.marg_in))


# ---------------------------------------------------------------------------
# beam search


class Stepper(Protocol):
    """The model a beam decodes with. States come as a stack, one per row,
    that an integer array of row numbers indexes. ``start`` returns the stack
    of the one empty prefix and its (1, V) log-prob matrix; ``advance`` steps
    every row by its own symbol and returns the new stack and an (n, V)
    log-prob matrix."""

    eos: int | None

    def start(self) -> tuple[object, np.ndarray]: ...

    def advance(self, states, symbols: np.ndarray) -> tuple[object, np.ndarray]: ...


def beam_search(stepper: Stepper, beam: int, max_len: int) -> list[Hypothesis]:
    """Standard beam search over log-probs, for both directions; returns up to
    ``beam`` hypotheses, best first. ``max_len`` must be at least 1.

    A stepper with EOS yields completions, ordered by (-score, length,
    payload); sequences reaching ``max_len`` are force-completed with their
    EOS score, advanced best first in stacks of at most ``beam`` rows. A
    stepper whose ``eos`` is None decodes exactly ``max_len`` symbols. Each
    step keeps the ``beam`` best extensions by (-score, payload): equal scores
    go to the extension of the parent first in payload order, then to the
    lower symbol. The frontier keeps the top ``beam`` partials per length, so
    results equal exhaustive enumeration whenever vocab**(max_len-1) <= beam.
    """
    return _search(stepper, beam, max_len)[0]


def _search(stepper: Stepper, beam: int, max_len: int) -> tuple[list[Hypothesis], object]:
    """``beam_search``'s hypotheses and, for a stepper without EOS, the state
    stack of their final rows (else None).

    The frontier is arrays: each row's score and its rank in payload order.
    Rows are equally long, so a child's payload order is (parent rank, symbol)
    and both orders are lexsorts. Payloads are rebuilt from per-step
    backpointers only for the hypotheses kept. A completion scores at most its
    extension, so once ``beam`` completions are held no extension below the
    worst of them is kept, and force-completion stops there. A NaN or +inf
    log-prob raises DecodeError naming the step.
    """
    if beam < 1:
        raise DecodeError("beam must be >= 1")
    if max_len < 1:
        raise DecodeError("max_len must be >= 1")
    eos = stepper.eos
    states, lp = stepper.start()
    scores, rank = np.zeros(1), np.zeros(1, dtype=np.intp)
    back = []  # per step: the kept rows' parent rows and symbols
    # the ``beam`` best completions, worst at the root: (score, -length,
    # -payload order, step and row extended); completions of one length
    # extend rows of one step, so their payload order is their row's rank
    top: list[tuple] = []

    def hypothesis(step, row, score) -> Hypothesis:
        payload = []
        for parents, symbols in reversed(back[:step]):
            payload.append(symbols[row])
            row = parents[row]
        return Hypothesis(tuple(payload[::-1]), score)

    def complete(t, lp, scores, ranks, first=0) -> None:
        # a completion pushed out of the ``beam`` best can never be returned
        done = np.flatnonzero(lp[:, eos] > -math.inf)
        for row, end, r in zip(done.tolist(), (scores[done] + lp[done, eos]).tolist(),
                               ranks[done].tolist()):
            entry = (end, -t, -r, t, first + row)
            (heapq.heappush if len(top) < beam else heapq.heappushpop)(top, entry)

    for t in range(max_len):
        if not lp.max() < math.inf:  # a NaN or +inf somewhere
            row, v = np.argwhere(~(lp < math.inf))[0]
            raise DecodeError(f"log-probability {lp[row, v]} for symbol {v} at decode step {t}")
        ext = scores[:, None] + lp
        if eos is not None:
            complete(t, lp, scores, rank)
            ext[:, eos] = -math.inf
        ext = ext.ravel()
        limit = None if eos is not None and t == max_len - 1 else beam
        floor = np.finfo(float).min  # the lowest finite score: -inf extends nothing
        if limit is not None and limit < len(ext):
            # the first ``limit`` all score at least the limit-th best score
            floor = max(floor, np.partition(ext, len(ext) - limit)[len(ext) - limit])
        if len(top) == beam:
            floor = max(floor, top[0][0])
        idx = np.flatnonzero(ext >= floor)
        if not len(idx):
            break
        rows, syms = np.divmod(idx, lp.shape[1])
        order = np.lexsort((syms, rank[rows], -ext[idx]))[:limit]
        rows, syms, scores = rows[order], syms[order], ext[idx[order]]
        back.append((rows.tolist(), syms.tolist()))
        children = np.lexsort((syms, rank[rows]))
        rank = np.empty_like(children)
        rank[children] = np.arange(len(children))
        if t < max_len - 1:
            states, lp = stepper.advance(states[rows], syms)
        elif eos is None:
            # the parent states already consumed the final input position
            return ([hypothesis(max_len, row, s) for row, s in enumerate(scores.tolist())],
                    states[rows])
        else:
            for first in range(0, len(scores), beam):
                if len(top) == beam and scores[first] < top[0][0]:
                    break
                page = slice(first, first + beam)
                _, lp = stepper.advance(states[rows[page]], syms[page])
                if not lp[:, eos].max() < math.inf:  # only the EOS column is read
                    bad = lp[~(lp[:, eos] < math.inf), eos][0]
                    raise DecodeError(f"log-probability {bad} for EOS at decode step {max_len}")
                complete(max_len, lp, scores[page], rank[page], first)
    return [hypothesis(step, row, score)
            for score, _, _, step, row in sorted(top, reverse=True)], None


class NlgStepper:
    """Word decoding for one frame; a state stack is an (n, hidden) array, and
    the first step reads BOS from the mean of the frame's features. PAD, BOS
    and UNK are masked out so every hypothesis detokenizes to a clean word
    sequence."""

    def __init__(self, model: NlgModel, frame: SemanticFrame):
        self.model = model
        self.features = nlg_features_np(model, frame)
        self.eos = EOS

    def start(self):
        return self.advance(self.features.mean(axis=0)[None], BOS)

    def advance(self, states: np.ndarray, symbols: np.ndarray | int):
        lp, _, h = nlg_step(self.model, states, symbols, self.features)
        lp[:, [PAD, BOS, UNK]] = -math.inf
        return h, lp


@dataclass(frozen=True)
class TagStates:
    """A stack of tagger states: hidden rows ``h``, which all read the input
    token at ``pos`` next."""

    h: np.ndarray
    pos: int

    def __getitem__(self, rows) -> TagStates:
        return TagStates(self.h[rows], self.pos)


class NluTagStepper:
    """Tag decoding over a fixed utterance; one step per input token."""

    def __init__(self, model: NluModel, utt: Utterance):
        if not utt.tokens:
            raise DecodeError("cannot tag an empty utterance")
        self.model = model
        self.tokens = utt.tokens
        self.eos = None
        self.length = len(utt.tokens)

    def start(self):
        lp, h = nlu_step(self.model, np.zeros((1, self.model.cfg.hidden)), self.tokens[0], None)
        return TagStates(h, 1), lp

    def advance(self, states: TagStates, symbols: np.ndarray):
        lp, h = nlu_step(self.model, states.h, self.tokens[states.pos], symbols)
        return TagStates(h, states.pos + 1), lp


def nlg_hypotheses(model: NlgModel, frame: SemanticFrame, beam: int,
                   max_len: int) -> list[Hypothesis]:
    return beam_search(NlgStepper(model, frame), beam, max_len)


def nlu_hypotheses(model: NluModel, utt: Utterance, beam: int,
                   k_intent: int = 3) -> list[Hypothesis]:
    """Tag-sequence beam, each paired with its top ``k_intent`` intents from
    the hypothesis' final state; truncated to ``beam`` total."""
    stepper = NluTagStepper(model, utt)
    hyps, finals = _search(stepper, beam, stepper.length)
    if not model.n_intents or not hyps:
        return hyps
    out = []
    for hyp, ilp in zip(hyps, nlu_intent(model, finals.h)):
        order = np.argsort(-ilp, kind="stable")[:max(1, k_intent)]
        for ii in order:
            out.append(Hypothesis(hyp.payload, hyp.forward_logprob + float(ilp[int(ii)]),
                                  intent=int(ii)))
    out.sort(key=lambda h: (-h.forward_logprob, len(h.payload), h.payload, h.intent))
    return out[:beam]


# ---------------------------------------------------------------------------
# dual scoring


def utterance_from_payload(vocabs, payload: Sequence[int]) -> Utterance:
    pieces = tuple(vocabs.bpe.piece_of(i) for i in payload)
    return Utterance(detokenize(pieces), tuple(payload), pieces)


def forced_tag_ids(nlu: NluModel, frame: SemanticFrame, utt: Utterance) -> list[int]:
    """Tag targets for reconstructing ``frame`` from ``utt``; slot values the
    utterance does not contain simply leave their tags absent."""
    word_tags, _ = frame_to_iob(frame, utt.surface.split())
    piece_tags = align_tags_to_pieces(word_tags, utt)
    return [nlu.vocabs.labels.tag_id(t) for t in piece_tags]


def nlg_backward_logprob(nlu: NluModel, frames: Sequence[SemanticFrame],
                         cands: Sequence[Utterance]) -> list[float]:
    """log P(frame | cand) under ``nlu`` of each (input frame, candidate) row."""
    labels = nlu.vocabs.labels
    intents = [labels.intent_id(frame.intent) if frame.intent is not None and nlu.n_intents
               else None for frame in frames]
    tags = [forced_tag_ids(nlu, frame, cand) for frame, cand in zip(frames, cands, strict=True)]
    return nlu_score(nlu, cands, tags, intents)


def candidate_frame(nlu_like, input_utt: Utterance, hyp: Hypothesis) -> SemanticFrame:
    labels = nlu_like.vocabs.labels
    piece_tags = [labels.tags[i] for i in hyp.payload]
    word_tags = collapse_piece_tags(piece_tags, input_utt)
    intent = labels.intents[hyp.intent] if hyp.intent is not None else None
    return iob_to_frame(word_tags, intent, input_utt.surface.split())


def frame_marginal(mfm: MaskedFrameModel, frames: Sequence[SemanticFrame], rngs) -> list[float]:
    """Each frame's pseudo log-likelihood, its masks drawn from its own
    generator in ``rngs``."""
    # a frame with no features has an empty pseudo-likelihood product: log 1
    out = [0.0] * len(frames)
    scored = [i for i, frame in enumerate(frames) if frame.n_features]
    if scored:
        values = masked_frame_score(mfm, [frames[i] for i in scored],
                                    [rngs[i] for i in scored])
        for i, value in zip(scored, values):
            out[i] = value
    return out


def dual_components_nlg(candidates: Sequence[Hypothesis],
                        input_frames: Sequence[SemanticFrame], nlu: NluModel, lm: LmModel,
                        marg_ins: Sequence[float]) -> list[Components]:
    """The components of each NLG candidate, given its input frame and that
    frame's ``marg_in``, one of each per row."""
    cands = [utterance_from_payload(lm.vocabs, h.payload) for h in candidates]
    backward = nlg_backward_logprob(nlu, input_frames, cands)
    marg_out = lm_score_tokens(lm, [h.payload for h in candidates])
    return [Components(h.forward_logprob, b, o, m)
            for h, b, o, m in zip(candidates, backward, marg_out, marg_ins, strict=True)]


def dual_components_nlu(candidates: Sequence[Hypothesis], input_utts: Sequence[Utterance],
                        nlg: NlgModel, mfm: MaskedFrameModel, marg_ins: Sequence[float],
                        rngs) -> list[Components]:
    """The components of each NLU candidate, given its input utterance and
    that input's ``marg_in``, one of each per row; ``rngs`` draw the mask
    positions of each candidate frame."""
    frames = [candidate_frame(nlg, utt, h) for h, utt in zip(candidates, input_utts, strict=True)]
    backward = nlg_score(nlg, frames, input_utts)
    marg_out = frame_marginal(mfm, frames, rngs)
    return [Components(h.forward_logprob, b, o, m)
            for h, b, o, m in zip(candidates, backward, marg_out, marg_ins, strict=True)]


def dual_score_nlg(candidate, input_frame, nlu, lm, mfm, w: DualWeights, rng) -> DualScore:
    marg_in = frame_marginal(mfm, [input_frame], [rng])
    [c] = dual_components_nlg([candidate], [input_frame], nlu, lm, marg_in)
    return combine(c, w)


def dual_score_nlu(candidate, input_utt, nlg, mfm, lm, w: DualWeights, rng) -> DualScore:
    marg_in = lm_score_tokens(lm, [input_utt.tokens])
    [c] = dual_components_nlu([candidate], [input_utt], nlg, mfm, marg_in, [rng])
    return combine(c, w)


def _best_index(keys: Sequence[tuple[float, float]]) -> int:
    """Argmax of (combined, forward) pairs: ties on the combined score fall
    back to forward, then to list order (the beam's own payload order)."""
    if not keys:
        raise DecodeError("cannot rerank an empty hypothesis list")
    for rank, (combined, _) in enumerate(keys):
        if math.isnan(combined):
            raise DecodeError(f"combined score of hypothesis {rank} is NaN")
    best = 0
    for i in range(1, len(keys)):
        if keys[i] > keys[best]:
            best = i
    return best


def rerank_index(scored: Sequence[tuple[Hypothesis, DualScore]]) -> int:
    """Argmax of combined score; ties fall back to forward, then list order
    (the beam's own payload order)."""
    return _best_index([(s.combined, s.forward) for _, s in scored])


def rerank(scored: Sequence[tuple[Hypothesis, DualScore]]) -> Hypothesis:
    return scored[rerank_index(scored)][0]


# ---------------------------------------------------------------------------
# cached per-example scoring (shared by grid search and the weight sweeps)


@dataclass
class ModelsBundle:
    """The four models of one experiment. Plain (alpha = 1) evaluation only
    touches the primal direction, so the unused members may be None."""

    nlu: NluModel | None
    nlg: NlgModel | None
    lm: LmModel | None
    mfm: MaskedFrameModel | None

    def __iter__(self):
        return iter((self.nlu, self.nlg, self.lm, self.mfm))

    @property
    def vocabs(self):
        for m in self:
            if m is not None:
                return m.vocabs
        raise DecodeError("empty model bundle")


@dataclass
class CachedExample:
    """One example's beam and the score components of each hypothesis;
    plain decoding leaves ``components`` empty. ``utt`` is the encoded input
    of an NLU example."""

    hypotheses: list[Hypothesis]
    components: list[Components]
    utt: Utterance | None = None

    def select(self, w: DualWeights) -> int:
        """The rank ``rerank_index`` picks at ``w``."""
        return int(rerank_indices([self], [w])[0, 0])


def rerank_indices(cached: Sequence[CachedExample],
                   weights: Sequence[DualWeights]) -> np.ndarray:
    """The rank ``rerank_index`` picks in each beam of ``cached`` at each of
    ``weights``, as a (weights, examples) array. Per example, one (weights,
    hypotheses) matrix of combined scores, each entry the float ``combine``
    gives (the same operations in the same order); the pick is the first
    rank with the highest combined score and, among those, the highest
    forward score. The first NaN in (weight, example, rank) order raises,
    as does an empty beam, which fails at the first weight pair."""
    alpha = np.array([w.alpha for w in weights])[:, None]
    beta = np.array([w.beta for w in weights])[:, None]
    picks = np.zeros((len(weights), len(cached)), dtype=np.intp)
    faults = []  # (weight, example, message) of each beam that fails
    for e, c in enumerate(cached):
        if not c.components:
            faults.append((0, e, "cannot rerank an empty hypothesis list"))
            continue
        f, b, o, m = np.array([(x.forward, x.backward, x.marg_out, x.marg_in)
                               for x in c.components]).T
        with np.errstate(invalid="ignore"):  # a NaN it makes raises below
            combined = alpha * f + (1.0 - alpha) * (b + beta * o - beta * m)
        nan = np.argwhere(np.isnan(combined))
        if len(nan):
            faults.append((nan[0][0], e, f"combined score of hypothesis {nan[0][1]} is NaN"))
            continue
        top = combined == combined.max(axis=1, keepdims=True)
        forward = np.where(top, f, -math.inf)
        picks[:, e] = np.argmax(top & (forward == forward.max(axis=1, keepdims=True)), axis=1)
    if faults and len(weights):
        raise DecodeError(min(faults)[2])
    return picks


def decode_split(direction: str, examples, bundle: ModelsBundle, *, beam: int,
                 max_len: int = 60, k_intent: int = 3) -> list[CachedExample]:
    """Decode every example of a split, one beam each, with no components
    yet; an NLU example also carries its encoded input."""
    if direction == "nlg":
        return [CachedExample(nlg_hypotheses(bundle.nlg, ex.frame, beam, max_len), [])
                for ex in examples]
    if direction == "nlu":
        utts = [bundle.vocabs.bpe.encode(ex.text) for ex in examples]
        return [CachedExample(nlu_hypotheses(bundle.nlu, utt, beam, k_intent), [], utt)
                for utt in utts]
    raise DecodeError(f"unknown direction {direction!r}")


def _fill_components(cached: list[CachedExample], components) -> list[CachedExample]:
    """``cached`` with each beam given its share of ``components``, in order."""
    comps = iter(components)
    for c in cached:
        c.components = list(islice(comps, len(c.hypotheses)))
    return cached


def precompute_nlg(examples: Sequence[NlgExample], bundle: ModelsBundle, *,
                   beam: int, max_len: int, seed: int) -> list[CachedExample]:
    """Decode every example, then score all the hypotheses with one call per
    component; input ``idx`` draws its masks from (seed, "mask", idx)."""
    cached = decode_split("nlg", examples, bundle, beam=beam, max_len=max_len)
    marg_in = frame_marginal(bundle.mfm, [ex.frame for ex in examples],
                             [derive_rng(seed, "mask", idx) for idx in range(len(examples))])
    rows = [(i, h) for i, c in enumerate(cached) for h in c.hypotheses]
    return _fill_components(cached, dual_components_nlg(
        [h for _, h in rows], [examples[i].frame for i, _ in rows], bundle.nlu, bundle.lm,
        [marg_in[i] for i, _ in rows]))


def precompute_nlu(examples: Sequence[NluExample], bundle: ModelsBundle, *,
                   beam: int, k_intent: int, seed: int) -> list[CachedExample]:
    """As ``precompute_nlg``; the candidate frame of input ``idx`` at ``rank``
    draws its masks from (seed, "mask", idx, rank)."""
    cached = decode_split("nlu", examples, bundle, beam=beam, k_intent=k_intent)
    marg_in = lm_score_tokens(bundle.lm, [c.utt.tokens for c in cached])
    rows = [(i, r) for i, c in enumerate(cached) for r in range(len(c.hypotheses))]
    return _fill_components(cached, dual_components_nlu(
        [cached[i].hypotheses[r] for i, r in rows], [cached[i].utt for i, _ in rows],
        bundle.nlg, bundle.mfm, [marg_in[i] for i, _ in rows],
        [derive_rng(seed, "mask", i, r) for i, r in rows]))


def precompute(direction: str, examples, bundle: ModelsBundle, *, beam: int,
               max_len: int, k_intent: int, seed: int) -> list[CachedExample]:
    if direction == "nlg":
        return precompute_nlg(examples, bundle, beam=beam, max_len=max_len, seed=seed)
    if direction == "nlu":
        return precompute_nlu(examples, bundle, beam=beam, k_intent=k_intent, seed=seed)
    raise DecodeError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# reports of the chosen hypotheses


def _reporter(direction: str, examples, vocabs, cached: Sequence[CachedExample]):
    """The report of ``examples`` as a function of the rank chosen in each of
    their ``cached`` beams. Gold data is gathered here, once per split; NLU
    inputs come encoded in the cache. Each (example, rank)'s metric
    statistics are computed the first time a selection picks it, then reused."""
    if direction == "nlg":
        def stats_of(idx: int, hyp: Hypothesis) -> metrics.NlgStats:
            text = utterance_from_payload(vocabs, hyp.payload).surface
            return metrics.nlg_stats(text, examples[idx].refs)
        report = metrics.report_nlg
    else:
        labels = vocabs.labels
        with_intents = any(ex.intent is not None for ex in examples)

        def stats_of(idx: int, hyp: Hypothesis) -> metrics.NluStats:
            ex = examples[idx]
            pred_tags = collapse_piece_tags([labels.tags[t] for t in hyp.payload],
                                            cached[idx].utt)
            pred_intent = None if hyp.intent is None else labels.intents[hyp.intent]
            return metrics.nlu_stats(pred_intent, ex.intent, pred_tags, ex.tags)

        def report(stats):
            return metrics.report_nlu(stats, with_intents)
    memo: dict[tuple[int, int], object] = {}

    def report_of(picks: Sequence[int]) -> metrics.EvalReport:
        stats = []
        for idx, rank in enumerate(picks):
            if (idx, rank) not in memo:
                memo[idx, rank] = stats_of(idx, cached[idx].hypotheses[rank])
            stats.append(memo[idx, rank])
        return report(stats)
    return report_of


# ---------------------------------------------------------------------------
# grid search


def grid_intervals(step: float) -> int:
    """How many times ``step`` fits into 1.0: a whole number of times, at most
    100, so a grid holds at most 101 x 101 weight pairs."""
    n = round(1.0 / step) if step > 0 else 0
    if not 1 <= n <= 100 or abs(n * step - 1.0) > 1e-9:
        raise DecodeError(f"grid step {step} must divide 1.0 at most 100 times")
    return n


def weight_grid(step: float = 0.1) -> list[tuple[float, float]]:
    n = grid_intervals(step)
    vals = [i / n for i in range(n + 1)]
    return [(a, b) for a in vals for b in vals]


@dataclass
class GridRow:
    alpha: float
    beta: float
    report: metrics.EvalReport

    @property
    def metrics(self) -> dict[str, float]:
        """The metrics the report holds, in report field order."""
        return {k: getattr(self.report, k) for k in metrics.EvalReport.FIELDS
                if not k.startswith("n_") and getattr(self.report, k) is not None}


@dataclass
class GridResult:
    direction: str
    rows: list[GridRow] = field(default_factory=list)
    selections: dict[tuple[float, float], list[int]] = field(default_factory=dict)

    @property
    def metric_names(self) -> list[str]:
        return list(self.rows[0].metrics) if self.rows else []

    @property
    def best(self) -> dict[str, tuple[float, float, float]]:
        """Per-metric argmax; earliest (alpha, beta) in row order wins ties."""
        return {name: max(((r.alpha, r.beta, r.metrics[name]) for r in self.rows),
                          key=lambda top: top[2])
                for name in self.metric_names}

    def to_csv(self) -> str:
        lines = [",".join(["alpha", "beta"] + self.metric_names)]
        for row in self.rows:
            vals = [repr(row.alpha), repr(row.beta)]
            vals += [repr(row.metrics[name]) for name in self.metric_names]
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def sweep(examples, bundle: ModelsBundle, direction: str,
          cached: Sequence[CachedExample],
          pairs: Sequence[tuple[float, float]]) -> GridResult:
    """Re-rank the cached hypotheses at each (alpha, beta) of ``pairs`` and
    report each selection; a row's columns are its report's metrics. Pairs
    that select the same hypotheses share one report."""
    report_of = _reporter(direction, examples, bundle.vocabs, cached)
    reports: dict[tuple[int, ...], metrics.EvalReport] = {}
    result = GridResult(direction)
    ranks = rerank_indices(cached, [DualWeights(a, b) for a, b in pairs]).tolist()
    for (a, b), picks in zip(pairs, ranks):
        result.selections[(a, b)] = picks
        key = tuple(picks)
        if key not in reports:
            reports[key] = report_of(picks)
        result.rows.append(GridRow(a, b, reports[key]))
    return result


def grid_search(examples, bundle: ModelsBundle, direction: str, *, beam: int,
                max_len: int = 60, k_intent: int = 3, seed: int = 0,
                step: float = 0.1) -> GridResult:
    """Sweep re-ranking weights over the (alpha, beta) grid.

    Hypotheses and score components are computed once per example and reused
    across every pair; only the linear combination changes.
    """
    if not examples:
        raise DecodeError("empty validation set")
    cached = precompute(direction, examples, bundle, beam=beam, max_len=max_len,
                        k_intent=k_intent, seed=seed)
    return sweep(examples, bundle, direction, cached, weight_grid(step))


# ---------------------------------------------------------------------------
# evaluation passes (plain decoding or one fixed weight pair)


def evaluate_direction(examples, bundle: ModelsBundle, direction: str,
                       weights: DualWeights | None, *, beam: int,
                       max_len: int = 60, k_intent: int = 3, seed: int = 0,
                       ) -> tuple[metrics.EvalReport, list[dict]]:
    """Decode every example. ``weights=None`` is the plain (alpha = 1)
    evaluation: beam top-1, no extra scoring, and no traces. With ``weights``
    given, re-rank dually and trace every example as a JSON object: its
    ``index``, its ``input`` text, the ``selected`` hypothesis rank and the
    ``hypotheses`` with all four score components and the combined score."""
    if weights is None:
        cached = decode_split(direction, examples, bundle, beam=beam, max_len=max_len,
                              k_intent=k_intent)
    else:
        cached = precompute(direction, examples, bundle, beam=beam, max_len=max_len,
                            k_intent=k_intent, seed=seed)
    picks = ([0] * len(cached) if weights is None
             else rerank_indices(cached, [weights])[0].tolist())
    report = _reporter(direction, examples, bundle.vocabs, cached)(picks)
    if weights is None:
        return report, []
    inputs = [format_frame(ex.frame) if direction == "nlg" else ex.text for ex in examples]
    traces = [_trace(idx, text, c, sel, weights, bundle.vocabs, direction)
              for idx, (text, c, sel) in enumerate(zip(inputs, cached, picks))]
    return report, traces


def _trace(idx, input_text, cached: CachedExample, sel, weights: DualWeights, vocabs,
           direction) -> dict:
    rows = []
    for hyp, comps in zip(cached.hypotheses, cached.components):
        row = {"payload": list(hyp.payload), "forward": hyp.forward_logprob}
        if direction == "nlg":
            row["text"] = utterance_from_payload(vocabs, hyp.payload).surface
        if hyp.intent is not None:
            row["intent"] = vocabs.labels.intents[hyp.intent]
        ds = combine(comps, weights)
        row.update(backward=ds.backward, marg_out=ds.marg_out,
                   marg_in=ds.marg_in, combined=ds.combined)
        rows.append(row)
    return {"index": idx, "input": input_text, "selected": sel, "hypotheses": rows}
