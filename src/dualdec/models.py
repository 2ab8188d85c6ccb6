"""The four models behind dual-inference decoding.

  * NluModel: gated-recurrent tagger over [word ; previous tag] inputs with an
    intent head on the final hidden state.
  * NlgModel: slot-value pair encoder (bidirectional recurrence -> one feature
    per pair, plus an intent feature), scaled dot-product attention over the
    features, and a recurrent word decoder initialized from the mean-pooled
    features.
  * LmModel: recurrent language model over subword tokens.
  * MaskedFrameModel: set encoder over frame features with a learned MASK
    vector, a two-layer self-attention stack (no positional encodings; a frame
    is unordered), and a per-position classifier over slot keys and intents.
    Frame density is a pseudo-likelihood: mask a random feature three times
    and sum the log-probabilities of the true labels.

All four build on one constructor (config, vocabularies, a parameter store
whose first entry is the word embedding), and NLG and the masked frame model
share one frame-feature encoder, ``mfm_features``. Training and
teacher-forced scoring run on the traced path. Beam search runs on a raw-numpy
path: ``GruCell.step_np`` and the per-model steps ``nlu_step``, ``nlu_intent``,
``nlg_start`` and ``nlg_step``; tests pin its agreement with the traced path.
Both paths share ``tensor``'s activation kernels.
Beam search encodes a frame once, on the traced path under ``no_grad``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .data import Checkpoint, CheckpointError, NlgExample, NluExample
from .frames import FrameError, SemanticFrame, align_tags_to_pieces
from .tensor import Tensor, derive_rng
from .textproc import BOS, EOS, BpeModel, LabelVocab, Utterance, Vocabs


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 200
    embedding: int = 50


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    epochs: int = 10
    batch_size: int = 48
    teacher_forcing: float = 0.9
    lr: float = 1e-3
    clip: float = 5.0
    seed: int = 0


class ParamStore:
    """Ordered named-parameter map; the checkpoint layout follows its order."""

    def __init__(self, rng: np.random.Generator | None):
        self._rng = rng
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple[int, ...]) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        if self._rng is None:
            p = Tensor(np.zeros(shape), requires_grad=True)
        else:
            p = T.parameter(shape, self._rng)
        self.params[name] = p
        return p


class GruCell:
    """Gated recurrent cell, gates ordered (reset, update, candidate)."""

    def __init__(self, store: ParamStore, prefix: str, in_dim: int, hidden: int):
        self.hidden = hidden
        self.w_ih = store.add(f"{prefix}.w_ih", (3 * hidden, in_dim))
        self.w_hh = store.add(f"{prefix}.w_hh", (3 * hidden, hidden))
        self.b_ih = store.add(f"{prefix}.b_ih", (3 * hidden,))
        self.b_hh = store.add(f"{prefix}.b_hh", (3 * hidden,))

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        H = self.hidden
        gi = T.add(T.matmul(self.w_ih, x), self.b_ih)
        gh = T.add(T.matmul(self.w_hh, h), self.b_hh)
        r = T.sigmoid(T.add(T.slice1d(gi, 0, H), T.slice1d(gh, 0, H)))
        z = T.sigmoid(T.add(T.slice1d(gi, H, 2 * H), T.slice1d(gh, H, 2 * H)))
        n = T.tanh(T.add(T.slice1d(gi, 2 * H, 3 * H),
                         T.mul(r, T.slice1d(gh, 2 * H, 3 * H))))
        return T.add(n, T.mul(z, T.sub(h, n)))

    def step_np(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        H = self.hidden
        gi = self.w_ih.data @ x + self.b_ih.data
        gh = self.w_hh.data @ h + self.b_hh.data
        r = T.sigmoid_np(gi[0:H] + gh[0:H])
        z = T.sigmoid_np(gi[H:2 * H] + gh[H:2 * H])
        n = np.tanh(gi[2 * H:] + r * gh[2 * H:])
        return n + z * (h - n)


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-position log-probabilities plus an optional intent term."""

    steps: tuple[float, ...]
    intent_logprob: float | None = None

    @property
    def seq_total(self) -> float:
        return float(sum(self.steps))

    @property
    def total(self) -> float:
        return self.seq_total + (self.intent_logprob or 0.0)


def _floats(ts: Sequence[Tensor]) -> tuple[float, ...]:
    return tuple(float(t.data) for t in ts)


def _sum_terms(ts: Sequence[Tensor]) -> Tensor:
    acc = ts[0]
    for t in ts[1:]:
        acc = T.add(acc, t)
    return acc


# ---------------------------------------------------------------------------
# model construction


class _Model:
    """Construction shared by the four models. ``word_emb`` is always the first
    parameter; each model's ``_build`` adds the rest in checkpoint order."""

    def __init__(self, cfg: ModelConfig, vocabs: Vocabs,
                 rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.vocabs = vocabs
        store = ParamStore(rng)
        self.word_emb = store.add("word_emb", (len(vocabs.bpe.pieces), cfg.embedding))
        self._build(store, cfg.hidden, cfg.embedding)
        self.params = store.params

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        raise NotImplementedError

    @property
    def n_intents(self) -> int:
        return self.vocabs.labels.n_intents


# ---------------------------------------------------------------------------
# NLU


class NluModel(_Model):
    kind = "nlu"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        n_tags = self.vocabs.labels.n_tags
        self.tag_emb = store.add("tag_emb", (n_tags, E))
        self.start_tag = store.add("start_tag", (E,))
        self.cell = GruCell(store, "gru", 2 * E, H)
        self.tag_w = store.add("tag_proj.w", (n_tags, H))
        self.tag_b = store.add("tag_proj.b", (n_tags,))
        if self.n_intents:
            self.int_w = store.add("intent_proj.w", (self.n_intents, H))
            self.int_b = store.add("intent_proj.b", (self.n_intents,))


def nlu_forcing_graph(m: NluModel, utt: Utterance, tags: Sequence[int],
                      intent: int | None, tf_ratio: float = 1.0,
                      rng: np.random.Generator | None = None,
                      ) -> tuple[list[Tensor], Tensor | None]:
    """Teacher-forced per-step tag log-probs and the intent log-prob."""
    if len(tags) != len(utt.tokens):
        raise FrameError(f"{len(tags)} tags for {len(utt.tokens)} tokens")
    n_tags = m.vocabs.labels.n_tags
    if any(not 0 <= t < n_tags for t in tags):
        raise FrameError(f"tag id outside inventory of size {n_tags}")
    h = Tensor(np.zeros(m.cfg.hidden))
    prev = m.start_tag
    steps: list[Tensor] = []
    for tok, tag in zip(utt.tokens, tags):
        x = T.concat([T.row(m.word_emb, tok), prev])
        h = m.cell.step(x, h)
        lp = T.log_softmax(T.add(T.matmul(m.tag_w, h), m.tag_b))
        steps.append(T.pick(lp, tag))
        feed = tag
        if rng is not None and tf_ratio < 1.0 and rng.random() >= tf_ratio:
            feed = int(np.argmax(lp.data))
        prev = T.row(m.tag_emb, feed)
    intent_lp = None
    if m.n_intents and intent is not None:
        if not 0 <= intent < m.n_intents:
            raise FrameError(f"intent id {intent} outside inventory of size {m.n_intents}")
        dist = T.log_softmax(T.add(T.matmul(m.int_w, h), m.int_b))
        intent_lp = T.pick(dist, intent)
    return steps, intent_lp


def nlu_score(m: NluModel, utt: Utterance, tags: Sequence[int],
              intent: int | None = None) -> ScoreBreakdown:
    with T.no_grad():
        steps, intent_lp = nlu_forcing_graph(m, utt, tags, intent)
    return ScoreBreakdown(_floats(steps),
                          None if intent_lp is None else float(intent_lp.data))


def nlu_start(m: NluModel) -> np.ndarray:
    return np.zeros(m.cfg.hidden)


def nlu_step(m: NluModel, state: np.ndarray, word: int, prev_tag: int | None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step; returns (tag log-distribution, new state)."""
    prev = m.start_tag.data if prev_tag is None else m.tag_emb.data[prev_tag]
    x = np.concatenate([m.word_emb.data[word], prev])
    h = m.cell.step_np(x, state)
    return T.log_softmax_np(m.tag_w.data @ h + m.tag_b.data), h


def nlu_intent(m: NluModel, state: np.ndarray) -> np.ndarray:
    if not m.n_intents:
        raise FrameError("model has no intent inventory")
    return T.log_softmax_np(m.int_w.data @ state + m.int_b.data)


# ---------------------------------------------------------------------------
# the frame-feature encoder shared by NLG and the masked frame model


class _PairEncoder:
    """Bidirectional recurrence over [key ; value tokens] -> one feature."""

    def __init__(self, store: ParamStore, emb: int, hidden: int):
        self.fwd = GruCell(store, "enc_f", emb, hidden)
        self.bwd = GruCell(store, "enc_b", emb, hidden)
        self.feat_w = store.add("feat.w", (hidden, 2 * hidden))
        self.feat_b = store.add("feat.b", (hidden,))
        self.hidden = hidden

    def encode(self, seq: list[Tensor]) -> Tensor:
        hf = Tensor(np.zeros(self.hidden))
        hb = Tensor(np.zeros(self.hidden))
        for x in seq:
            hf = self.fwd.step(x, hf)
        for x in reversed(seq):
            hb = self.bwd.step(x, hb)
        return T.tanh(T.add(T.matmul(self.feat_w, T.concat([hf, hb])), self.feat_b))


class _FrameModel(_Model):
    """A model that reads frames: slot-key and intent embeddings and the pair
    encoder, in that parameter order."""

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        self.key_emb = store.add("key_emb", (max(self.vocabs.labels.n_slot_keys, 1), E))
        if self.n_intents:
            self.intent_emb = store.add("intent_emb", (self.n_intents, H))
        self.encoder = _PairEncoder(store, E, H)
        self.scale = 1.0 / math.sqrt(H)


def mfm_features(m: _FrameModel, frame: SemanticFrame,
                 ) -> tuple[list[Tensor], list[int]]:
    """Per-feature encodings and their classifier targets (key or intent id):
    one pair encoding per slot, then the intent embedding."""
    labels = m.vocabs.labels
    feats: list[Tensor] = []
    targets: list[int] = []
    for key, value in frame.slots:
        try:
            key_id = labels.key_id(key)
        except KeyError:
            raise FrameError(f"slot key {key!r} outside inventory") from None
        value_ids = m.vocabs.bpe.encode_ids(" ".join(value))
        seq = [T.row(m.key_emb, key_id)] + [T.row(m.word_emb, i) for i in value_ids]
        feats.append(m.encoder.encode(seq))
        targets.append(key_id)
    if frame.intent is not None and m.n_intents:
        iid = labels.intent_id(frame.intent)
        feats.append(T.row(m.intent_emb, iid))
        targets.append(labels.n_slot_keys + iid)
    return feats, targets


# ---------------------------------------------------------------------------
# NLG


class NlgModel(_FrameModel):
    kind = "nlg"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        super()._build(store, H, E)
        n_tok = len(self.vocabs.bpe.pieces)
        self.empty_feat = store.add("empty_feat", (H,))
        self.cell = GruCell(store, "dec", H + E, H)
        self.out_w = store.add("out.w", (n_tok, H))
        self.out_b = store.add("out.b", (n_tok,))


def nlg_features(m: NlgModel, frame: SemanticFrame) -> list[Tensor]:
    """The frame's features; the learned ``empty_feat`` when it has none."""
    return mfm_features(m, frame)[0] or [m.empty_feat]


def nlg_features_np(m: NlgModel, frame: SemanticFrame) -> np.ndarray:
    """``nlg_features`` as a (k, hidden) array, the input of ``nlg_step``."""
    with T.no_grad():
        return np.stack([f.data for f in nlg_features(m, frame)])


def _attend(m: NlgModel, F: Tensor, h: Tensor) -> Tensor:
    weights = T.softmax(T.scale(T.matmul(F, h), m.scale))
    return T.matmul(weights, F)


def nlg_forcing_graph(m: NlgModel, frame: SemanticFrame, utt: Utterance,
                      tf_ratio: float = 1.0,
                      rng: np.random.Generator | None = None) -> list[Tensor]:
    """Teacher-forced log-probs for every token of ``utt`` plus EOS."""
    F = T.stack(nlg_features(m, frame))
    h = T.mean_rows(F)
    prev = BOS
    steps: list[Tensor] = []
    for tok in list(utt.tokens) + [EOS]:
        ctx = _attend(m, F, h)
        x = T.concat([ctx, T.row(m.word_emb, prev)])
        h = m.cell.step(x, h)
        lp = T.log_softmax(T.add(T.matmul(m.out_w, h), m.out_b))
        steps.append(T.pick(lp, tok))
        feed = tok
        if rng is not None and tf_ratio < 1.0 and rng.random() >= tf_ratio:
            feed = int(np.argmax(lp.data))
        prev = feed
    return steps


def nlg_score(m: NlgModel, frame: SemanticFrame, utt: Utterance) -> ScoreBreakdown:
    with T.no_grad():
        steps = nlg_forcing_graph(m, frame, utt)
    return ScoreBreakdown(_floats(steps))


def nlg_start(m: NlgModel, features: np.ndarray) -> np.ndarray:
    if features.ndim != 2 or features.shape[0] == 0:
        raise FrameError("empty feature set")
    return features.mean(axis=0)


def nlg_step(m: NlgModel, state: np.ndarray, prev_word: int | None,
             features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One decoder step; returns (word log-distribution, attention weights, state)."""
    if features.ndim != 2 or features.shape[0] == 0:
        raise FrameError("empty feature set")
    weights = T.softmax_np(features @ state * m.scale)
    ctx = weights @ features
    prev = BOS if prev_word is None else prev_word
    x = np.concatenate([ctx, m.word_emb.data[prev]])
    h = m.cell.step_np(x, state)
    return T.log_softmax_np(m.out_w.data @ h + m.out_b.data), weights, h


# ---------------------------------------------------------------------------
# language model


class LmModel(_Model):
    kind = "lm"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        n_tok = len(self.vocabs.bpe.pieces)
        self.cell = GruCell(store, "gru", E, H)
        self.out_w = store.add("out.w", (n_tok, H))
        self.out_b = store.add("out.b", (n_tok,))


def lm_forcing_graph(m: LmModel, tokens: Sequence[int]) -> list[Tensor]:
    h = Tensor(np.zeros(m.cfg.hidden))
    prev = BOS
    steps: list[Tensor] = []
    for tok in list(tokens) + [EOS]:
        h = m.cell.step(T.row(m.word_emb, prev), h)
        lp = T.log_softmax(T.add(T.matmul(m.out_w, h), m.out_b))
        steps.append(T.pick(lp, tok))
        prev = tok
    return steps


def lm_score(m: LmModel, utt: Utterance) -> ScoreBreakdown:
    """BOS-initialized token log-probs plus the closing EOS term."""
    if not utt.tokens:
        raise FrameError("cannot score an empty utterance")
    return lm_score_tokens(m, utt.tokens)


def lm_score_tokens(m: LmModel, tokens: Sequence[int]) -> ScoreBreakdown:
    with T.no_grad():
        steps = lm_forcing_graph(m, tokens)
    return ScoreBreakdown(_floats(steps))


# ---------------------------------------------------------------------------
# masked frame model


class MaskedFrameModel(_FrameModel):
    kind = "mfm"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        self.n_labels = self.vocabs.labels.n_slot_keys + self.n_intents
        if self.n_labels == 0:
            raise FrameError("masked frame model needs a non-empty label inventory")
        super()._build(store, H, E)
        self.mask_vec = store.add("mask", (H,))
        self.layers = [
            {name: store.add(f"layer{li}.{name}", (H,) if name.endswith(".b") else (H, H))
             for name in ("q", "k", "v", "f1.w", "f1.b", "f2.w", "f2.b")}
            for li in range(2)]
        self.cls_w = store.add("cls.w", (self.n_labels, H))
        self.cls_b = store.add("cls.b", (self.n_labels,))


def mfm_logits(m: MaskedFrameModel, F: Tensor) -> Tensor:
    """Two self-attention layers with residual feed-forward, then classify."""
    X = F
    for layer in m.layers:
        Q = T.matmul(X, T.transpose(layer["q"]))
        K = T.matmul(X, T.transpose(layer["k"]))
        V = T.matmul(X, T.transpose(layer["v"]))
        A = T.softmax(T.scale(T.matmul(Q, T.transpose(K)), m.scale))
        X = T.add(X, T.matmul(A, V))
        inner = T.tanh(T.add(T.matmul(X, T.transpose(layer["f1.w"])), layer["f1.b"]))
        X = T.add(X, T.add(T.matmul(inner, T.transpose(layer["f2.w"])), layer["f2.b"]))
    return T.add(T.matmul(X, T.transpose(m.cls_w)), m.cls_b)


def _mfm_masked_logprob(m: MaskedFrameModel, feats: list[Tensor],
                        targets: list[int], pos: int) -> Tensor:
    masked = list(feats)
    masked[pos] = m.mask_vec
    logits = mfm_logits(m, T.stack(masked))
    return T.pick(T.log_softmax(T.row(logits, pos)), targets[pos])


def mfm_single_mask_score(m: MaskedFrameModel, frame: SemanticFrame, pos: int) -> float:
    with T.no_grad():
        feats, targets = mfm_features(m, frame)
        if not feats:
            raise FrameError("frame has no features to mask")
        return float(_mfm_masked_logprob(m, feats, targets, pos).data)


def masked_frame_score(m: MaskedFrameModel, frame: SemanticFrame,
                       rng: np.random.Generator) -> float:
    """Pseudo log-likelihood: three uniform mask draws (with replacement),
    summing log P(true label at the masked position | the rest)."""
    with T.no_grad():
        feats, targets = mfm_features(m, frame)
        if not feats:
            raise FrameError("frame has no features to mask")
        draws = rng.integers(0, len(feats), size=3)
        return float(sum(float(_mfm_masked_logprob(m, feats, targets, int(p)).data)
                         for p in draws))


def mfm_loss_graph(m: MaskedFrameModel, frame: SemanticFrame,
                   rng: np.random.Generator) -> Tensor:
    """Mask each feature independently with p=0.3 (redrawn while empty) and
    sum cross-entropy over the masked positions."""
    feats, targets = mfm_features(m, frame)
    if not feats:
        raise FrameError("frame has no features to mask")
    while True:
        picks = [i for i in range(len(feats)) if rng.random() < 0.3]
        if picks:
            break
    masked = list(feats)
    for i in picks:
        masked[i] = m.mask_vec
    logits = mfm_logits(m, T.stack(masked))
    losses = [T.cross_entropy(T.row(logits, i), targets[i]) for i in picks]
    return _sum_terms(losses)


# ---------------------------------------------------------------------------
# training


MODEL_CLASSES = {"nlu": NluModel, "nlg": NlgModel, "lm": LmModel,
                 "mfm": MaskedFrameModel}


@dataclass(frozen=True)
class NluSample:
    utt: Utterance
    tags: tuple[int, ...]
    intent: int | None


@dataclass(frozen=True)
class NlgSample:
    frame: SemanticFrame
    ref: Utterance


def prepare_nlu_samples(examples: Sequence[NluExample], vocabs: Vocabs) -> list[NluSample]:
    out = []
    for ex in examples:
        utt = vocabs.bpe.encode(ex.text)
        piece_tags = align_tags_to_pieces(ex.tags, utt)
        tag_ids = tuple(vocabs.labels.tag_id(t) for t in piece_tags)
        intent = vocabs.labels.intent_id(ex.intent) if ex.intent is not None else None
        out.append(NluSample(utt, tag_ids, intent))
    return out


def prepare_nlg_samples(examples: Sequence[NlgExample], vocabs: Vocabs) -> list[NlgSample]:
    return [NlgSample(ex.frame, vocabs.bpe.encode(ref))
            for ex in examples for ref in ex.refs]


def prepare_lm_samples(texts: Sequence[str], vocabs: Vocabs) -> list[Utterance]:
    return [vocabs.bpe.encode(t) for t in texts]


def _example_loss(kind: str, model, sample, tf_ratio: float,
                  rng: np.random.Generator) -> Tensor:
    if kind == "nlu":
        steps, intent_lp = nlu_forcing_graph(model, sample.utt, sample.tags,
                                             sample.intent, tf_ratio, rng)
        terms = steps + ([intent_lp] if intent_lp is not None else [])
        return T.scale(_sum_terms(terms), -1.0)
    if kind == "nlg":
        steps = nlg_forcing_graph(model, sample.frame, sample.ref, tf_ratio, rng)
        return T.scale(_sum_terms(steps), -1.0)
    if kind == "lm":
        return T.scale(_sum_terms(lm_forcing_graph(model, sample.tokens)), -1.0)
    if kind == "mfm":
        return mfm_loss_graph(model, sample, rng)
    raise ValueError(f"unknown model kind {kind!r}")


def train_model(kind: str, dataset: Sequence, config: TrainConfig, vocabs: Vocabs,
                ) -> tuple[object, list[float]]:
    """MLE training; returns the model and the mean per-example loss per epoch."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    if not dataset:
        raise ValueError("empty training dataset")
    rng = derive_rng(config.seed, "train", kind)
    model = MODEL_CLASSES[kind](config, vocabs, rng)
    state = T.AdamState(lr=config.lr)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            T.zero_grad(model.params.values())
            terms = [_example_loss(kind, model, dataset[i], config.teacher_forcing, rng)
                     for i in batch]
            loss = T.scale(_sum_terms(terms), 1.0 / len(batch))
            T.backward(loss)
            T.clip_grad_norm(model.params.values(), config.clip)
            T.adam_step(model.params, {k: p.grad for k, p in model.params.items()}, state)
            epoch_loss += float(loss.data) * len(batch)
        losses.append(epoch_loss / len(dataset))
    return model, losses


# ---------------------------------------------------------------------------
# checkpoints


def to_checkpoint(model, seed: int, extra_config: dict | None = None) -> Checkpoint:
    config = {"hidden": model.cfg.hidden, "embedding": model.cfg.embedding}
    if extra_config:
        config.update(extra_config)
    return Checkpoint(
        kind=model.kind,
        config=config,
        seed=seed,
        vocab=model.vocabs.bpe.to_dict(),
        labels=model.vocabs.labels.to_dict(),
        params={name: p.data.copy() for name, p in model.params.items()},
    )


def model_from_checkpoint(ckpt: Checkpoint):
    if ckpt.kind not in MODEL_CLASSES:
        raise CheckpointError(f"unknown model kind {ckpt.kind!r}")
    dims = [ckpt.config.get(k) if isinstance(ckpt.config, dict) else None
            for k in ("hidden", "embedding")]
    if not all(type(d) is int and d >= 1 for d in dims):
        raise CheckpointError("checkpoint config needs integer hidden and embedding sizes")
    try:
        vocabs = Vocabs(BpeModel.from_dict(ckpt.vocab), LabelVocab.from_dict(ckpt.labels))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint vocabulary or labels are malformed: {e}") from None
    cfg = ModelConfig(hidden=dims[0], embedding=dims[1])
    model = MODEL_CLASSES[ckpt.kind](cfg, vocabs, rng=None)
    expected = set(model.params)
    provided = set(ckpt.params)
    if expected != provided:
        missing = sorted(expected - provided)
        extra = sorted(provided - expected)
        raise CheckpointError(f"parameter set mismatch: missing {missing}, extra {extra}")
    for name, p in model.params.items():
        arr = ckpt.params[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}")
        p.data[...] = arr
    return model
