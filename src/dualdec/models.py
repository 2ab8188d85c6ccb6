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
share one frame-feature encoder, ``mfm_features``.

Each model's arithmetic is written once, against an ``ops`` namespace and a
name-to-parameter map: ``tensor`` with ``model.params`` for training (the
``*_forcing_graph`` functions and ``mfm_loss_graph``), or ``tensor.nd`` with
``model.arrays``, the same parameters as plain ndarrays, for the scorers and
the beam-search steps (``nlu_step``, ``nlu_intent``, ``nlg_step``). The two
give the same floats bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .data import MODEL_KINDS, Checkpoint, CheckpointError, NlgExample, NluExample
from .frames import FrameError, SemanticFrame, align_tags_to_pieces
from .tensor import Tensor, derive_rng, nd
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

    def add(self, name: str, shape: tuple[int, ...]) -> None:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        if self._rng is None:
            self.params[name] = Tensor(np.zeros(shape), requires_grad=True)
        else:
            self.params[name] = T.parameter(shape, self._rng)

    def add_gru(self, prefix: str, in_dim: int, hidden: int) -> None:
        """The parameters of the gated recurrent cell that ``_gru_step`` runs."""
        self.add(f"{prefix}.w_ih", (3 * hidden, in_dim))
        self.add(f"{prefix}.w_hh", (3 * hidden, hidden))
        self.add(f"{prefix}.b_ih", (3 * hidden,))
        self.add(f"{prefix}.b_hh", (3 * hidden,))


def _gru_step(ops, P, prefix: str, x, h):
    """One step of the gated recurrent cell ``prefix``, gates ordered (reset,
    update, candidate). ``ops`` is ``tensor`` or ``tensor.nd``, and ``P`` maps
    parameter names to Tensors or ndarrays to match; so for every step below."""
    H = h.shape[0]
    gi = ops.add(ops.matmul(P[prefix + ".w_ih"], x), P[prefix + ".b_ih"])
    gh = ops.add(ops.matmul(P[prefix + ".w_hh"], h), P[prefix + ".b_hh"])
    r = ops.sigmoid(ops.add(ops.slice1d(gi, 0, H), ops.slice1d(gh, 0, H)))
    z = ops.sigmoid(ops.add(ops.slice1d(gi, H, 2 * H), ops.slice1d(gh, H, 2 * H)))
    n = ops.tanh(ops.add(ops.slice1d(gi, 2 * H, 3 * H),
                         ops.mul(r, ops.slice1d(gh, 2 * H, 3 * H))))
    return ops.add(n, ops.mul(z, ops.sub(h, n)))


def _log_probs(ops, P, head: str, h):
    """Log-distribution of the affine output layer ``head`` on ``h``."""
    return ops.log_softmax(ops.add(ops.matmul(P[head + ".w"], h), P[head + ".b"]))


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


def _sum_terms(ts: Sequence[Tensor]) -> Tensor:
    acc = ts[0]
    for t in ts[1:]:
        acc = T.add(acc, t)
    return acc


def _teacher_forced(tf_ratio: float, rng: np.random.Generator | None) -> bool:
    """Whether training feeds the gold symbol at this step rather than the
    model's own argmax; scoring (no ``rng``) always does."""
    return rng is None or tf_ratio >= 1.0 or rng.random() < tf_ratio


# ---------------------------------------------------------------------------
# model construction


class _Model:
    """Construction shared by the four models. ``word_emb`` is always the first
    parameter; each model's ``_build`` adds the rest in checkpoint order.
    ``arrays`` maps the same names to the parameters' ndarrays; every write to
    a parameter is in place, so it stays current."""

    def __init__(self, cfg: ModelConfig, vocabs: Vocabs,
                 rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.vocabs = vocabs
        store = ParamStore(rng)
        store.add("word_emb", (len(vocabs.bpe.pieces), cfg.embedding))
        self._build(store, cfg.hidden, cfg.embedding)
        self.params = store.params
        self.arrays = {name: p.data for name, p in self.params.items()}

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
        store.add("tag_emb", (n_tags, E))
        store.add("start_tag", (E,))
        store.add_gru("gru", 2 * E, H)
        store.add("tag_proj.w", (n_tags, H))
        store.add("tag_proj.b", (n_tags,))
        if self.n_intents:
            store.add("intent_proj.w", (self.n_intents, H))
            store.add("intent_proj.b", (self.n_intents,))


def _nlu_step(ops, P, h, word: int, prev_tag: int | None):
    prev = P["start_tag"] if prev_tag is None else ops.row(P["tag_emb"], prev_tag)
    h = _gru_step(ops, P, "gru", ops.concat([ops.row(P["word_emb"], word), prev]), h)
    return _log_probs(ops, P, "tag_proj", h), h


def _nlu_forward(m: NluModel, ops, P, utt: Utterance, tags: Sequence[int],
                 intent: int | None, tf_ratio: float = 1.0,
                 rng: np.random.Generator | None = None) -> tuple[list, object]:
    if len(tags) != len(utt.tokens):
        raise FrameError(f"{len(tags)} tags for {len(utt.tokens)} tokens")
    n_tags = m.vocabs.labels.n_tags
    if any(not 0 <= t < n_tags for t in tags):
        raise FrameError(f"tag id outside inventory of size {n_tags}")
    h = ops.zeros(m.cfg.hidden)
    prev = None
    steps = []
    for tok, tag in zip(utt.tokens, tags):
        lp, h = _nlu_step(ops, P, h, tok, prev)
        steps.append(ops.pick(lp, tag))
        # only training passes an rng, and it runs on Tensors
        prev = tag if _teacher_forced(tf_ratio, rng) else int(np.argmax(lp.data))
    intent_lp = None
    if m.n_intents and intent is not None:
        if not 0 <= intent < m.n_intents:
            raise FrameError(f"intent id {intent} outside inventory of size {m.n_intents}")
        intent_lp = ops.pick(_log_probs(ops, P, "intent_proj", h), intent)
    return steps, intent_lp


def nlu_forcing_graph(m: NluModel, utt: Utterance, tags: Sequence[int],
                      intent: int | None, tf_ratio: float = 1.0,
                      rng: np.random.Generator | None = None,
                      ) -> tuple[list[Tensor], Tensor | None]:
    """Teacher-forced per-step tag log-probs and the intent log-prob."""
    return _nlu_forward(m, T, m.params, utt, tags, intent, tf_ratio, rng)


def nlu_score(m: NluModel, utt: Utterance, tags: Sequence[int],
              intent: int | None = None) -> ScoreBreakdown:
    steps, intent_lp = _nlu_forward(m, nd, m.arrays, utt, tags, intent)
    return ScoreBreakdown(tuple(map(float, steps)),
                          None if intent_lp is None else float(intent_lp))


def nlu_start(m: NluModel) -> np.ndarray:
    return np.zeros(m.cfg.hidden)


def nlu_step(m: NluModel, state: np.ndarray, word: int, prev_tag: int | None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step; returns (tag log-distribution, new state)."""
    return _nlu_step(nd, m.arrays, state, word, prev_tag)


def nlu_intent(m: NluModel, state: np.ndarray) -> np.ndarray:
    if not m.n_intents:
        raise FrameError("model has no intent inventory")
    return _log_probs(nd, m.arrays, "intent_proj", state)


# ---------------------------------------------------------------------------
# the frame-feature encoder shared by NLG and the masked frame model


class _FrameModel(_Model):
    """A model that reads frames: slot-key and intent embeddings and the pair
    encoder, in that parameter order."""

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        store.add("key_emb", (max(self.vocabs.labels.n_slot_keys, 1), E))
        if self.n_intents:
            store.add("intent_emb", (self.n_intents, H))
        store.add_gru("enc_f", E, H)
        store.add_gru("enc_b", E, H)
        store.add("feat.w", (H, 2 * H))
        store.add("feat.b", (H,))
        self.scale = 1.0 / math.sqrt(H)


def _pair_feature(m: _FrameModel, ops, P, seq: list):
    """Bidirectional recurrence over [key ; value tokens] -> one feature."""
    hf, hb = ops.zeros(m.cfg.hidden), ops.zeros(m.cfg.hidden)
    for x in seq:
        hf = _gru_step(ops, P, "enc_f", x, hf)
    for x in reversed(seq):
        hb = _gru_step(ops, P, "enc_b", x, hb)
    return ops.tanh(ops.add(ops.matmul(P["feat.w"], ops.concat([hf, hb])), P["feat.b"]))


def mfm_features(m: _FrameModel, ops, P, frame: SemanticFrame) -> tuple[list, list[int]]:
    """Per-feature encodings and their classifier targets (key or intent id):
    one pair encoding per slot, then the intent embedding."""
    labels = m.vocabs.labels
    feats = []
    targets: list[int] = []
    for key, value in frame.slots:
        try:
            key_id = labels.key_id(key)
        except KeyError:
            raise FrameError(f"slot key {key!r} outside inventory") from None
        value_ids = m.vocabs.bpe.encode_ids(" ".join(value))
        seq = [ops.row(P["key_emb"], key_id)] + [ops.row(P["word_emb"], i) for i in value_ids]
        feats.append(_pair_feature(m, ops, P, seq))
        targets.append(key_id)
    if frame.intent is not None and m.n_intents:
        iid = labels.intent_id(frame.intent)
        feats.append(ops.row(P["intent_emb"], iid))
        targets.append(labels.n_slot_keys + iid)
    return feats, targets


# ---------------------------------------------------------------------------
# NLG


class NlgModel(_FrameModel):
    kind = "nlg"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        super()._build(store, H, E)
        n_tok = len(self.vocabs.bpe.pieces)
        store.add("empty_feat", (H,))
        store.add_gru("dec", H + E, H)
        store.add("out.w", (n_tok, H))
        store.add("out.b", (n_tok,))


def _nlg_features(m: NlgModel, ops, P, frame: SemanticFrame) -> list:
    """The frame's features; the learned ``empty_feat`` when it has none."""
    return mfm_features(m, ops, P, frame)[0] or [P["empty_feat"]]


def _nlg_step(m: NlgModel, ops, P, F, h, prev_word: int):
    weights = ops.softmax(ops.scale(ops.matmul(F, h), m.scale))
    x = ops.concat([ops.matmul(weights, F), ops.row(P["word_emb"], prev_word)])
    h = _gru_step(ops, P, "dec", x, h)
    return _log_probs(ops, P, "out", h), weights, h


def _nlg_forward(m: NlgModel, ops, P, frame: SemanticFrame, utt: Utterance,
                 tf_ratio: float = 1.0, rng: np.random.Generator | None = None) -> list:
    F = ops.stack(_nlg_features(m, ops, P, frame))
    h = ops.mean_rows(F)
    prev = BOS
    steps = []
    for tok in list(utt.tokens) + [EOS]:
        lp, _, h = _nlg_step(m, ops, P, F, h, prev)
        steps.append(ops.pick(lp, tok))
        # only training passes an rng, and it runs on Tensors
        prev = tok if _teacher_forced(tf_ratio, rng) else int(np.argmax(lp.data))
    return steps


def nlg_forcing_graph(m: NlgModel, frame: SemanticFrame, utt: Utterance,
                      tf_ratio: float = 1.0,
                      rng: np.random.Generator | None = None) -> list[Tensor]:
    """Teacher-forced log-probs for every token of ``utt`` plus EOS."""
    return _nlg_forward(m, T, m.params, frame, utt, tf_ratio, rng)


def nlg_score(m: NlgModel, frame: SemanticFrame, utt: Utterance) -> ScoreBreakdown:
    return ScoreBreakdown(tuple(map(float, _nlg_forward(m, nd, m.arrays, frame, utt))))


def nlg_features_np(m: NlgModel, frame: SemanticFrame) -> np.ndarray:
    """The frame's features as a (k, hidden) array, the input of ``nlg_step``."""
    return np.stack(_nlg_features(m, nd, m.arrays, frame))


def nlg_start(m: NlgModel, features: np.ndarray) -> np.ndarray:
    if features.ndim != 2 or features.shape[0] == 0:
        raise FrameError("empty feature set")
    return features.mean(axis=0)


def nlg_step(m: NlgModel, state: np.ndarray, prev_word: int | None,
             features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One decoder step; returns (word log-distribution, attention weights, state)."""
    if features.ndim != 2 or features.shape[0] == 0:
        raise FrameError("empty feature set")
    return _nlg_step(m, nd, m.arrays, features, state,
                     BOS if prev_word is None else prev_word)


# ---------------------------------------------------------------------------
# language model


class LmModel(_Model):
    kind = "lm"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        n_tok = len(self.vocabs.bpe.pieces)
        store.add_gru("gru", E, H)
        store.add("out.w", (n_tok, H))
        store.add("out.b", (n_tok,))


def _lm_forward(m: LmModel, ops, P, tokens: Sequence[int]) -> list:
    """BOS-initialized token log-probs plus the closing EOS term."""
    h = ops.zeros(m.cfg.hidden)
    prev = BOS
    steps = []
    for tok in list(tokens) + [EOS]:
        h = _gru_step(ops, P, "gru", ops.row(P["word_emb"], prev), h)
        steps.append(ops.pick(_log_probs(ops, P, "out", h), tok))
        prev = tok
    return steps


def lm_forcing_graph(m: LmModel, tokens: Sequence[int]) -> list[Tensor]:
    return _lm_forward(m, T, m.params, tokens)


def lm_score_tokens(m: LmModel, tokens: Sequence[int]) -> ScoreBreakdown:
    return ScoreBreakdown(tuple(map(float, _lm_forward(m, nd, m.arrays, tokens))))


# ---------------------------------------------------------------------------
# masked frame model


class MaskedFrameModel(_FrameModel):
    kind = "mfm"

    def _build(self, store: ParamStore, H: int, E: int) -> None:
        self.n_labels = self.vocabs.labels.n_slot_keys + self.n_intents
        if self.n_labels == 0:
            raise FrameError("masked frame model needs a non-empty label inventory")
        super()._build(store, H, E)
        store.add("mask", (H,))
        for li in range(2):
            for name in ("q", "k", "v", "f1.w", "f1.b", "f2.w", "f2.b"):
                store.add(f"layer{li}.{name}", (H,) if name.endswith(".b") else (H, H))
        store.add("cls.w", (self.n_labels, H))
        store.add("cls.b", (self.n_labels,))


def mfm_logits(m: MaskedFrameModel, ops, P, X):
    """Two self-attention layers with residual feed-forward, then classify."""
    for layer in ("layer0.", "layer1."):
        Q = ops.matmul(X, ops.transpose(P[layer + "q"]))
        K = ops.matmul(X, ops.transpose(P[layer + "k"]))
        V = ops.matmul(X, ops.transpose(P[layer + "v"]))
        A = ops.softmax(ops.scale(ops.matmul(Q, ops.transpose(K)), m.scale))
        X = ops.add(X, ops.matmul(A, V))
        inner = ops.tanh(ops.add(ops.matmul(X, ops.transpose(P[layer + "f1.w"])),
                                 P[layer + "f1.b"]))
        X = ops.add(X, ops.add(ops.matmul(inner, ops.transpose(P[layer + "f2.w"])),
                               P[layer + "f2.b"]))
    return ops.add(ops.matmul(X, ops.transpose(P["cls.w"])), P["cls.b"])


def _masked_logits(m: MaskedFrameModel, ops, P, feats: list, picks: Sequence[int]):
    masked = list(feats)
    for i in picks:
        masked[i] = P["mask"]
    return mfm_logits(m, ops, P, ops.stack(masked))


def masked_frame_score(m: MaskedFrameModel, frame: SemanticFrame,
                       rng: np.random.Generator) -> float:
    """Pseudo log-likelihood: three uniform mask draws (with replacement),
    summing log P(true label at the masked position | the rest)."""
    feats, targets = mfm_features(m, nd, m.arrays, frame)
    if not feats:
        raise FrameError("frame has no features to mask")
    total = 0.0
    for pos in rng.integers(0, len(feats), size=3):
        logits = _masked_logits(m, nd, m.arrays, feats, [pos])
        total += float(nd.log_softmax(logits[pos])[targets[pos]])
    return total


def mfm_loss_graph(m: MaskedFrameModel, frame: SemanticFrame,
                   rng: np.random.Generator) -> Tensor:
    """Mask each feature independently with p=0.3 (redrawn while empty) and
    sum cross-entropy over the masked positions."""
    feats, targets = mfm_features(m, T, m.params, frame)
    if not feats:
        raise FrameError("frame has no features to mask")
    while True:
        picks = [i for i in range(len(feats)) if rng.random() < 0.3]
        if picks:
            break
    logits = _masked_logits(m, T, m.params, feats, picks)
    return _sum_terms([T.cross_entropy(T.row(logits, i), targets[i]) for i in picks])


# ---------------------------------------------------------------------------
# training


MODEL_CLASSES = dict(zip(MODEL_KINDS, (NluModel, NlgModel, LmModel, MaskedFrameModel)))
assert all(cls.kind == kind for kind, cls in MODEL_CLASSES.items())


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
