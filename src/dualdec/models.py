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

All four build on one constructor (config, vocabularies, and parameters
added in checkpoint order, the word embedding first), and NLG and the masked
frame model share one frame-feature encoder, ``_frame_rows``: one frame
lookup (``_frame_labels``) and one pair encoder (``_pair_inputs``,
``_pair_feature``), with the pair encodings of all the frames' slots
stacked by value length. ``nlg_frame_features`` is the one routine that
gives ``nlg_step`` its features, for one frame or a split's.

Each model's arithmetic is written once, against an ``ops`` namespace and a
name-to-parameter map: ``tensor`` with ``model.params`` for training, or
``tensor.nd`` with ``model.arrays``, the same parameters as plain ndarrays,
for the scorers and the beam-search steps (``nlu_step``, ``nlu_intent``,
``nlg_step``). Either way a state may be a stack of rows, and every row gets
the floats it would get alone. On ``tensor`` a gated recurrent step
(``_gru_step``) is three graph nodes, two ``linear`` and one ``gru_gates``,
and each affine layer is one ``linear``.

So is each loss: ``_nlu_losses``, ``_nlg_losses``, ``_lm_losses`` and
``_mfm_losses`` give each example's -log P in order (the masked frame
model's, each masked copy's). Training runs them on ``tensor`` as one graph
per batch (``nlu_forcing_graph``, ``nlg_forcing_graph``, ``lm_forcing_graph``,
``mfm_loss_graph``), and the scorers (``nlu_score``, ``nlg_score``,
``lm_score_tokens``, ``masked_frame_score``, which adds its three copies)
on ``nd``, returning minus the losses as one float per row. One stacking
plan, ``_stacks``, serves them all: rows are grouped (by whether they score
an intent for NLU, by feature count for frames), run
longest first in stacks of at most ``STACK_ROWS`` rows, and a row that has
ended drops out (``ops.head``), so rows of any length share one stack. The
random draws of training (teacher forcing, MFM masks) are made per example,
in batch order, before the forward. The loss and every gradient are bit for
bit those of one graph per example added in batch order (``tensor`` explains
how), and a scorer's floats those of a one-row call.

The scorers but ``masked_frame_score``, whose rows' mask draws differ,
score each distinct row once (``_distinct_scores``): the loss routine runs
on the first row of each key (tokens, tags and intent for NLU; frame and
tokens for NLG; the tokens for the LM), in order of first appearance, so the
first invalid row still raises, and its value goes to every row with that
key. Candidates of one beam share prefixes too, so on ``nd`` the LM and
tagger forwards step each distinct prefix among a stack's running rows once
(``_Prefixes``: the inputs so far, for the tagger its tokens and previous
tags) and give its state and log-probs to every row that shares it; on
``tensor`` every row keeps its own path, so training graphs are unchanged.
``masked_frame_score`` scores each distinct (frame, masked feature) copy
once and adds each frame's three draws in draw order; it alone scores a
frame without features, 0.0 with no draw. Every row keeps the floats of its
one-row call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class NluSample:
    utt: Utterance
    tags: tuple[int, ...]
    intent: int | None


@dataclass(frozen=True)
class NlgSample:
    frame: SemanticFrame
    ref: Utterance


def _gru_step(ops, P, prefix: str, x, h):
    """One step of the gated recurrent cell ``prefix``, gates ordered (reset,
    update, candidate). ``ops`` is ``tensor`` or ``tensor.nd``, and ``P`` maps
    parameter names to Tensors or ndarrays to match; so for every step below.

    The state product stays a node of its own: ``h`` gets its gradient terms
    one at a time, in the order the node-by-node graph added them (in the NLG
    decoder, the attention's term comes before this product's)."""
    return ops.gru_gates(ops.linear(P[prefix + ".w_ih"], x, P[prefix + ".b_ih"]),
                         ops.linear(P[prefix + ".w_hh"], h, P[prefix + ".b_hh"]), h)


def _log_probs(ops, P, head: str, h):
    """Log-distribution of the affine output layer ``head`` on ``h``."""
    return ops.log_softmax(ops.linear(P[head + ".w"], h, P[head + ".b"]))


# the most rows one stack holds, so a split-wide scorer call keeps its arrays small
STACK_ROWS = 64


def _stacks(keys: Sequence, lengths: Sequence[int]) -> list[list[int]]:
    """Row indices grouped by key, groups in order of first appearance; each
    group longest first (ties in input order) and cut into stacks of at most
    ``STACK_ROWS`` rows, so the rows still running at any step of a stack
    are a prefix of it."""
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = []
    for group in groups.values():
        group.sort(key=lambda i: -lengths[i])
        out += [group[s:s + STACK_ROWS] for s in range(0, len(group), STACK_ROWS)]
    return out


def _steps(seqs: Sequence[Sequence]) -> list[np.ndarray]:
    """Sequences, longest first, as one array per step of the entries of the
    rows still running, which are a prefix of the rows."""
    return [np.array([s[t] for s in seqs if len(s) > t]) for t in range(len(seqs[0]))]


def _losses(ops, stacks: Sequence[tuple[list[int], object]], n: int):
    """The losses of ``n`` examples in order, from stacks of per-row
    log-probabilities of groups of them (their indices, each stack's rows)."""
    if not stacks:
        return np.zeros(0)  # a scorer called with no rows
    where = np.empty(n, dtype=np.intp)
    o = 0
    for rows, _ in stacks:
        where[rows] = o + np.arange(len(rows))
        o += len(rows)
    return ops.scale(ops.stack([t for _, t in stacks], where), -1.0)


def _first_places(keys: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first row of each distinct key, in order of first
    appearance, and each row's key's place among those firsts."""
    seen: dict[object, int] = {}  # each distinct key's place among the firsts
    first, place = [], []
    for i, key in enumerate(keys):
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        place.append(seen[key])
    return np.array(first, dtype=np.intp), np.array(place, dtype=np.intp)


class _Prefixes:
    """Which running rows of a stack share their state so far. On ``nd`` two
    rows share it when their initial states are equal bit for bit and they
    have read the same inputs, so a forward steps each distinct prefix once:
    ``read`` extends the prefixes by a step's inputs, ``firsts`` takes the
    first running row of each distinct prefix from a stack (None stays
    None), and ``spread`` and ``pick`` give every running row its prefix's
    row, C-contiguous. On ``tensor`` all three return the stack as it is, so
    every row keeps its own path and its own gradient terms."""

    def __init__(self, ops, h):
        self.place = None
        if ops is nd:
            self.first, self.place = _first_places(row.tobytes() for row in h)

    def read(self, *ids: np.ndarray | None) -> None:
        """Extend each running row's prefix by its entry of each of ``ids``
        (one array per input, one id per running row; None for an input
        that no row reads at this step)."""
        if self.place is not None:
            self.first, self.place = _first_places(zip(
                self.place[:len(ids[0])].tolist(), *(i.tolist() for i in ids if i is not None)))

    def firsts(self, x):
        return x if self.place is None or x is None else x[self.first]

    def spread(self, x):
        return x if self.place is None else x[self.place]

    def pick(self, ops, lp, i):
        """``ops.pick(self.spread(lp), i)``, gathering only the picked entries."""
        return ops.pick(lp, i) if self.place is None else lp[self.place, i]


def _distinct_scores(losses, m, rows: Sequence, keys: Sequence) -> list[float]:
    """Minus the loss routine ``losses`` of ``m`` on ``nd``, as one float per
    row, each key scored once: ``losses`` runs on the first row of each key,
    in order of first appearance (so the first invalid row raises), and its
    value goes to every row with that key. A row's floats do not depend on
    the other rows of its stack, so they are its one-row call's."""
    first, place = _first_places(keys)
    return (-losses(m, nd, m.arrays, [rows[i] for i in first.tolist()])[place]).tolist()


# ---------------------------------------------------------------------------
# model construction


class _Model:
    """Construction shared by the four models. ``word_emb`` is always the first
    parameter; each model's ``_build`` adds the rest in checkpoint order.
    ``arrays`` maps the same names to the parameters' ndarrays; every write to
    a parameter is in place, so it stays current."""

    def __init__(self, cfg: ModelConfig, vocabs: Vocabs,
                 rng: np.random.Generator | None = None,
                 source: Mapping[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.vocabs = vocabs
        self.params: dict[str, Tensor] = {}
        self._rng, self._source = rng, source
        self.add("word_emb", (len(vocabs.bpe.pieces), cfg.embedding))
        self._build(cfg.hidden, cfg.embedding)
        del self._rng, self._source  # a model keeps no reference to its checkpoint
        self.arrays = {name: p.data for name, p in self.params.items()}

    def _build(self, H: int, E: int) -> None:
        raise NotImplementedError

    def add(self, name: str, shape: tuple[int, ...]) -> None:
        """Add parameter ``name``, drawn from ``rng`` or copied from
        ``source``, a checkpoint's name-to-array map, once its shape is
        checked. So a checkpoint whose config sizes disagree with its arrays
        fails before anything of the config's sizes is allocated."""
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        if self._source is None:
            self.params[name] = T.parameter(shape, self._rng)
            return
        if name not in self._source:
            raise CheckpointError(f"checkpoint lacks parameter {name!r}")
        arr = self._source[name]
        if arr.shape != shape:
            raise CheckpointError(f"shape mismatch for {name!r}: {arr.shape} vs {shape}")
        self.params[name] = Tensor(np.array(arr, dtype=np.float64), requires_grad=True)

    def add_gru(self, prefix: str, in_dim: int, hidden: int) -> None:
        """The parameters of the gated recurrent cell that ``_gru_step`` runs."""
        self.add(f"{prefix}.w_ih", (3 * hidden, in_dim))
        self.add(f"{prefix}.w_hh", (3 * hidden, hidden))
        self.add(f"{prefix}.b_ih", (3 * hidden,))
        self.add(f"{prefix}.b_hh", (3 * hidden,))

    @property
    def n_intents(self) -> int:
        return self.vocabs.labels.n_intents


# ---------------------------------------------------------------------------
# NLU


class NluModel(_Model):
    kind = "nlu"

    def _build(self, H: int, E: int) -> None:
        n_tags = self.vocabs.labels.n_tags
        self.add("tag_emb", (n_tags, E))
        self.add("start_tag", (E,))
        self.add_gru("gru", 2 * E, H)
        self.add("tag_proj.w", (n_tags, H))
        self.add("tag_proj.b", (n_tags,))
        if self.n_intents:
            self.add("intent_proj.w", (self.n_intents, H))
            self.add("intent_proj.b", (self.n_intents,))


def _nlu_step(ops, P, h, word: int, prev_tag: int | None):
    prev = P["start_tag"] if prev_tag is None else ops.row(P["tag_emb"], prev_tag, h)
    h = _gru_step(ops, P, "gru", ops.concat([ops.row(P["word_emb"], word, h), prev]), h)
    return _log_probs(ops, P, "tag_proj", h), h


def _check_nlu_row(m: NluModel, utt: Utterance, tags: Sequence[int],
                   intent: int | None) -> None:
    if len(tags) != len(utt.tokens):
        raise FrameError(f"{len(tags)} tags for {len(utt.tokens)} tokens")
    n_tags = m.vocabs.labels.n_tags
    if any(not 0 <= t < n_tags for t in tags):
        raise FrameError(f"tag id outside inventory of size {n_tags}")
    if m.n_intents and intent is not None and not 0 <= intent < m.n_intents:
        raise FrameError(f"intent id {intent} outside inventory of size {m.n_intents}")


def _nlu_forward(m: NluModel, ops, P, tokens: Sequence, tags: Sequence, intent, h,
                 forced: Sequence | None = None) -> tuple[list, object]:
    """Per-step log-probs of ``tags`` over the input ids ``tokens``, and the
    intent log-probs (None if none are scored), of a stack of rows with
    initial states ``h``. Each step's tokens and tags hold one id per row
    still running, a prefix of the rows; ``intent`` one id per row.
    ``forced`` (training only) holds per step whether each row is fed its
    gold tag rather than the model's own argmax. On ``nd`` each distinct
    prefix of tokens and previous tags is stepped once (``_Prefixes``)."""
    states = [h]
    prev = None
    steps = []
    shared = _Prefixes(ops, h)
    for t, (tok, tag) in enumerate(zip(tokens, tags)):
        h = ops.head(h, len(tok))
        prev_tag = None if prev is None else prev[:len(tok)]
        shared.read(tok, prev_tag)
        lp, h = _nlu_step(ops, P, *map(shared.firsts, (h, tok, prev_tag)))
        h = shared.spread(h)
        states.append(h)
        steps.append(shared.pick(ops, lp, tag))
        prev = tag if forced is None else np.where(
            forced[t], tag, np.argmax(shared.spread(lp).data, axis=-1))
    intent_lp = None
    if m.n_intents and intent is not None:
        intent_lp = ops.pick(_log_probs(ops, P, "intent_proj", ops.last_rows(states)), intent)
    return steps, intent_lp


def _nlu_losses(m: NluModel, ops, P, samples: Sequence[NluSample],
                forced: Sequence | None = None):
    """The loss -log P(tags, intent | utt) of each sample, in order: the
    samples that score an intent and those that do not stack apart.
    ``forced`` (training only) holds per sample, per step, whether it is fed
    its gold tag (None: always)."""
    for s in samples:
        _check_nlu_row(m, s.utt, s.tags, s.intent)
    keys = T.example_keys(len(samples))
    scored = [bool(m.n_intents) and s.intent is not None for s in samples]
    stacks = []
    for rows in _stacks(scored, [len(s.tags) for s in samples]):
        intent = np.array([samples[i].intent for i in rows]) if scored[rows[0]] else None
        steps, intent_lp = _nlu_forward(
            m, ops, P, _steps([samples[i].utt.tokens for i in rows]),
            _steps([samples[i].tags for i in rows]), intent, ops.zeros(keys[rows], m.cfg.hidden),
            None if forced is None else _steps([forced[i] for i in rows]))
        terms = steps + ([intent_lp] if intent_lp is not None else [])
        stacks.append((rows, ops.row_sums(terms, keys[rows])))
    return _losses(ops, stacks, len(samples))


def nlu_forcing_graph(m: NluModel, samples: Sequence[NluSample],
                      forced: Sequence | None = None) -> Tensor:
    """``_nlu_losses`` as one training graph."""
    return _nlu_losses(m, T, m.params, samples, forced)


def nlu_score(m: NluModel, utts: Sequence[Utterance], tags: Sequence[Sequence[int]],
              intents: Sequence[int | None] | None = None) -> list[float]:
    """log P(tags, intent | utt) of each row: its tag log-probs, then its
    intent term; minus ``_nlu_losses`` on ``nd``."""
    intents = [None] * len(utts) if intents is None else intents
    samples = [NluSample(*row) for row in zip(utts, tags, intents, strict=True)]
    return _distinct_scores(_nlu_losses, m, samples,
                            [(s.utt.tokens, tuple(s.tags), s.intent) for s in samples])


def nlu_step(m: NluModel, state: np.ndarray, word, prev_tag,
             ) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step of a state or a stack of states; ``word`` and
    ``prev_tag`` are ids, or per-row id arrays (``prev_tag`` None before the
    first tag). Returns (tag log-distributions, new states)."""
    return _nlu_step(nd, m.arrays, state, word, prev_tag)


def nlu_intent(m: NluModel, state: np.ndarray) -> np.ndarray:
    """Intent log-distributions of a final state or a stack of them."""
    if not m.n_intents:
        raise FrameError("model has no intent inventory")
    return _log_probs(nd, m.arrays, "intent_proj", state)


# ---------------------------------------------------------------------------
# the frame-feature encoder shared by NLG and the masked frame model


class _FrameModel(_Model):
    """A model that reads frames: slot-key and intent embeddings and the pair
    encoder, in that parameter order."""

    def _build(self, H: int, E: int) -> None:
        self.add("key_emb", (max(self.vocabs.labels.n_slot_keys, 1), E))
        if self.n_intents:
            self.add("intent_emb", (self.n_intents, H))
        self.add_gru("enc_f", E, H)
        self.add_gru("enc_b", E, H)
        self.add("feat.w", (H, 2 * H))
        self.add("feat.b", (H,))
        self.scale = 1.0 / math.sqrt(H)


def _pair_feature(ops, P, seq: list, h):
    """Bidirectional recurrence over [key ; value tokens] from the zero state
    ``h`` -> one feature."""
    hf = hb = h
    for x in seq:
        hf = _gru_step(ops, P, "enc_f", x, hf)
    for x in reversed(seq):
        hb = _gru_step(ops, P, "enc_b", x, hb)
    return ops.tanh(ops.linear(P["feat.w"], ops.concat([hf, hb]), P["feat.b"]))


def _frame_labels(m: _FrameModel, frame: SemanticFrame) -> list[tuple[int, tuple | None]]:
    """Each feature of ``frame`` as (classifier target, value words): one per
    slot, whose target is its key id, then the intent, whose target is
    ``n_slot_keys`` plus its intent id and whose value is None. A slot key or
    intent outside the inventory is refused, also when it holds no intents."""
    labels = m.vocabs.labels
    out: list[tuple[int, tuple | None]] = []
    for key, value in frame.slots:
        try:
            out.append((labels.key_id(key), value))
        except KeyError:
            raise FrameError(f"slot key {key!r} outside inventory") from None
    if frame.intent is not None:
        try:
            out.append((labels.n_slot_keys + labels.intent_id(frame.intent), None))
        except KeyError:
            raise FrameError(f"intent {frame.intent!r} outside inventory") from None
    return out


def _pair_inputs(ops, P, key_id, value_ids: Iterable, like=None) -> list:
    """The pair encoder's inputs: the key's embedding, then each value
    token's. Ids are one per pair, or one per row of the stack ``like``."""
    return ([ops.row(P["key_emb"], key_id, like)]
            + [ops.row(P["word_emb"], i, like) for i in value_ids])


def _frame_rows(m: _FrameModel, ops, P, frames: Sequence[SemanticFrame], keys: np.ndarray,
                fill, masked: Sequence[Sequence[int]] | None = None,
                ) -> tuple[list, list[list[int]], list[list[int]]]:
    """The features of ``frames`` (with example keys ``keys``) as rows for
    ``ops.stack``: the parts are the pair encodings of all the frames' slots,
    stacked by value length (``_stacks``), then the intent embeddings, then
    ``fill``, which stands for the features in ``masked`` (never encoded) and
    for the lone feature of a frame without any. Returns the parts, and per
    frame its features' places in the parts' rows and their classifier
    targets (``_frame_labels``). A row's key is its example's, plus 1 + its
    feature position. Each distinct value is BPE-encoded once; on ``nd`` each
    distinct (slot key, value) pair is encoded once and its row serves every
    frame that holds it, while on ``tensor`` every pair has its own row and
    key, so each example's gradient terms stay its own."""
    n_keys = m.vocabs.labels.n_slot_keys
    pairs: list[tuple[int, int, tuple]] = []
    pair_at: dict[object, int] = {}  # each encoded pair's place in ``pairs``
    encoded: dict[tuple, tuple] = {}  # each value's BPE ids
    intents: list[tuple[int, int]] = []
    spots, targets = [], []
    for i, (frame, base) in enumerate(zip(frames, keys.tolist())):
        drop = () if masked is None else masked[i]
        labels = _frame_labels(m, frame)
        spot = []
        for j, (target, value) in enumerate(labels):
            key = base + 1 + j
            if j in drop:
                spot.append(None)
            elif value is None:
                spot.append(("intent", len(intents)))
                intents.append((key, target - n_keys))
            else:
                # plain arrays carry no keys, so equal pairs share one row
                pair = (target, value) if ops is nd else key
                if pair not in pair_at:
                    if value not in encoded:
                        encoded[value] = m.vocabs.bpe.encode_ids(" ".join(value))
                    pair_at[pair] = len(pairs)
                    pairs.append((key, target, encoded[value]))
                spot.append(("pair", pair_at[pair]))
        spots.append(spot)
        targets.append([target for target, _ in labels])
    parts, row = [], {}  # each encoded feature's row in the parts
    lengths = [len(ids) for _, _, ids in pairs]
    for rows in _stacks(lengths, lengths):
        h = ops.zeros(np.array([pairs[r][0] for r in rows]), m.cfg.hidden)
        seq = _pair_inputs(ops, P, np.array([pairs[r][1] for r in rows]),
                           _steps([pairs[r][2] for r in rows]), h)
        parts.append(_pair_feature(ops, P, seq, h))
        for r in rows:
            row["pair", r] = len(row)
    if intents:
        parts.append(ops.row(P["intent_emb"], np.array([iid for _, iid in intents]),
                             keys=np.array([k for k, _ in intents])))
        for r in range(len(intents)):
            row["intent", r] = len(row)
    parts.append(fill)
    places = [[len(row) if sp is None else row[sp] for sp in spot] or [len(row)]
              for spot in spots]
    return parts, places, targets


# ---------------------------------------------------------------------------
# NLG


class NlgModel(_FrameModel):
    kind = "nlg"

    def _build(self, H: int, E: int) -> None:
        super()._build(H, E)
        n_tok = len(self.vocabs.bpe.pieces)
        self.add("empty_feat", (H,))
        self.add_gru("dec", H + E, H)
        self.add("out.w", (n_tok, H))
        self.add("out.b", (n_tok,))


def _nlg_step(m: NlgModel, ops, P, F, h, prev_word: int):
    weights = ops.softmax(ops.scale(ops.matvec(F, h), m.scale))
    x = ops.concat([ops.vecmat(weights, F), ops.row(P["word_emb"], prev_word, h)])
    h = _gru_step(ops, P, "dec", x, h)
    return _log_probs(ops, P, "out", h), weights, h


def _nlg_forward(m: NlgModel, ops, P, F, tokens: Sequence,
                 forced: Sequence | None = None) -> list:
    """Per-step log-probs of the ids ``tokens`` (each row's utterance, then
    EOS) of a stack of rows with feature stacks ``F``, one per row. Each
    step's tokens hold one id per row still running, a prefix of the rows.
    ``forced`` (training only) holds per step whether each row is fed its
    gold token rather than the model's own argmax."""
    h = ops.mean_rows(F)
    prev = np.full(F.shape[0], BOS)
    steps = []
    for t, tok in enumerate(tokens):
        k = len(tok)
        lp, _, h = _nlg_step(m, ops, P, ops.head(F, k), ops.head(h, k), prev[:k])
        steps.append(ops.pick(lp, tok))
        prev = tok if forced is None else np.where(forced[t], tok, np.argmax(lp.data, axis=-1))
    return steps


def _nlg_losses(m: NlgModel, ops, P, samples: Sequence[NlgSample],
                forced: Sequence | None = None):
    """The loss -log P(ref, EOS | frame) of each sample, in order: samples
    whose frames have as many features stack together. ``forced`` (training
    only) holds per sample, per step, whether it is fed its gold token (None:
    always)."""
    keys = T.example_keys(len(samples))
    parts, places, _ = _frame_rows(m, ops, P, [s.frame for s in samples], keys, P["empty_feat"])
    targets = [[*s.ref.tokens, EOS] for s in samples]
    stacks = []
    for rows in _stacks([len(spot) for spot in places], [len(t) for t in targets]):
        F = ops.stack(parts, np.array([places[i] for i in rows]), keys[rows])
        steps = _nlg_forward(m, ops, P, F, _steps([targets[i] for i in rows]),
                             None if forced is None else _steps([forced[i] for i in rows]))
        stacks.append((rows, ops.row_sums(steps, keys[rows])))
    return _losses(ops, stacks, len(samples))


def nlg_forcing_graph(m: NlgModel, samples: Sequence[NlgSample],
                      forced: Sequence | None = None) -> Tensor:
    """``_nlg_losses`` as one training graph."""
    return _nlg_losses(m, T, m.params, samples, forced)


def nlg_score(m: NlgModel, frames: Sequence[SemanticFrame],
              utts: Sequence[Utterance]) -> list[float]:
    """log P(utt, EOS | frame) of each (frame, utt) row; minus
    ``_nlg_losses`` on ``nd``."""
    if len(frames) != len(utts):
        raise FrameError(f"{len(frames)} frames for {len(utts)} utterances")
    samples = [NlgSample(frame, utt) for frame, utt in zip(frames, utts)]
    return _distinct_scores(_nlg_losses, m, samples,
                            [(s.frame, s.ref.tokens) for s in samples])


def nlg_frame_features(m: NlgModel, frames: Sequence[SemanticFrame]) -> list[np.ndarray]:
    """Each frame's features as a C-contiguous (k, hidden) array, the input of
    ``nlg_step``; the learned ``empty_feat`` for a frame without features. All
    frames are encoded by one ``_frame_rows`` call."""
    parts, places, _ = _frame_rows(m, nd, m.arrays, frames, T.example_keys(len(frames)),
                                   m.arrays["empty_feat"])
    rows = np.concatenate([part.reshape(-1, m.cfg.hidden) for part in parts])
    return [rows[spot] for spot in places]


def nlg_step(m: NlgModel, state: np.ndarray, prev_word,
             features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One decoder step of a state or a stack of states over one frame's
    features; ``prev_word`` is an id or a per-row id array: ``BOS`` at the
    first step, whose state is the mean of the features. Returns (word
    log-distributions, attention weights, states)."""
    if features.ndim != 2 or features.shape[0] == 0:
        raise FrameError("empty feature set")
    return _nlg_step(m, nd, m.arrays, features, state, prev_word)


# ---------------------------------------------------------------------------
# language model


class LmModel(_Model):
    kind = "lm"

    def _build(self, H: int, E: int) -> None:
        n_tok = len(self.vocabs.bpe.pieces)
        self.add_gru("gru", E, H)
        self.add("out.w", (n_tok, H))
        self.add("out.b", (n_tok,))


def _lm_forward(m: LmModel, ops, P, inputs: Sequence, tokens: Sequence, h) -> list:
    """Per-step log-probs of the ids ``tokens`` (each row's sentence, then
    EOS) after the ids ``inputs`` (BOS, then the sentence), of a stack of
    rows with initial states ``h``. Each step's ids hold one per row still
    running, a prefix of the rows. On ``nd`` each distinct prefix of inputs
    is stepped once (``_Prefixes``)."""
    steps = []
    shared = _Prefixes(ops, h)
    for prev, tok in zip(inputs, tokens):
        h = ops.head(h, len(prev))
        shared.read(prev)
        h, prev = shared.firsts(h), shared.firsts(prev)
        h = _gru_step(ops, P, "gru", ops.row(P["word_emb"], prev, h), h)
        steps.append(shared.pick(ops, _log_probs(ops, P, "out", h), tok))
        h = shared.spread(h)
    return steps


def _lm_losses(m: LmModel, ops, P, seqs: Sequence[Sequence[int]]):
    """The loss -log P(tokens, EOS) of each token sequence, in order; all
    rows stack together."""
    keys = T.example_keys(len(seqs))
    stacks = []
    for rows in _stacks([0] * len(seqs), [len(seq) for seq in seqs]):
        steps = _lm_forward(m, ops, P, _steps([[BOS, *seqs[i]] for i in rows]),
                            _steps([[*seqs[i], EOS] for i in rows]),
                            ops.zeros(keys[rows], m.cfg.hidden))
        stacks.append((rows, ops.row_sums(steps, keys[rows])))
    return _losses(ops, stacks, len(seqs))


def lm_forcing_graph(m: LmModel, samples: Sequence[Utterance]) -> Tensor:
    """``_lm_losses`` of the samples' tokens as one training graph."""
    return _lm_losses(m, T, m.params, [s.tokens for s in samples])


def lm_score_tokens(m: LmModel, tokens: Sequence[Sequence[int]]) -> list[float]:
    """log P(tokens, EOS) of each row; minus ``_lm_losses`` on ``nd``."""
    seqs = [tuple(seq) for seq in tokens]
    return _distinct_scores(_lm_losses, m, seqs, seqs)


# ---------------------------------------------------------------------------
# masked frame model


class MaskedFrameModel(_FrameModel):
    kind = "mfm"

    def _build(self, H: int, E: int) -> None:
        self.n_labels = self.vocabs.labels.n_slot_keys + self.n_intents
        if self.n_labels == 0:
            raise FrameError("masked frame model needs a non-empty label inventory")
        super()._build(H, E)
        self.add("mask", (H,))
        for li in range(2):
            for name in ("q", "k", "v", "f1.w", "f1.b", "f2.w", "f2.b"):
                self.add(f"layer{li}.{name}", (H,) if name.endswith(".b") else (H, H))
        self.add("cls.w", (self.n_labels, H))
        self.add("cls.b", (self.n_labels,))


def mfm_logits(m: MaskedFrameModel, ops, P, X):
    """Two self-attention layers with residual feed-forward, then classify."""
    for layer in ("layer0.", "layer1."):
        Q = ops.matmul_t(X, P[layer + "q"])
        K = ops.matmul_t(X, P[layer + "k"])
        V = ops.matmul_t(X, P[layer + "v"])
        A = ops.softmax(ops.scale(ops.matmul_t(Q, K), m.scale))
        X = ops.add(X, ops.matmul(A, V))
        inner = ops.tanh(ops.add(ops.matmul_t(X, P[layer + "f1.w"]), P[layer + "f1.b"]))
        X = ops.add(X, ops.add(ops.matmul_t(inner, P[layer + "f2.w"]), P[layer + "f2.b"]))
    return ops.add(ops.matmul_t(X, P["cls.w"]), P["cls.b"])


def _mfm_count(frame: SemanticFrame) -> int:
    """The number of ``_frame_labels`` of ``frame``; training needs one to mask."""
    if not frame.n_features:
        raise FrameError("frame has no features to mask")
    return frame.n_features


def _mfm_losses(m: MaskedFrameModel, ops, P, frames: Sequence[SemanticFrame],
                copies: Sequence[Sequence[Sequence[int]]]):
    """The loss of each masked copy, frame by frame and each frame's copies
    ``copies[i]`` in order: the sum, over the copy's masked features
    ascending, of -log P(true label | that copy). Frames alike in feature and
    copy counts stack, one row per copy; a feature that all copies of its
    frame mask is never encoded."""
    keys = T.example_keys(len(frames))
    parts, places, targets = _frame_rows(m, ops, P, frames, keys, P["mask"],
                                         [set(cs[0]).intersection(*cs) for cs in copies])
    fill = sum(part.shape[0] for part in parts[:-1])
    first = np.cumsum([0] + [len(cs) for cs in copies])  # each frame's first copy's place
    stacks = []
    for rows in _stacks([(len(p), len(cs)) for p, cs in zip(places, copies)], [0] * len(frames)):
        k = len(copies[rows[0]])
        stacked = [copy for i in rows for copy in copies[i]]
        at = ([r for r, copy in enumerate(stacked) for _ in copy], [j for c in stacked for j in c])
        index = np.repeat([places[i] for i in rows], k, axis=0)
        index[at] = fill
        mask = index == fill  # exactly each copy's masked features: the rest are encoded
        copy_keys = np.repeat(keys[rows], k)
        lp = ops.log_softmax(mfm_logits(m, ops, P, ops.stack(parts, index, copy_keys)))
        picked = ops.pick(lp, np.repeat([targets[i] for i in rows], k, axis=0))
        stacks.append((np.add.outer(first[rows], np.arange(k)).ravel(),
                       ops.row_sums([picked], copy_keys, mask)))
    return _losses(ops, stacks, int(first[-1]))


def masked_frame_score(m: MaskedFrameModel, frames: Sequence[SemanticFrame],
                       rngs: Sequence[np.random.Generator]) -> list[float]:
    """Pseudo log-likelihood of each frame: the log-probabilities of its true
    labels, one masked copy per uniform draw of a feature, three draws from
    its generator (with replacement), added in draw order. A frame without
    features has an empty product, log 1: it scores 0.0 and its generator is
    never drawn. Each distinct (frame, masked feature) copy is scored once,
    by minus ``_mfm_losses`` on ``nd`` over the distinct frames, each with
    its distinct draws as copies."""
    draws = [rng.integers(0, frame.n_features, size=3).tolist() if frame.n_features else None
             for frame, rng in zip(frames, rngs, strict=True)]
    copies: dict[SemanticFrame, dict[int, None]] = {}  # in order of first appearance
    for frame, js in zip(frames, draws):
        if js:
            copies.setdefault(frame, {}).update(dict.fromkeys(js))
    place = {key: p for p, key in enumerate((f, j) for f, js in copies.items() for j in js)}
    values = (-_mfm_losses(m, nd, m.arrays, list(copies),
                           [[[j] for j in js] for js in copies.values()])).tolist()
    return [0.0 if js is None else
            values[place[frame, js[0]]] + values[place[frame, js[1]]] + values[place[frame, js[2]]]
            for frame, js in zip(frames, draws)]


def mfm_loss_graph(m: MaskedFrameModel, frames: Sequence[SemanticFrame],
                   picks: Sequence[Sequence[int]]) -> Tensor:
    """``_mfm_losses`` as one training graph; frame i's one copy masks
    ``picks[i]``, so the graph holds one loss per frame."""
    return _mfm_losses(m, T, m.params, frames, [[p] for p in picks])


# ---------------------------------------------------------------------------
# training


MODEL_CLASSES = dict(zip(MODEL_KINDS, (NluModel, NlgModel, LmModel, MaskedFrameModel)))
assert all(cls.kind == kind for kind, cls in MODEL_CLASSES.items())


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


def _draws(kind: str, model, sample, tf_ratio: float, rng: np.random.Generator):
    """The random choices of one example's forward, in the order it makes
    them: per step whether teacher forcing feeds the gold symbol (NLU, NLG;
    None when it always does), or the masked features of a frame (MFM: each
    feature with p=0.3, redrawn while none is)."""
    if kind == "mfm":
        n = _mfm_count(sample)
        while True:
            picks = [i for i in range(n) if rng.random() < 0.3]
            if picks:
                return picks
    if kind == "lm" or tf_ratio >= 1.0:
        return None
    n = len(sample.tags) if kind == "nlu" else len(sample.ref.tokens) + 1
    return [rng.random() < tf_ratio for _ in range(n)]


def _batch_losses(kind: str, model, samples: Sequence, draws: Sequence) -> Tensor:
    """Each sample's loss, in order, from its kind's forcing graph."""
    if kind == "nlu":
        return nlu_forcing_graph(model, samples, None if draws[0] is None else draws)
    if kind == "nlg":
        return nlg_forcing_graph(model, samples, None if draws[0] is None else draws)
    if kind == "lm":
        return lm_forcing_graph(model, samples)
    if kind == "mfm":
        return mfm_loss_graph(model, samples, draws)
    raise ValueError(f"unknown model kind {kind!r}")


class TrainingError(ValueError):
    pass


def train_model(kind: str, dataset: Sequence, config: TrainConfig, vocabs: Vocabs,
                ) -> tuple[object, list[float]]:
    """MLE training; returns the model and the mean per-example loss per epoch.
    A non-finite batch loss or gradient norm stops it with a TrainingError
    that names the epoch and batch (both counted from 1)."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    if not dataset:
        raise ValueError("empty training dataset")
    rng = derive_rng(config.seed, "train", kind)
    model = MODEL_CLASSES[kind](config, vocabs, rng)
    state = T.AdamState(lr=config.lr)
    losses = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for n_batch, start in enumerate(range(0, len(order), config.batch_size), 1):
            samples = [dataset[i] for i in order[start:start + config.batch_size]]
            T.zero_grad(model.params.values())
            draws = [_draws(kind, model, s, config.teacher_forcing, rng) for s in samples]
            loss = T.batch_mean(_batch_losses(kind, model, samples, draws))
            batch_loss = float(loss.data)
            _check_finite(kind, "batch loss", batch_loss, epoch, n_batch)
            T.backward(loss)
            norm = T.clip_grad_norm(model.params.values(), config.clip)
            _check_finite(kind, "gradient norm", norm, epoch, n_batch)
            T.adam_step(model.params, state)
            epoch_loss += batch_loss * len(samples)
        losses.append(epoch_loss / len(dataset))
    return model, losses


def _check_finite(kind: str, what: str, value: float, epoch: int, batch: int) -> None:
    if not math.isfinite(value):
        raise TrainingError(f"{kind} training diverged: {what} is {value} "
                            f"at epoch {epoch}, batch {batch}")


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
    model = MODEL_CLASSES[ckpt.kind](cfg, vocabs, source=ckpt.params)
    extra = sorted(set(ckpt.params) - set(model.params))
    if extra:
        raise CheckpointError(f"checkpoint has unknown parameters {extra}")
    return model
