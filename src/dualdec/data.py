"""Dataset ingestion, augmentation between the two task shapes, synthetic
corpus generation, and checkpoint persistence.

Wire formats (JSON lines):
  NLU  {"text": str, "tags": [str, ...], "intent": str?}     one tag per word
  NLG  {"frame": {"intent": str?, "slots": [[key, value], ...]}, "refs": [str, ...]}

Checkpoints are a single JSON header line (metadata, shapes, inventories)
followed by the little-endian float64 parameter payload in header order, so
save -> load -> save is byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .frames import SemanticFrame, frame_to_iob, iob_to_frame, split_tag
from .tensor import derive_rng
from .textproc import LabelVocab, Vocabs, bpe_train, check_plain

CHECKPOINT_VERSION = 1
MODEL_KINDS = ("nlu", "nlg", "lm", "mfm")


class DataError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class NluExample:
    text: str
    tags: tuple[str, ...]
    intent: str | None = None

    def __post_init__(self):
        if len(self.text.split()) != len(self.tags):
            raise DataError(
                f"{len(self.tags)} tags for {len(self.text.split())} words: {self.text!r}")


@dataclass(frozen=True)
class NlgExample:
    frame: SemanticFrame
    refs: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.refs) <= 5:
            raise DataError(f"expected 1..5 references, got {len(self.refs)}")


# ---------------------------------------------------------------------------
# JSONL loaders and savers


def _load_lines(path, parse) -> list:
    """``parse`` of each non-blank JSON line; a failure names the line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not any(ln.strip() for ln in lines):
        raise DataError(f"{path}: empty dataset file")
    out = []
    for no, ln in enumerate(lines, 1):
        if ln.strip():
            try:
                out.append(parse(json.loads(ln)))
            except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                    ValueError) as e:
                raise DataError(f"{path}:{no}: {e}") from None
    return out


def _strings(d: dict, key: str) -> tuple[str, ...]:
    value = d[key]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise DataError(f"{key!r} must be a list of strings")
    return tuple(value)


def _intent(d: dict) -> str | None:
    value = d.get("intent")
    if not (value is None or isinstance(value, str)):
        raise DataError(f"'intent' must be a string or null, not {value!r}")
    return value


def _nlu_example(d: dict) -> NluExample:
    tags = _strings(d, "tags")
    for tag in tags:
        split_tag(tag)
    return NluExample(check_plain(d["text"]), tags, _intent(d))


def load_nlu(path) -> list[NluExample]:
    return _load_lines(path, _nlu_example)


def save_nlu(path, examples: Sequence[NluExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            d = {"text": ex.text, "tags": list(ex.tags)}
            if ex.intent is not None:
                d["intent"] = ex.intent
            fh.write(json.dumps(d, sort_keys=True, ensure_ascii=False) + "\n")


def _nlg_example(d: dict) -> NlgExample:
    fd = d["frame"]
    slots = [(k, v) for k, v in fd["slots"]]
    for k, v in slots:
        if not isinstance(k, str):
            raise DataError(f"slot key must be a string, not {k!r}")
        if not (isinstance(v, str) or isinstance(v, list) and all(isinstance(w, str) for w in v)):
            raise DataError(f"value of slot {k!r} must be a string or a list of strings, not {v!r}")
        for w in [v] if isinstance(v, str) else v:
            check_plain(w)
    frame = SemanticFrame.build(_intent(fd), slots)
    return NlgExample(frame, tuple(check_plain(r) for r in _strings(d, "refs")))


def load_nlg(path) -> list[NlgExample]:
    return _load_lines(path, _nlg_example)


def save_nlg(path, examples: Sequence[NlgExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fd: dict = {}
            if ex.frame.intent is not None:
                fd["intent"] = ex.frame.intent
            fd["slots"] = [[k, " ".join(v)] for k, v in ex.frame.slots]
            fh.write(json.dumps({"frame": fd, "refs": list(ex.refs)},
                                sort_keys=True, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# augmentation


def augment_nlu_to_nlg(examples: Sequence[NluExample]) -> list[NlgExample]:
    """Tagged sentences become (frame, single-reference) generation examples."""
    out = []
    for ex in examples:
        words = ex.text.split()
        frame = iob_to_frame(ex.tags, ex.intent, words)
        out.append(NlgExample(frame, (" ".join(words),)))
    return out


def augment_nlg_to_nlu(examples: Sequence[NlgExample]) -> tuple[list[NluExample], int]:
    """Frames matched onto each reference; returns (kept, dropped_count).

    A (frame, reference) pair is dropped when more than half of the slot
    values cannot be located in the reference.
    """
    kept, dropped = [], 0
    for ex in examples:
        for ref in ex.refs:
            words = ref.split()
            tags, report = frame_to_iob(ex.frame, words)
            if report.unmatched_fraction > 0.5:
                dropped += 1
                continue
            kept.append(NluExample(" ".join(words), tuple(tags), ex.frame.intent))
    return kept, dropped


def merge_dedup(first: Sequence, second: Sequence) -> list:
    """Concatenate two example lists, dropping exact duplicates."""
    seen = set()
    out = []
    for ex in list(first) + list(second):
        if ex not in seen:
            seen.add(ex)
            out.append(ex)
    return out


# ---------------------------------------------------------------------------
# synthetic mini-domain

SYNTH_POOLS = {
    "origin": ("boston", "denver", "seattle", "austin", "chicago", "atlanta",
               "portland", "orlando"),
    "destination": ("boston", "denver", "seattle", "austin", "chicago", "atlanta",
                    "portland", "orlando"),
    "city": ("boston", "denver", "seattle", "austin", "chicago", "atlanta",
             "portland", "orlando"),
    "day": ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
            "sunday"),
    "cuisine": ("thai", "sushi", "tapas", "ramen", "pizza", "curry"),
    "artist": ("nina simone", "ella fitzgerald", "miles davis", "chet baker"),
}

# template parts: plain scaffold words or {slot_key} placeholders
SYNTH_TEMPLATES = (
    ("find_flight", "show flights from {origin} to {destination} on {day}"),
    ("find_flight", "i need a flight from {origin} to {destination}"),
    ("book_table", "book a {cuisine} table in {city} on {day}"),
    ("book_table", "find me a {cuisine} place in {city}"),
    ("play_music", "play something by {artist}"),
    ("play_music", "play {artist} for me on {day}"),
    ("weather", "what is the forecast for {city} on {day}"),
    ("weather", "how is the weather in {city}"),
)

SYNTH_INTENTS = tuple(sorted({i for i, _ in SYNTH_TEMPLATES}))
SYNTH_SLOT_KEYS = tuple(sorted(SYNTH_POOLS))


def _instantiate(template: str, intent: str, rng) -> tuple[NluExample, NlgExample]:
    words: list[str] = []
    tags: list[str] = []
    slots: list[tuple[str, tuple[str, ...]]] = []
    chosen: dict[str, str] = {}
    for part in template.split():
        if part.startswith("{"):
            key = part[1:-1]
            pool = [v for v in SYNTH_POOLS[key] if v not in chosen.values()]
            value = pool[rng.integers(0, len(pool))]
            chosen[key] = value
            vwords = value.split()
            slots.append((key, tuple(vwords)))
            for i, w in enumerate(vwords):
                words.append(w)
                tags.append(("B-" if i == 0 else "I-") + key)
        else:
            words.append(part)
            tags.append("O")
    text = " ".join(words)
    frame = SemanticFrame(intent, tuple(slots))
    return (NluExample(text, tuple(tags), intent), NlgExample(frame, (text,)))


def synth_corpus(seed: int, size: int) -> tuple[list[NluExample], list[NlgExample]]:
    """Aligned utterance/frame pairs from a small template grammar.

    Templates rotate so any size >= 8 covers every intent and slot key;
    frames are unique within one corpus when the combinatorics allow it.
    """
    rng = derive_rng(seed, "synth")
    nlu, nlg = [], []
    seen_frames = set()
    for i in range(size):
        intent, template = SYNTH_TEMPLATES[i % len(SYNTH_TEMPLATES)]
        for _ in range(64):
            ex_nlu, ex_nlg = _instantiate(template, intent, rng)
            if ex_nlg.frame not in seen_frames:
                break
        seen_frames.add(ex_nlg.frame)
        nlu.append(ex_nlu)
        nlg.append(ex_nlg)
    return nlu, nlg


def build_vocabs(nlu_examples: Sequence[NluExample],
                 nlg_examples: Sequence[NlgExample], merges: int) -> Vocabs:
    """Token and label inventories from the training split. Slot-value strings
    join the tokenizer corpus so frame features are encodable."""
    texts = [ex.text for ex in nlu_examples]
    texts += [r for ex in nlg_examples for r in ex.refs]
    texts += [" ".join(v) for ex in nlg_examples for _, v in ex.frame.slots]
    if not texts:
        raise DataError("no training text to build vocabularies from")
    bpe = bpe_train(texts, merges)
    labels = LabelVocab.collect(
        [ex.intent for ex in nlu_examples] + [ex.frame.intent for ex in nlg_examples],
        [split_tag(t)[1] for ex in nlu_examples for t in ex.tags if t != "O"]
        + [k for ex in nlg_examples for k, _ in ex.frame.slots],
    )
    return Vocabs(bpe, labels)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    kind: str
    config: dict
    seed: int
    vocab: dict
    labels: dict
    params: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION


def _require_finite(path, name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite value")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    if ckpt.kind not in MODEL_KINDS:
        raise CheckpointError(f"unknown model kind {ckpt.kind!r}")
    for name, arr in ckpt.params.items():
        _require_finite(path, name, arr)
    header = {
        "format_version": ckpt.version,
        "kind": ckpt.kind,
        "config": ckpt.config,
        "seed": ckpt.seed,
        "vocab": ckpt.vocab,
        "labels": ckpt.labels,
        "params": [[name, list(arr.shape)] for name, arr in ckpt.params.items()],
    }
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                       for arr in ckpt.params.values())
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def _is_param_entry(entry) -> bool:
    """A header ``params`` entry: [name, shape], the shape a list of sizes."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')!r}")
    if header.get("kind") not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {header.get('kind')!r}")
    missing = [k for k in ("config", "seed", "vocab", "labels", "params") if k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    if not (isinstance(header["params"], list) and all(map(_is_param_entry, header["params"]))):
        raise CheckpointError(f"{path}: header params must be [name, shape] pairs")
    payload = blob[nl + 1:]
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in header["params"]:
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload truncated at parameter {name!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
        _require_finite(path, name, arr)
        params[name] = arr.reshape([int(s) for s in shape]).copy()
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return Checkpoint(kind=header["kind"], config=header["config"], seed=header["seed"],
                      vocab=header["vocab"], labels=header["labels"], params=params,
                      version=header["format_version"])
