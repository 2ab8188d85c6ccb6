"""Semantic frames, IOB tag sequences, and the conversions between them.

A frame pairs an optional intent with ordered, unique slot-key/value entries.
``iob_to_frame`` collapses B/I runs into slot values; ``frame_to_iob`` finds
each value in an utterance (longest value first, leftmost span, never
overlapping an already claimed token) and tags the span. Value matching
falls back from exact token equality to lowercased equality to a shared
prefix of at least four characters, and the report records which rule fired.
Each rule implies that the two words share a stem key (the first
``STEM_PREFIX`` characters of the lowercased word), so ``frame_to_iob`` looks
up a value's candidate starts in a stem-key index of the utterance and tries
the rules there only; it tags and reports exactly what a scan of every start
would.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .textproc import MARKER, Utterance

STEM_PREFIX = 4


class FrameError(ValueError):
    """Structurally invalid frame or tag sequence."""


@dataclass(frozen=True)
class SemanticFrame:
    intent: str | None
    slots: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        keys = [k for k, _ in self.slots]
        if len(set(keys)) != len(keys):
            raise FrameError(f"duplicate slot keys in frame: {keys}")
        for k, v in self.slots:
            if not v:
                raise FrameError(f"empty value for slot {k!r}")

    @classmethod
    def build(cls, intent: str | None, slots: Sequence[tuple[str, str | Sequence[str]]]) -> "SemanticFrame":
        norm = []
        for k, v in slots:
            words = tuple((v if isinstance(v, str) else " ".join(v)).split())
            norm.append((k, words))
        return cls(intent, tuple(norm))

    @property
    def n_features(self) -> int:
        return len(self.slots) + (1 if self.intent is not None else 0)


def format_frame(frame: SemanticFrame) -> str:
    """Log form: ``intent[v], key[value], ...``."""
    parts = []
    if frame.intent is not None:
        parts.append(f"intent[{frame.intent}]")
    parts += [f"{k}[{' '.join(v)}]" for k, v in frame.slots]
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# IOB sequences

IOBSequence = list[str]


def split_tag(tag: str) -> tuple[str, str | None]:
    if tag == "O":
        return "O", None
    if tag.startswith("B-") or tag.startswith("I-"):
        return tag[0], tag[2:]
    raise FrameError(f"unknown tag {tag!r}")


def repair_iob(tags: Sequence[str]) -> IOBSequence:
    """Rewrite a leading or key-switching I-k to B-k."""
    out: IOBSequence = []
    prev_key = None
    for tag in tags:
        prefix, key = split_tag(tag)
        if prefix == "I" and key != prev_key:
            tag = f"B-{key}"
        out.append(tag)
        prev_key = key if prefix in ("B", "I") else None
    return out


def iob_spans(tags: Sequence[str]) -> list[tuple[int, int, str]]:
    """Half-open (start, end, key) spans of a repaired tag sequence."""
    spans: list[tuple[int, int, str]] = []
    start, cur = None, None
    for i, tag in enumerate(repair_iob(tags)):
        prefix, key = split_tag(tag)
        if prefix == "B":
            if cur is not None:
                spans.append((start, i, cur))
            start, cur = i, key
        elif prefix == "O" and cur is not None:
            spans.append((start, i, cur))
            start, cur = None, None
    if cur is not None:
        spans.append((start, len(tags), cur))
    return spans


def iob_to_frame(tags: Sequence[str], intent: str | None, utt: Utterance) -> SemanticFrame:
    """Aggregate B/I runs into slot values; a later run of the same key wins."""
    if len(tags) != len(utt.tokens):
        raise FrameError(f"{len(tags)} tags for {len(utt.tokens)} tokens")
    words = _token_words(utt)
    slots: dict[str, tuple[str, ...]] = {}
    for start, end, key in iob_spans(tags):
        value = tuple(" ".join(words[start:end]).split())
        if value:
            slots[key] = value
    return SemanticFrame(intent, tuple(slots.items()))


@dataclass
class MatchReport:
    """Which matching rule fired per slot key, and which keys never matched."""

    matched: dict[str, str] = field(default_factory=dict)
    unmatched: list[str] = field(default_factory=list)

    @property
    def unmatched_fraction(self) -> float:
        total = len(self.matched) + len(self.unmatched)
        return len(self.unmatched) / total if total else 0.0


def _token_words(utt: Utterance) -> list[str]:
    return [p.replace(MARKER, "") for p in utt.pieces]


def _token_matches(token: str, target: str, rule: str) -> bool:
    """Whether ``token`` matches ``target`` under ``rule``; the "lower" and
    "stem" rules are given both words lowercased."""
    if token == target:
        return True
    if rule != "stem":
        return False
    # stem: a shared prefix of at least STEM_PREFIX characters
    n = min(len(token), len(target))
    return n >= STEM_PREFIX and token[:n] == target[:n]


def _first_match(value: Sequence[str], low_value: list[str], words: list[str],
                 lowered: list[str], free: list[int]) -> tuple[int, str] | None:
    """``(start, rule)`` of the first rule, and under it the first start in
    ``free``, at which ``value`` matches the words; None when none does."""
    for rule, tokens, targets in (("exact", words, value), ("lower", lowered, low_value),
                                  ("stem", lowered, low_value)):
        for start in free:
            if all(_token_matches(tokens[start + k], t, rule) for k, t in enumerate(targets)):
                return start, rule
    return None


def align_tags_to_pieces(word_tags: Sequence[str], utt: Utterance) -> IOBSequence:
    """Expand word-level tags onto a subword utterance.

    The first piece of a word keeps the word's tag; continuation pieces of a
    B-k or I-k word become I-k, continuation pieces of an O word stay O.
    """
    spans = utt.word_spans()
    if len(word_tags) != len(spans):
        raise FrameError(f"{len(word_tags)} word tags for {len(spans)} words")
    out: IOBSequence = []
    for tag, (start, end) in zip(word_tags, spans):
        prefix, key = split_tag(tag)
        out.append(tag)
        rest = tag if prefix == "O" else f"I-{key}"
        out.extend([rest] * (end - start - 1))
    return out


def collapse_piece_tags(piece_tags: Sequence[str], utt: Utterance) -> IOBSequence:
    """Word-level tags from subword tags: each word takes its first piece's tag."""
    if len(piece_tags) != len(utt.tokens):
        raise FrameError(f"{len(piece_tags)} tags for {len(utt.tokens)} pieces")
    return repair_iob([piece_tags[start] for start, _ in utt.word_spans()])


def frame_to_iob(frame: SemanticFrame, utt: Utterance) -> tuple[IOBSequence, MatchReport]:
    """Tag each slot value's span in ``utt``; unmatched values are reported.

    Values are placed longest first (ties keep frame order), each at the
    leftmost span of still-unclaimed tokens. The rule chain is tried one
    level at a time: all-exact, then all-lowercase, then stem. A value's
    candidate starts are the unclaimed spans whose first word shares the stem
    key of the value's first word, read from an index built once per
    utterance; every rule implies equal stem keys, so the tags and the report
    equal those of trying every start.
    """
    words = _token_words(utt)
    lowered = [w.lower() for w in words]
    starts: dict[str, list[int]] = {}
    for i, w in enumerate(lowered):
        starts.setdefault(w[:STEM_PREFIX], []).append(i)
    tags: IOBSequence = ["O"] * len(words)
    claimed = [False] * len(words)
    report = MatchReport()

    order = sorted(range(len(frame.slots)), key=lambda i: -len(frame.slots[i][1]))
    for i in order:
        key, value = frame.slots[i]
        n = len(value)
        low_value = [v.lower() for v in value]
        free = [s for s in starts.get(low_value[0][:STEM_PREFIX], ())
                if s + n <= len(words) and not any(claimed[s:s + n])]
        match = _first_match(value, low_value, words, lowered, free)
        if match is None:
            report.unmatched.append(key)
            continue
        start, rule = match
        report.matched[key] = rule
        for j in range(start, start + n):
            claimed[j] = True
            tags[j] = ("B-" if j == start else "I-") + key
    return tags, report
