"""Byte-pair-encoding tokenizer and label vocabularies.

Words are whitespace-pretokenized; the final symbol of every word carries the
end-of-word suffix marker, so a flat piece sequence detokenizes back to text.
Merges are learned greedily on marker-free symbols (most frequent pair first,
lexicographically smallest pair on ties).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

MARKER = "▁"  # appended to the last piece of each word

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_PIECES = ("<pad>", "<s>", "</s>", "<unk>")

BPE_FORMAT_VERSION = 1


class BpeError(ValueError):
    """Malformed tokenizer state or input."""


@dataclass(frozen=True)
class Utterance:
    """A tokenized sentence: raw surface plus aligned ids and piece strings."""

    surface: str
    tokens: tuple[int, ...]
    pieces: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.pieces):
            raise BpeError(
                f"tokens/pieces length mismatch: {len(self.tokens)} vs {len(self.pieces)}")

    def word_spans(self) -> list[tuple[int, int]]:
        """Half-open piece index ranges, one per word."""
        spans = []
        start = 0
        for i, p in enumerate(self.pieces):
            if p.endswith(MARKER):
                spans.append((start, i + 1))
                start = i + 1
        if start < len(self.pieces):  # trailing word without marker (foreign input)
            spans.append((start, len(self.pieces)))
        return spans


def detokenize(pieces: Iterable[str]) -> str:
    return "".join(pieces).replace(MARKER, " ").strip()


def word_utterance(text: str) -> Utterance:
    """Word-level view of a sentence: one piece per whitespace word.

    Token ids are placeholders; slot matching and IOB conversion only read
    the piece surfaces.
    """
    words = text.split()
    return Utterance(
        surface=" ".join(words),
        tokens=tuple(range(len(words))),
        pieces=tuple(w + MARKER for w in words),
    )


@dataclass
class BpeModel:
    merges: list[tuple[str, str]]
    vocab: dict[str, int]
    pieces: list[str] = field(init=False)

    def __post_init__(self):
        self._rank = {tuple(m): i for i, m in enumerate(self.merges)}
        self._word_cache: dict[str, list[str]] = {}
        self.pieces = [""] * len(self.vocab)
        for piece, i in self.vocab.items():
            if not 0 <= i < len(self.vocab) or self.pieces[i]:
                raise BpeError("vocab ids must be dense and unique from 0")
            self.pieces[i] = piece
        for s_id, s_piece in zip((PAD, BOS, EOS, UNK), SPECIAL_PIECES):
            if self.pieces[s_id] != s_piece:
                raise BpeError(f"special id {s_id} must map to {s_piece!r}")
        self._check_merges_closed()

    def _check_merges_closed(self):
        buildable = {p.rstrip(MARKER) for p in self.pieces[len(SPECIAL_PIECES):] if len(p.rstrip(MARKER)) == 1}
        for a, b in self.merges:
            if (len(a) > 1 and a not in buildable) or (len(b) > 1 and b not in buildable):
                raise BpeError(f"merge ({a!r}, {b!r}) uses a symbol no earlier merge produces")
            buildable.add(a + b)

    # -- encoding -----------------------------------------------------------

    def _merge_word(self, word: str) -> list[str]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols = list(word)
        # repeatedly merging the lowest-ranked pair present is equivalent to
        # applying the merge list in order (later products never feed earlier rules)
        while len(symbols) > 1:
            best = None
            for i in range(len(symbols) - 1):
                r = self._rank.get((symbols[i], symbols[i + 1]))
                if r is not None and (best is None or r < best[0]):
                    best = (r, i)
            if best is None:
                break
            _, i = best
            symbols[i:i + 2] = [symbols[i] + symbols[i + 1]]
        self._word_cache[word] = symbols
        return symbols

    def encode(self, text: str) -> Utterance:
        """Tokenize ``text``; unknown characters become per-character UNK pieces."""
        ids: list[int] = []
        pieces: list[str] = []
        words = text.split()
        for word in words:
            symbols = self._merge_word(word)
            for j, sym in enumerate(symbols):
                final = j == len(symbols) - 1
                piece = sym + MARKER if final else sym
                tok = self.vocab.get(piece, UNK)
                ids.append(tok)
                pieces.append(piece)
        return Utterance(surface=" ".join(words), tokens=tuple(ids), pieces=tuple(pieces))

    def encode_ids(self, text: str) -> tuple[int, ...]:
        return self.encode(text).tokens

    def piece_of(self, token: int) -> str:
        if not 0 <= token < len(self.pieces):
            raise BpeError(f"unknown token id {token}")
        return self.pieces[token]

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": BPE_FORMAT_VERSION,
            "marker": MARKER,
            "specials": {"pad": PAD, "bos": BOS, "eos": EOS, "unk": UNK},
            "pieces": list(self.pieces),
            "merges": [list(m) for m in self.merges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BpeModel":
        if d.get("version") != BPE_FORMAT_VERSION:
            raise BpeError(f"unsupported tokenizer version {d.get('version')!r}")
        if d.get("marker") != MARKER:
            raise BpeError("tokenizer marker mismatch")
        vocab = {p: i for i, p in enumerate(d["pieces"])}
        return cls(merges=[tuple(m) for m in d["merges"]], vocab=vocab)


def bpe_train(corpus: Sequence[str], merge_count: int) -> BpeModel:
    """Learn ``merge_count`` merges over a whitespace-pretokenized corpus."""
    if merge_count < 0:
        raise BpeError("merge_count must be >= 0")
    word_freq: dict[tuple[str, ...], int] = {}
    chars: set[str] = set()
    for text in corpus:
        for word in text.split():
            key = tuple(word)
            word_freq[key] = word_freq.get(key, 0) + 1
            chars.update(key)
    if not word_freq:
        raise BpeError("empty corpus")

    words = {key: list(key) for key in word_freq}
    merges: list[tuple[str, str]] = []
    products: list[str] = []
    for _ in range(merge_count):
        counts: dict[tuple[str, str], int] = {}
        for key, symbols in words.items():
            f = word_freq[key]
            for i in range(len(symbols) - 1):
                pair = (symbols[i], symbols[i + 1])
                counts[pair] = counts.get(pair, 0) + f
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merges.append(best)
        products.append(best[0] + best[1])
        a, b = best
        for symbols in words.values():
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == a and symbols[i + 1] == b:
                    symbols[i:i + 2] = [a + b]
                else:
                    i += 1

    symbols = sorted(chars) + products
    vocab: dict[str, int] = {p: i for i, p in enumerate(SPECIAL_PIECES)}
    for sym in symbols:
        for form in (sym, sym + MARKER):
            if form not in vocab:
                vocab[form] = len(vocab)
    return BpeModel(merges=merges, vocab=vocab)


# ---------------------------------------------------------------------------
# label vocabularies


class LabelVocab:
    """Bijective id maps for intents, slot keys, and the derived IOB tags."""

    def __init__(self, intents: Sequence[str], slot_keys: Sequence[str]):
        if len(set(intents)) != len(intents) or len(set(slot_keys)) != len(slot_keys):
            raise ValueError("duplicate labels in inventory")
        self.intents = list(intents)
        self.slot_keys = list(slot_keys)
        self.tags = ["O"]
        for k in self.slot_keys:
            self.tags += [f"B-{k}", f"I-{k}"]
        self._intent_id = {v: i for i, v in enumerate(self.intents)}
        self._key_id = {v: i for i, v in enumerate(self.slot_keys)}
        self._tag_id = {v: i for i, v in enumerate(self.tags)}

    @classmethod
    def collect(cls, intents: Iterable[str | None], slot_keys: Iterable[str]) -> "LabelVocab":
        ints = sorted({i for i in intents if i is not None})
        keys = sorted(set(slot_keys))
        return cls(ints, keys)

    @property
    def n_intents(self) -> int:
        return len(self.intents)

    @property
    def n_slot_keys(self) -> int:
        return len(self.slot_keys)

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def intent_id(self, name: str) -> int:
        return self._intent_id[name]

    def key_id(self, name: str) -> int:
        return self._key_id[name]

    def tag_id(self, name: str) -> int:
        return self._tag_id[name]

    def to_dict(self) -> dict:
        return {"intents": list(self.intents), "slot_keys": list(self.slot_keys)}

    @classmethod
    def from_dict(cls, d: dict) -> "LabelVocab":
        return cls(d["intents"], d["slot_keys"])


@dataclass
class Vocabs:
    """Token and label inventories shared by every model of one experiment."""

    bpe: BpeModel
    labels: LabelVocab
