import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdec import textproc as tp
from dualdec.textproc import BpeModel, LabelVocab, bpe_train


def ids_to_text(model, ids):
    return tp.detokenize(model.piece_of(i) for i in ids)


def test_first_merge_counted_by_hand():
    # corpus ["aa aa", "aa"]: the word "aa" occurs 3 times, so the only pair
    # (a, a) has count 3 and must be the first merge
    model = bpe_train(["aa aa", "aa"], merge_count=1)
    assert model.merges == [("a", "a")]


def test_zero_merges_gives_character_level_vocab():
    model = bpe_train(["ab ba"], merge_count=0)
    assert model.merges == []
    utt = model.encode("ab")
    assert utt.pieces == ("a", "b" + tp.MARKER)


def test_training_is_deterministic():
    corpus = ["the cat sat", "the mat", "a cat"]
    a = bpe_train(corpus, 10)
    b = bpe_train(corpus, 10)
    assert a.merges == b.merges and a.vocab == b.vocab


def test_tie_break_is_lexicographic():
    # "ab" and "ba" both occur twice: pairs (a,b) and (b,a) tie at 2
    model = bpe_train(["ab ab ba ba"], merge_count=1)
    assert model.merges == [("a", "b")]


def test_empty_corpus_rejected():
    with pytest.raises(tp.BpeError):
        bpe_train([], 5)
    with pytest.raises(tp.BpeError):
        bpe_train(["   "], 5)


def test_merges_apply_in_order_to_single_token():
    model = bpe_train(["aaaa aaaa aa"], merge_count=2)
    assert model.merges == [("a", "a"), ("aa", "aa")]
    utt = model.encode("aaaa")
    assert len(utt.tokens) == 1
    assert utt.pieces == ("aaaa" + tp.MARKER,)


def test_encode_decode_round_trip():
    corpus = ["show flights from boston", "book a table in denver"]
    model = bpe_train(corpus, 30)
    for text in corpus + ["boston flights table", "show show"]:
        utt = model.encode(text)
        assert ids_to_text(model, utt.tokens) == " ".join(text.split())


def test_unseen_characters_become_per_char_unk():
    model = bpe_train(["aa bb"], 2)
    utt = model.encode("zq")
    assert list(utt.tokens) == [tp.UNK, tp.UNK]
    assert len(utt.pieces) == 2


def test_decode_unknown_id_rejected():
    model = bpe_train(["aa"], 1)
    with pytest.raises(tp.BpeError):
        model.piece_of(10_000)


def test_word_spans_and_words():
    model = bpe_train(["abc abd"], 1)
    utt = model.encode("abc abd")
    words = utt.surface.split()
    assert words == ["abc", "abd"]
    spans = utt.word_spans()
    assert len(spans) == 2
    for (s, e), w in zip(spans, words):
        assert tp.detokenize(utt.pieces[s:e]) == w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_round_trip_property(words):
    text = " ".join(words)
    model = bpe_train([text], 8)
    utt = model.encode(text)
    assert ids_to_text(model, utt.tokens) == text
    assert tp.detokenize(utt.pieces) == text
    assert len(utt.tokens) == len(utt.pieces)


def test_reencoding_canonical_ids_is_identity():
    # re-encoding the text of canonically encoded ids gives the same ids
    corpus = ["show flights from boston", "boston to denver on monday"]
    model = bpe_train(corpus, 40)
    for text in corpus:
        ids = model.encode(text).tokens
        assert model.encode(ids_to_text(model, ids)).tokens == ids


def test_specials_are_fixed_and_distinct():
    model = bpe_train(["aa"], 1)
    assert [model.pieces[i] for i in (tp.PAD, tp.BOS, tp.EOS, tp.UNK)] == list(tp.SPECIAL_PIECES)
    assert len({tp.PAD, tp.BOS, tp.EOS, tp.UNK}) == 4


def test_merge_list_prefix_closure_enforced():
    with pytest.raises(tp.BpeError):
        BpeModel(merges=[("ab", "c")],  # "ab" never produced by an earlier merge
                 vocab={p: i for i, p in enumerate(tp.SPECIAL_PIECES + ("a", "b", "c"))})


def test_label_vocab_bijective_and_derived_tags():
    lv = LabelVocab(["x", "y"], ["k1", "k2"])
    assert lv.tags == ["O", "B-k1", "I-k1", "B-k2", "I-k2"]
    for i, t in enumerate(lv.tags):
        assert lv.tag_id(t) == i
    assert lv.intent_id("y") == 1
    assert LabelVocab.from_dict(lv.to_dict()).to_dict() == lv.to_dict()


def test_label_vocab_collect_sorts_and_dedupes():
    lv = LabelVocab.collect(["b", None, "a", "b"], ["z", "a", "z"])
    assert lv.intents == ["a", "b"]
    assert lv.slot_keys == ["a", "z"]
