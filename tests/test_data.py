import json
from pathlib import Path

import numpy as np
import pytest

from conftest import build_vocabs, make_model

from dualdec import data
from dualdec.data import (CheckpointError, DataError, NlgExample,
                          NluExample, augment_nlg_to_nlu, augment_nlu_to_nlg,
                          load_checkpoint, load_nlg, load_nlu, merge_dedup,
                          save_checkpoint, save_nlg, save_nlu, synth_corpus)
from dualdec.frames import SemanticFrame
from dualdec.models import lm_score_tokens, model_from_checkpoint, nlg_score, to_checkpoint

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    with pytest.raises(DataError):
        load_nlu(p)
    with pytest.raises(DataError):
        load_nlg(p)


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"text": "a b", "tags": ["O", "O"]}\n{"text": "a"}\n')
    with pytest.raises(DataError) as e:
        load_nlu(p)
    assert ":2:" in str(e.value)


BAD_LINES = [
    (load_nlu, {"text": "a b", "tags": "OO"}),
    (load_nlu, {"text": "a b", "tags": ["O", 1]}),
    (load_nlu, {"text": "a b", "tags": ["O", "X-k"]}),
    (load_nlu, {"text": 5, "tags": []}),
    (load_nlg, {"frame": {"slots": []}, "refs": "abc"}),
    (load_nlg, {"frame": {"slots": []}, "refs": ["abc", None]}),
    (load_nlg, {"frame": [], "refs": ["abc"]}),
    (load_nlg, {"frame": {"intent": ["i"], "slots": []}, "refs": ["abc"]}),
    (load_nlg, {"frame": {"slots": [[5, "boston"]]}, "refs": ["abc"]}),
    (load_nlu, {"text": "a", "tags": ["O"], "intent": 5}),
    (load_nlg, {"frame": {"slots": [["city", [""]]]}, "refs": ["abc"]}),
    (load_nlg, {"frame": {"slots": [["city", [" "]]]}, "refs": ["abc"]}),
]


@pytest.mark.parametrize("loader, line", BAD_LINES)
def test_bad_field_shape_reports_path_and_line(tmp_path, loader, line):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps(line) + "\n")
    with pytest.raises(DataError) as e:
        loader(p)
    assert f"{p}:1:" in str(e.value)


def test_nlu_round_trip(tmp_path):
    examples = [NluExample("show flights", ("O", "O"), "find_flight"),
                NluExample("boston please", ("B-city", "O"))]
    p = tmp_path / "nlu.jsonl"
    save_nlu(p, examples)
    assert load_nlu(p) == examples
    save_nlu(tmp_path / "again.jsonl", load_nlu(p))
    assert (tmp_path / "again.jsonl").read_bytes() == p.read_bytes()


def test_nlg_round_trip(tmp_path):
    frame = SemanticFrame.build("weather", [("city", "denver"), ("day", "monday")])
    examples = [NlgExample(frame, ("what is it like in denver on monday",
                                   "denver weather monday"))]
    p = tmp_path / "nlg.jsonl"
    save_nlg(p, examples)
    assert load_nlg(p) == examples


def test_list_slot_values_split_into_words_as_strings_do(tmp_path):
    p = tmp_path / "nlg.jsonl"
    p.write_text("".join(json.dumps({"frame": {"slots": [["city", value]]},
                                     "refs": ["to new york"]}) + "\n"
                         for value in ("new york", ["new york"], ["new", "york"])))
    examples = load_nlg(p)
    assert examples[0] == examples[1] == examples[2]
    assert examples[0].frame.slots == (("city", ("new", "york")),)
    save_nlg(tmp_path / "again.jsonl", examples)
    assert load_nlg(tmp_path / "again.jsonl") == examples


def test_tag_length_validated():
    with pytest.raises(DataError):
        NluExample("one two three", ("O", "O"))


def test_refs_bounds():
    frame = SemanticFrame.build(None, [("a", "x")])
    with pytest.raises(DataError):
        NlgExample(frame, ())
    with pytest.raises(DataError):
        NlgExample(frame, tuple("abcdef"))


def test_atis_manifest_with_full_train_split(tmp_path):
    # an ATIS-sized training split (4478 lines) loads in full
    p = tmp_path / "atis_train.jsonl"
    with open(p, "w") as fh:
        for i in range(4478):
            fh.write(json.dumps({"text": f"word{i} flight", "tags": ["O", "O"],
                                 "intent": "atis_flight"}) + "\n")
    examples = load_nlu(p)
    assert len(examples) == 4478
    assert examples[-1] == NluExample("word4477 flight", ("O", "O"), "atis_flight")


# ---------------------------------------------------------------------------
# augmentation


def test_augment_nlu_to_nlg_atis_example():
    words = "which flights travel from kansas city to los angeles on april ninth"
    tags = ("O", "O", "O", "O", "B-fromloc.city_name", "I-fromloc.city_name", "O",
            "B-toloc.city_name", "I-toloc.city_name", "O",
            "B-depart_date.month_name", "B-depart_date.day_number")
    out = augment_nlu_to_nlg([NluExample(words, tags, "atis_flight")])
    assert len(out) == 1
    assert out[0].refs == (words,)
    assert out[0].frame == SemanticFrame.build("atis_flight", [
        ("fromloc.city_name", "kansas city"),
        ("toloc.city_name", "los angeles"),
        ("depart_date.month_name", "april"),
        ("depart_date.day_number", "ninth"),
    ])


def test_augment_all_o_gives_intent_only_frame():
    out = augment_nlu_to_nlg([NluExample("hello there", ("O", "O"), "greet")])
    assert out[0].frame == SemanticFrame("greet", ())
    assert out[0].refs == ("hello there",)


def test_augment_duplicate_key_last_run_wins():
    out = augment_nlu_to_nlg([NluExample("a b c d", ("B-k", "O", "O", "B-k"))])
    assert out[0].frame == SemanticFrame.build(None, [("k", "d")])


def test_augment_nlg_to_nlu_bibimbap_example():
    sentence = ("Bibimbap House is a moderately priced restaurant who's main cuisine "
                "is English food. You will find this local gem near Clare Hall in the "
                "Riverside area.")
    frame = SemanticFrame.build(None, [
        ("name", "Bibimbap House"), ("food", "English"), ("priceRange", "moderate"),
        ("area", "riverside"), ("near", "Clare Hall")])
    kept, dropped = augment_nlg_to_nlu([NlgExample(frame, (sentence,))])
    assert dropped == 0 and len(kept) == 1
    ex = kept[0]
    words = sentence.split()
    assert ex.tags[words.index("Bibimbap")] == "B-name"
    assert ex.tags[words.index("House")] == "I-name"
    assert ex.tags[words.index("moderately")] == "B-priceRange"
    assert ex.tags[words.index("English")] == "B-food"
    assert ex.tags[words.index("Riverside")] == "B-area"
    assert ex.tags[words.index("Clare")] == "B-near"
    assert ex.tags[words.index("Hall")] == "I-near"
    assert sum(t != "O" for t in ex.tags) == 7


def test_augment_drops_unmatchable_frames():
    frame = SemanticFrame.build(None, [("a", "missing"), ("b", "absent"),
                                       ("c", "here")])
    kept, dropped = augment_nlg_to_nlu([NlgExample(frame, ("nothing here at all",))])
    assert dropped == 1 and kept == []
    # exactly half unmatched is kept
    frame2 = SemanticFrame.build(None, [("a", "missing"), ("c", "here")])
    kept2, dropped2 = augment_nlg_to_nlu([NlgExample(frame2, ("nothing here at all",))])
    assert dropped2 == 0 and len(kept2) == 1


def test_augment_partial_match_bookkeeping_by_hand():
    # 3 refs: full match, half match, no match -> 1 drop (the all-miss ref
    # has 2 of 2 slots unmatched > 50%)
    frame = SemanticFrame.build(None, [("a", "red"), ("b", "blue")])
    ex = NlgExample(frame, ("red blue", "red only", "none at all"))
    kept, dropped = augment_nlg_to_nlu([ex])
    assert len(kept) == 2 and dropped == 1


def test_merge_dedup():
    a = [NluExample("x", ("O",), "i")]
    b = [NluExample("x", ("O",), "i"), NluExample("y", ("O",))]
    merged = merge_dedup(a, b)
    assert merged == [a[0], b[1]]


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_same_seed_identical():
    a = synth_corpus(5, 20)
    b = synth_corpus(5, 20)
    assert a == b
    c = synth_corpus(6, 20)
    assert c != a


def test_synth_pairs_round_trip_by_construction():
    nlu, nlg = synth_corpus(9, 24)
    assert len(nlu) == len(nlg) == 24
    for ex_nlu, ex_nlg in zip(nlu, nlg):
        assert ex_nlu.text == ex_nlg.refs[0]
        from dualdec.frames import frame_to_iob, iob_to_frame
        words = ex_nlu.text.split()
        tags, report = frame_to_iob(ex_nlg.frame, words)
        assert report.unmatched == []
        assert tuple(tags) == ex_nlu.tags
        back = iob_to_frame(list(ex_nlu.tags), ex_nlu.intent, words)
        assert back == ex_nlg.frame


def test_synth_size_32_covers_all_keys_and_intents():
    nlu, nlg = synth_corpus(13, 32)
    assert len(nlu) == 32
    keys = {k for ex in nlg for k, _ in ex.frame.slots}
    intents = {ex.intent for ex in nlu}
    assert keys == set(data.SYNTH_SLOT_KEYS)
    assert intents == set(data.SYNTH_INTENTS)
    assert len({ex.frame for ex in nlg}) == 32  # frames unique at this size


# ---------------------------------------------------------------------------
# checkpoints


def _small_ckpt(seed=3):
    nlu_raw, nlg_raw = synth_corpus(seed, 8)
    vocabs = build_vocabs(nlu_raw, nlg_raw)
    model = make_model("lm", vocabs, hidden=4, embedding=3, seed=seed)
    return to_checkpoint(model, seed=seed, extra_config={"note": 1}), vocabs, model


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    ckpt, _, _ = _small_ckpt()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("kind", data.MODEL_KINDS)
def test_fixture_checkpoint_round_trips_through_model_byte_identical(tmp_path, kind):
    """Rebuilding a committed checkpoint through its model pins every
    parameter's name, shape and order: the checkpoint layout."""
    path = FIXTURE / f"{kind}.ckpt"
    ckpt = load_checkpoint(path)
    model = model_from_checkpoint(ckpt)
    out = tmp_path / path.name
    save_checkpoint(out, to_checkpoint(model, seed=ckpt.seed, extra_config=ckpt.config))
    assert out.read_bytes() == path.read_bytes()


def test_non_finite_parameter_never_saved_or_loaded(tmp_path):
    ckpt, _, _ = _small_ckpt()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, ckpt)
    name = list(ckpt.params)[-1]
    ckpt.params[name][0] = np.nan
    with pytest.raises(CheckpointError, match=repr(name)):
        save_checkpoint(tmp_path / "nan.ckpt", ckpt)
    assert not (tmp_path / "nan.ckpt").exists()
    blob = p.read_bytes()
    p.write_bytes(blob[:-8] + np.array([np.inf], dtype="<f8").tobytes())
    with pytest.raises(CheckpointError, match=repr(name)):
        load_checkpoint(p)


def test_checkpoint_corrupted_header_rejected(tmp_path):
    ckpt, _, _ = _small_ckpt()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, ckpt)
    blob = p.read_bytes()
    p.write_bytes(b"garbage" + blob[7:])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    ckpt, _, _ = _small_ckpt()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, ckpt)
    blob = p.read_bytes()
    p.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_version_rejected(tmp_path):
    ckpt, _, _ = _small_ckpt()
    ckpt.version = 99
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, ckpt)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_missing_parameter_never_silently_reinitialized(tmp_path):
    ckpt, _, _ = _small_ckpt()
    ckpt.params.pop("out.b")
    with pytest.raises(CheckpointError) as e:
        model_from_checkpoint(ckpt)
    assert "out.b" in str(e.value)


def test_extra_parameter_rejected():
    ckpt, _, _ = _small_ckpt()
    ckpt.params["bogus"] = np.zeros(3)
    with pytest.raises(CheckpointError):
        model_from_checkpoint(ckpt)


def test_shape_mismatch_rejected():
    ckpt, _, _ = _small_ckpt()
    ckpt.params["out.b"] = np.zeros(999)
    with pytest.raises(CheckpointError):
        model_from_checkpoint(ckpt)


def test_reloaded_model_scores_identically(tmp_path):
    ckpt, vocabs, model = _small_ckpt()
    p = tmp_path / "lm.ckpt"
    save_checkpoint(p, ckpt)
    reloaded = model_from_checkpoint(load_checkpoint(p))
    utt = vocabs.bpe.encode("show flights from boston")
    assert lm_score_tokens(model, [utt.tokens]) == lm_score_tokens(reloaded, [utt.tokens])


def test_cross_checkpoint_dual_inference_matches_in_memory(tmp_path):
    # models trained (here: initialized) in separate runs, saved, reloaded,
    # and mixed must score identically to the in-memory originals
    nlu_raw, nlg_raw = synth_corpus(4, 8)
    vocabs = build_vocabs(nlu_raw, nlg_raw)
    nlg_a = make_model("nlg", vocabs, hidden=5, embedding=4, seed=1)
    nlu_b = make_model("nlu", vocabs, hidden=5, embedding=4, seed=2)
    pa = tmp_path / "nlg.ckpt"
    pb = tmp_path / "nlu.ckpt"
    save_checkpoint(pa, to_checkpoint(nlg_a, seed=1))
    save_checkpoint(pb, to_checkpoint(nlu_b, seed=2))
    nlg_r = model_from_checkpoint(load_checkpoint(pa))
    frame = nlg_raw[0].frame
    utt = vocabs.bpe.encode(nlg_raw[0].refs[0])
    assert nlg_score(nlg_a, [frame], [utt]) == nlg_score(nlg_r, [frame], [utt])
