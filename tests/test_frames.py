import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdec import frames as fr
from dualdec.frames import SemanticFrame, frame_to_iob, iob_to_frame
from dualdec.textproc import word_utterance

ATIS_WORDS = "which flights travel from kansas city to los angeles on april ninth"
ATIS_TAGS = [
    "O", "O", "O", "O",
    "B-fromloc.city_name", "I-fromloc.city_name",
    "O",
    "B-toloc.city_name", "I-toloc.city_name",
    "O",
    "B-depart_date.month_name",
    "B-depart_date.day_number",
]

E2E_SENTENCE = ("Bibimbap House is a moderately priced restaurant who's main cuisine "
                "is English food. You will find this local gem near Clare Hall in the "
                "Riverside area.")
E2E_FRAME = SemanticFrame.build(None, [
    ("name", "Bibimbap House"),
    ("food", "English"),
    ("priceRange", "moderate"),
    ("area", "riverside"),
    ("near", "Clare Hall"),
])


def test_atis_flight_query_aggregates_runs():
    utt = word_utterance(ATIS_WORDS)
    frame = iob_to_frame(ATIS_TAGS, "atis_flight", utt)
    assert frame == SemanticFrame.build("atis_flight", [
        ("fromloc.city_name", "kansas city"),
        ("toloc.city_name", "los angeles"),
        ("depart_date.month_name", "april"),
        ("depart_date.day_number", "ninth"),
    ])
    assert fr.format_frame(frame) == (
        "intent[atis_flight], fromloc.city_name[kansas city], "
        "toloc.city_name[los angeles], depart_date.month_name[april], "
        "depart_date.day_number[ninth]")


def test_all_o_tags_give_intent_only_frame():
    utt = word_utterance("hello there")
    frame = iob_to_frame(["O", "O"], "greet", utt)
    assert frame == SemanticFrame("greet", ())


def test_duplicate_key_last_run_wins():
    utt = word_utterance("t1 t2 t3 t4")
    frame = iob_to_frame(["B-a", "I-a", "O", "B-a"], None, utt)
    assert frame == SemanticFrame.build(None, [("a", "t4")])


def test_length_mismatch_rejected():
    with pytest.raises(fr.FrameError):
        iob_to_frame(["O"], None, word_utterance("a b"))


def test_unknown_tag_rejected():
    with pytest.raises(fr.FrameError):
        iob_to_frame(["X-a", "O"], None, word_utterance("a b"))


def test_bibimbap_house_tagging_with_fallbacks():
    utt = word_utterance(E2E_SENTENCE)
    tags, report = frame_to_iob(E2E_FRAME, utt)
    words = utt.surface.split()
    expected = ["O"] * len(words)
    expected[words.index("Bibimbap")] = "B-name"
    expected[words.index("House")] = "I-name"
    expected[words.index("moderately")] = "B-priceRange"
    expected[words.index("English")] = "B-food"
    expected[words.index("near") + 1] = "B-near"   # Clare
    expected[words.index("near") + 2] = "I-near"   # Hall
    expected[words.index("Riverside")] = "B-area"
    assert tags == expected
    assert report.unmatched == []
    assert report.matched == {
        "name": "exact",
        "food": "exact",
        "priceRange": "stem",
        "area": "lower",
        "near": "exact",
    }


def test_empty_frame_all_o():
    utt = word_utterance("a b c")
    tags, report = frame_to_iob(SemanticFrame(None, ()), utt)
    assert tags == ["O", "O", "O"]
    assert report.matched == {} and report.unmatched == []


def brute_force_best_assignment(slots, words):
    """Oracle: try every slot order and every span choice, prefer the
    assignment the greedy rule (longest value first, leftmost span) defines."""
    # For <=3 tokens the greedy result is directly enumerable: replicate the
    # decision independently by scanning spans in leftmost order per slot,
    # longest value first with stable original order on ties.
    order = sorted(range(len(slots)), key=lambda i: -len(slots[i][1]))
    claimed = [False] * len(words)
    tags = ["O"] * len(words)
    for i in order:
        key, value = slots[i]
        for start in range(len(words) - len(value) + 1):
            span = list(range(start, start + len(value)))
            if any(claimed[j] for j in span):
                continue
            if all(words[j] == value[j - start] for j in span):
                for j in span:
                    claimed[j] = True
                    tags[j] = ("B-" if j == start else "I-") + key
                break
    return tags


def full_scan_frame_to_iob(slots, words):
    """Oracle: the three-rule chain tried at every start of every value,
    longest value first, one rule level at a time."""
    def matches(token, target, rule):
        if rule == "exact":
            return token == target
        if rule == "lower":
            return token.lower() == target.lower()
        a, b = token.lower(), target.lower()
        if a == b:
            return True
        n = min(len(a), len(b))
        if n < fr.STEM_PREFIX:
            return False
        return a[:n] == b[:n]

    order = sorted(range(len(slots)), key=lambda i: -len(slots[i][1]))
    claimed = [False] * len(words)
    tags = ["O"] * len(words)
    matched, unmatched = [], []
    for i in order:
        key, value = slots[i]
        placed = False
        for rule in ("exact", "lower", "stem"):
            for start in range(len(words) - len(value) + 1):
                span = range(start, start + len(value))
                if any(claimed[j] for j in span):
                    continue
                if all(matches(words[j], value[j - start], rule) for j in span):
                    for j in span:
                        claimed[j] = True
                        tags[j] = ("B-" if j == start else "I-") + key
                    matched.append((key, rule))
                    placed = True
                    break
            if placed:
                break
        if not placed:
            unmatched.append(key)
    return tags, matched, unmatched


def test_longest_value_first_then_leftmost():
    utt = word_utterance("x y y")
    frame = SemanticFrame.build(None, [("a", "x y"), ("b", "y")])
    tags, report = frame_to_iob(frame, utt)
    assert tags == ["B-a", "I-a", "B-b"]
    assert report.unmatched == []
    assert tags == brute_force_best_assignment(frame.slots, utt.surface.split())


def test_matching_never_overlaps_claimed_tokens():
    utt = word_utterance("y y")
    frame = SemanticFrame.build(None, [("a", "y"), ("b", "y")])
    tags, _ = frame_to_iob(frame, utt)
    assert tags == ["B-a", "B-b"]


def test_unmatched_values_reported_not_raised():
    utt = word_utterance("nothing here")
    frame = SemanticFrame.build(None, [("a", "absent")])
    tags, report = frame_to_iob(frame, utt)
    assert tags == ["O", "O"]
    assert report.unmatched == ["a"]
    assert report.unmatched_fraction == 1.0


def test_stem_needs_four_shared_characters():
    utt = word_utterance("day daily")
    tags, report = frame_to_iob(SemanticFrame.build(None, [("d", "day")]), utt)
    assert tags == ["B-d", "O"] and report.matched["d"] == "exact"
    utt2 = word_utterance("daily")
    tags2, report2 = frame_to_iob(SemanticFrame.build(None, [("d", "day")]), utt2)
    assert tags2 == ["O"] and report2.unmatched == ["d"]


def test_repair_rewrites_bad_i_tags():
    assert fr.repair_iob(["I-a", "I-a", "O", "B-a", "I-b"]) == \
        ["B-a", "I-a", "O", "B-a", "B-b"]
    assert fr.repair_iob(["B-a", "I-a", "O"]) == ["B-a", "I-a", "O"]
    assert fr.repair_iob(["I-a"]) != ["I-a"]
    assert fr.repair_iob(["B-a", "I-b"]) != ["B-a", "I-b"]


def test_frame_invariants_enforced():
    with pytest.raises(fr.FrameError):
        SemanticFrame.build(None, [("a", "x"), ("a", "y")])
    with pytest.raises(fr.FrameError):
        SemanticFrame(None, (("a", ()),))


WORD_POOL = ["red", "blue", "green", "york", "paris", "tokyo", "cold", "warm"]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_round_trip_when_values_occur_once(data):
    n_slots = data.draw(st.integers(1, 3))
    pool = list(WORD_POOL)
    slots = []
    for i in range(n_slots):
        width = data.draw(st.integers(1, 2))
        value = tuple(pool.pop(0) for _ in range(width))
        slots.append((f"k{i}", value))
    filler = ["the", "a", "of"]
    words: list[str] = []
    for _, value in slots:
        words += [filler[len(words) % 3]] + list(value)
    frame = SemanticFrame(data.draw(st.sampled_from(["i0", None])), tuple(slots))
    utt = word_utterance(" ".join(words))
    tags, report = frame_to_iob(frame, utt)
    assert report.unmatched == []
    assert len(tags) == len(utt.tokens)
    back = iob_to_frame(tags, frame.intent, utt)
    assert dict(back.slots) == dict(frame.slots)
    assert back.intent == frame.intent


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b"]), min_size=1, max_size=8))
def test_iob_to_frame_total_over_repaired(tags):
    utt = word_utterance(" ".join(f"w{i}" for i in range(len(tags))))
    frame = iob_to_frame(tags, None, utt)
    keys = [k for k, _ in frame.slots]
    assert len(set(keys)) == len(keys)
    for _, v in frame.slots:
        assert v


def test_iob_spans_extraction():
    assert fr.iob_spans(["B-a", "I-a", "O", "B-b"]) == [(0, 2, "a"), (3, 4, "b")]
    assert fr.iob_spans(["O", "O"]) == []
    assert fr.iob_spans(["B-a", "B-a"]) == [(0, 1, "a"), (1, 2, "a")]


# case variants, words under four characters (some a prefix of a longer
# word), a shared four-character prefix (bost/Boston/bostonian), and a word
# whose lowercase is longer than itself
MATCH_POOL = ["bos", "bost", "Boston", "boston", "BOSTON", "bostonian", "Bostonian",
              "to", "To", "TO", "ist", "İstanbul", "i̇stanbul", "istanbul",
              "new", "New", "yor", "york", "York", "yorkshire", "day", "daily"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frame_to_iob_equals_the_full_scan(data):
    words = data.draw(st.lists(st.sampled_from(MATCH_POOL), max_size=10))
    n_slots = data.draw(st.integers(0, 4))
    slots = []
    for i in range(n_slots):
        width = data.draw(st.integers(1, 3))
        if words and data.draw(st.booleans()):
            # a span of the utterance, so values repeat and overlap
            start = data.draw(st.integers(0, len(words) - 1))
            value = tuple(words[start:start + width])
        else:
            value = tuple(data.draw(st.lists(st.sampled_from(MATCH_POOL),
                                             min_size=width, max_size=width)))
        slots.append((f"k{i}", value))
    frame = SemanticFrame(None, tuple(slots))
    tags, report = frame_to_iob(frame, word_utterance(" ".join(words)))
    want_tags, want_matched, want_unmatched = full_scan_frame_to_iob(frame.slots, words)
    assert tags == want_tags
    assert list(report.matched.items()) == want_matched
    assert report.unmatched == want_unmatched


def test_no_rule_check_runs_without_a_shared_stem_key(monkeypatch):
    calls = []
    check = fr._token_matches
    monkeypatch.setattr(fr, "_token_matches",
                        lambda *args: calls.append(args) or check(*args))
    utt = word_utterance("which flights travel from kansas city to los angeles")
    frame = SemanticFrame.build("f", [("a", "boston"), ("b", "new york"),
                                      ("c", "Denver to"), ("d", "cit")])
    tags, report = frame_to_iob(frame, utt)
    assert tags == ["O"] * len(utt.tokens)
    assert report.matched == {} and report.unmatched == ["b", "c", "a", "d"]
    assert calls == []
    # the count is not vacuous: a value that does share a key is checked
    frame_to_iob(SemanticFrame.build("f", [("a", "kansas city")]), utt)
    assert calls
