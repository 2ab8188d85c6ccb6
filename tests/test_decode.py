import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RowStepper, make_model, randomize

from dualdec import decode
from dualdec.data import NluExample
from dualdec.decode import (CachedExample, Components, DualWeights, Hypothesis,
                            ModelsBundle, NluTagStepper, beam_search,
                            combine, dual_score_nlg, dual_score_nlu, grid_search,
                            nlg_hypotheses, nlu_hypotheses, rerank, rerank_index,
                            weight_grid)
from dualdec.frames import SemanticFrame
from dualdec.models import nlu_intent
from dualdec.tensor import derive_rng


def log_softmax(x):
    z = x - x.max()
    return z - math.log(np.exp(z).sum())


class TableStepper(RowStepper):
    """Deterministic random stepper: logits indexed by (step, last symbol)."""

    def __init__(self, rng, n_symbols, eos, max_steps, spread=1.0):
        self.n_symbols = n_symbols
        self.eos = eos
        self.table = rng.normal(size=(max_steps + 2, n_symbols + 1, n_symbols)) * spread

    def start_one(self):
        return (0, self.n_symbols), log_softmax(self.table[0, self.n_symbols])

    def step(self, state, symbol):
        t, _ = state
        return (t + 1, symbol), log_softmax(self.table[t + 1, symbol])


def exhaustive_eos(stepper, max_len):
    """Oracle: enumerate and score every payload of length <= max_len."""
    out = []

    def rec(state, dist, payload, per, score):
        lp = dist[stepper.eos]
        out.append(Hypothesis(payload, score + lp, per + (lp,)))
        if len(payload) == max_len:
            return
        for v in range(stepper.n_symbols):
            if v == stepper.eos:
                continue
            nstate, ndist = stepper.step(state, v)
            rec(nstate, ndist, payload + (v,), per + (float(dist[v]),),
                score + float(dist[v]))

    state, dist = stepper.start_one()
    rec(state, dist, (), (), 0.0)
    out.sort(key=lambda h: (-h.forward_logprob, len(h.payload), h.payload))
    return out


def exhaustive_fixed(stepper, length):
    out = []

    def rec(state, dist, payload, per, score):
        if len(payload) == length:
            out.append(Hypothesis(payload, score, per))
            return
        for v in range(stepper.n_symbols):
            step = (payload + (v,), per + (float(dist[v]),), score + float(dist[v]))
            if len(payload) + 1 == length:
                rec(state, None, *step)
            else:
                nstate, ndist = stepper.step(state, v)
                rec(nstate, ndist, *step)

    state, dist = stepper.start_one()
    rec(state, dist, (), (), 0.0)
    out.sort(key=lambda h: (-h.forward_logprob, len(h.payload), h.payload))
    return out


# ---------------------------------------------------------------------------
# beam search


def test_beam_zero_rejected():
    stepper = TableStepper(derive_rng(0, "t"), 3, eos=2, max_steps=3)
    with pytest.raises(decode.DecodeError):
        beam_search(stepper, 0, 3)


def test_beam_one_is_greedy():
    rng = derive_rng(1, "greedy")
    stepper = TableStepper(rng, 4, eos=3, max_steps=5)
    got = beam_search(stepper, 1, 5)
    assert len(got) == 1
    # independent greedy walk
    state, dist = stepper.start_one()
    payload, score = (), 0.0
    while len(payload) < 5:
        v = int(np.argmax(dist))
        if v == stepper.eos:
            break
        score += dist[v]
        payload += (v,)
        state, dist = stepper.step(state, v)
    score += dist[stepper.eos]
    # greedy can be beaten by stopping earlier, so only check consistency
    # when the greedy walk is the argmax at every point it visits
    assert got[0].forward_logprob >= score - 1e-12


def test_one_hot_model_single_hypothesis_logprob_zero():
    class OneHot(RowStepper):
        n_symbols = 3
        eos = 2

        def start_one(self):
            lp = np.full(3, -math.inf)
            lp[0] = 0.0
            return 0, lp

        def step(self, state, symbol):
            lp = np.full(3, -math.inf)
            lp[2 if state >= 1 else 1] = 0.0
            return state + 1, lp

    got = beam_search(OneHot(), 20, 10)
    assert len(got) == 1
    assert got[0].payload == (0, 1)
    assert got[0].forward_logprob == 0.0


def test_beam20_equals_exhaustive_vocab3_maxlen3():
    for seed in range(8):
        stepper = TableStepper(derive_rng(seed, "ex33"), 3, eos=2, max_steps=3)
        got = beam_search(stepper, 20, 3)
        want = exhaustive_eos(stepper, 3)[:20]
        assert [h.payload for h in got] == [h.payload for h in want]
        for g, w in zip(got, want):
            assert g.forward_logprob == pytest.approx(w.forward_logprob, abs=1e-9)
            assert g.forward_logprob == pytest.approx(sum(g.per_step), abs=1e-9)


def test_tie_break_shorter_then_lexicographic():
    class Uniform(RowStepper):
        n_symbols = 3
        eos = 2

        def start_one(self):
            return None, np.log(np.full(3, 1 / 3))

        def step(self, state, symbol):
            return None, np.log(np.full(3, 1 / 3))

    got = beam_search(Uniform(), 20, 3)
    # every completion of equal length ties; order must be by length then payload
    keys = [(len(h.payload), h.payload) for h in got]
    assert keys == sorted(keys)
    assert got[0].payload == ()


def test_hypothesis_logprob_equals_per_step_sum():
    stepper = TableStepper(derive_rng(3, "sum"), 4, eos=0, max_steps=4)
    for h in beam_search(stepper, 20, 4):
        assert h.forward_logprob == pytest.approx(sum(h.per_step), abs=1e-9)


# The tuple-sort beam search that the lexsort top-k replaced, kept verbatim as
# the reference for equal results and equal step work.


def _reference_completion_order(h: Hypothesis):
    return (-h.forward_logprob, len(h.payload), h.payload)


def reference_beam_search(stepper, beam: int, max_len: int) -> list[Hypothesis]:
    if beam < 1:
        raise decode.DecodeError("beam must be >= 1")
    eos = stepper.eos
    if eos is None:
        return [h for h, _ in reference_beam_search_fixed(stepper, beam, max_len)]
    state, dist = stepper.start_one()
    active = [(0.0, (), (), state, dist)]
    completed: list[Hypothesis] = []
    for t in range(max_len):
        cand = []
        for score, payload, per, state, dist in active:
            lp_eos = float(dist[eos])
            if lp_eos > -math.inf:
                completed.append(Hypothesis(payload, score + lp_eos, per + (lp_eos,)))
            for v in range(stepper.n_symbols):
                if v == eos:
                    continue
                lp = float(dist[v])
                if lp > -math.inf:
                    cand.append((score + lp, payload + (v,), per + (lp,), state, v))
        if not cand:
            break
        cand.sort(key=lambda c: (-c[0], c[1]))
        if t == max_len - 1:
            # no further extension: force-complete every candidate
            for score, payload, per, state, v in cand:
                nstate, ndist = stepper.step(state, v)
                lp_eos = float(ndist[eos])
                if lp_eos > -math.inf:
                    completed.append(Hypothesis(payload, score + lp_eos, per + (lp_eos,)))
            break
        if len(completed) >= beam:
            kth = sorted(completed, key=_reference_completion_order)[beam - 1].forward_logprob
            if cand[0][0] < kth:
                break  # extensions only lower scores; nothing can enter the top-k
        active = []
        for score, payload, per, state, v in cand[:beam]:
            nstate, ndist = stepper.step(state, v)
            active.append((score, payload, per, nstate, ndist))
    completed.sort(key=_reference_completion_order)
    return completed[:beam]


def reference_beam_search_fixed(stepper, beam: int, length: int):
    if beam < 1:
        raise decode.DecodeError("beam must be >= 1")
    if length < 1:
        raise decode.DecodeError("fixed-length beam needs length >= 1")
    state, dist = stepper.start_one()
    active = [(0.0, (), (), state, dist)]
    for t in range(length):
        cand = []
        for score, payload, per, state, dist in active:
            for v in range(stepper.n_symbols):
                lp = float(dist[v])
                if lp > -math.inf:
                    cand.append((score + lp, payload + (v,), per + (lp,), state, v))
        cand.sort(key=lambda c: (-c[0], c[1]))
        cand = cand[:beam]
        if t == length - 1:
            # the stored state already consumed the final input position
            return [(Hypothesis(payload, score, per), state)
                    for score, payload, per, state, v in cand]
        active = []
        for score, payload, per, state, v in cand:
            nstate, ndist = stepper.step(state, v)
            active.append((score, payload, per, nstate, ndist))
    return []


def search_fixed(stepper, beam: int, length: int):
    """``decode._search`` of a stepper without EOS as (hypothesis, final
    state) pairs, the form ``reference_beam_search_fixed`` returns."""
    hyps, finals = decode._search(stepper, beam, length)
    return list(zip(hyps, [] if finals is None else finals))


class CountingTable(RowStepper):
    """Log-probs looked up by (step, last symbol), with a count of the rows
    advanced."""

    def __init__(self, table, eos):
        self.table = table
        self.n_symbols = table.shape[-1]
        self.eos = eos
        self.advances = 0

    def start_one(self):
        return (0, self.n_symbols), self.table[0, self.n_symbols]

    def step(self, state, symbol):
        self.advances += 1
        t, _ = state
        return (t + 1, symbol), self.table[t + 1, symbol]


@st.composite
def table_searches(draw):
    """A table stepper with integer log-probs (ties across parents and
    symbols), some -inf entries, EOS or none, and a small beam and length."""
    n_symbols = draw(st.integers(2, 6))
    max_len = draw(st.integers(1, 4))
    eos = draw(st.one_of(st.none(), st.integers(0, n_symbols - 1)))
    shape = (max_len + 2, n_symbols + 1, n_symbols)
    values = draw(st.lists(st.sampled_from([0.0, -1.0, -2.0, -3.0, -math.inf]),
                           min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values).reshape(shape), eos, draw(st.integers(1, 8)), max_len


@settings(max_examples=300, deadline=None)
@given(table_searches())
def test_lexsort_beam_equals_tuple_sort_reference(case):
    table, eos, beam, max_len = case
    ref, new = CountingTable(table, eos), CountingTable(table, eos)
    want = reference_beam_search(ref, beam, max_len)
    assert beam_search(new, beam, max_len) == want
    assert new.advances <= ref.advances
    if eos is None:
        ref, new = CountingTable(table, eos), CountingTable(table, eos)
        assert (search_fixed(new, beam, max_len)
                == reference_beam_search_fixed(ref, beam, max_len))
        assert new.advances == ref.advances


@pytest.mark.parametrize("eos", [None, 0, 2])
@pytest.mark.parametrize("max_len", [1, 3])
def test_all_minus_inf_distributions_give_no_hypotheses(eos, max_len):
    table = np.full((max_len + 2, 4, 3), -math.inf)
    assert reference_beam_search(CountingTable(table, eos), 5, max_len) == []
    stepper = CountingTable(table, eos)
    assert beam_search(stepper, 5, max_len) == []
    assert stepper.advances == 0
    if eos is None:
        assert search_fixed(CountingTable(table, eos), 5, max_len) == []


def test_force_complete_stops_below_kth_completion():
    # at max_len the walk advances the three extensions of (1,) and stops at
    # (2, 1), whose -6 is below the second best completion's -1
    table = np.full((4, 5, 4), -math.inf)
    table[0, 4] = [-math.inf, 0.0, -5.0, -5.0]
    table[1:, :, 0] = 0.0
    table[1:, :, 1:] = -1.0
    stepper, ref = CountingTable(table, 0), CountingTable(table, 0)
    got = beam_search(stepper, 2, 2)
    assert got == reference_beam_search(ref, 2, 2)
    assert [h.payload for h in got] == [(1,), (1, 1)]
    assert (stepper.advances, ref.advances) == (2 + 3, 2 + 6)


class PagedTable(CountingTable):
    """A ``CountingTable`` that also records each ``advance`` call as (the
    step its rows were decoded at, its row count)."""

    def __init__(self, table, eos):
        super().__init__(table, eos)
        self.calls = []

    def advance(self, states, symbols):
        self.calls.append((states[0][0], len(symbols)))
        return super().advance(states, symbols)


def forced_completion_table(beam=3, max_len=3, n_symbols=5):
    # every extension scores 0 and EOS (symbol 0) is only reachable after a
    # 3 or a 4 at max_len, so all beam * 4 extensions of the last step are
    # kept and the heap fills only on the third page
    table = np.zeros((max_len + 2, n_symbols + 1, n_symbols))
    table[:, :, 0] = -math.inf
    table[max_len, 3:, 0] = 0.0
    return table


def test_force_completion_advances_pages_of_beam_rows():
    beam, max_len = 3, 3
    table = forced_completion_table(beam, max_len)
    stepper = PagedTable(table, 0)
    got = beam_search(stepper, beam, max_len)
    assert got == reference_beam_search(CountingTable(table, 0), beam, max_len)
    assert [h.payload for h in got] == [(1, 1, 3), (1, 1, 4), (1, 2, 3)]
    last = [rows for step, rows in stepper.calls if step == max_len - 1]
    assert sum(last) == beam * 4
    assert len(last) <= math.ceil(sum(last) / beam)


def test_force_completion_stops_between_pages():
    # the first page, (1, 1) and (2, 1), completes at 0 and -1 and fills the
    # beam; the next page's (1, 2) extends at -3, so it is never advanced
    table = np.full((4, 5, 4), -math.inf)
    table[0, 4, 1:3] = [0.0, -1.0]
    table[1, :, 1:] = [0.0, -3.0, -3.0]
    table[2, :, 0] = 0.0
    stepper = PagedTable(table, 0)
    got = beam_search(stepper, 2, 2)
    assert got == reference_beam_search(CountingTable(table, 0), 2, 2)
    assert [h.payload for h in got] == [(1, 1), (2, 1)]
    assert stepper.calls == [(0, 2), (1, 2)]


def test_nan_eos_log_prob_in_the_first_page_raises_naming_max_len():
    table = forced_completion_table()
    table[3, 2, 0] = math.nan  # EOS after (1, 1, 2), the first page's second row
    with pytest.raises(decode.DecodeError, match="nan for EOS at decode step 3"):
        beam_search(CountingTable(table, 0), 3, 3)


def test_beam_stops_once_completions_fill_the_beam():
    # the empty prefix completes at 0 and every extension scores -1, so with
    # beam 1 no extension can enter the top 1 and nothing is advanced
    table = np.full((4, 4, 3), -1.0)
    table[:, :, 0] = 0.0
    stepper, ref = CountingTable(table, 0), CountingTable(table, 0)
    got = beam_search(stepper, 1, 3)
    assert got == reference_beam_search(ref, 1, 3)
    assert [h.payload for h in got] == [()]
    assert stepper.advances == ref.advances == 0


@pytest.mark.parametrize("bad_step, bad_symbol, eos", [
    (0, 1, 0), (0, 0, 0), (1, 2, 0), (2, 0, 0), (0, 1, None), (1, 0, None)])
def test_nan_log_prob_raises_naming_the_step(bad_step, bad_symbol, eos):
    # a NaN anywhere a search reads it, EOS column and force-completion
    # included, raises instead of being dropped as -inf
    table = np.full((4, 4, 3), -1.0)
    table[bad_step, :, bad_symbol] = math.nan
    with pytest.raises(decode.DecodeError, match=f"decode step {bad_step}"):
        beam_search(CountingTable(table, eos), 3, 2)


def test_nlu_beam_matches_exhaustive_tags(tiny_vocabs, tiny_models):
    # 3-token utterance; restrict to a 3-tag inventory by masking the rest
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("show flights boston")
    stepper = NluTagStepper(m, utt)

    class Restricted(RowStepper):
        n_symbols = 3
        eos = None

        def start_one(self):
            state, lp = stepper.start()
            return state, lp[0, :3] - np.log(np.exp(lp[0, :3]).sum())

        def step(self, state, symbol):
            nstate, lp = stepper.advance(state, np.array([symbol]))
            return nstate, lp[0, :3] - np.log(np.exp(lp[0, :3]).sum())

    r = Restricted()
    got = search_fixed(r, 20, 3)
    want = exhaustive_fixed(r, 3)[:20]
    assert [h.payload for h, _ in got] == [h.payload for h in want]
    for (g, _), w in zip(got, want):
        assert g.forward_logprob == pytest.approx(w.forward_logprob, abs=1e-9)


def test_nlu_hypotheses_k_intent_and_truncation(tiny_vocabs, tiny_models):
    m = tiny_models["nlu"]
    utt = tiny_vocabs.bpe.encode("play something")
    hyps = nlu_hypotheses(m, utt, beam=6, k_intent=2)
    assert 0 < len(hyps) <= 6
    assert all(h.intent is not None for h in hyps)
    for h in hyps:
        assert h.forward_logprob == pytest.approx(sum(h.per_step), abs=1e-9)
    k1 = nlu_hypotheses(m, utt, beam=6, k_intent=1)
    # with one intent per tag sequence, payloads are unique
    assert len({h.payload for h in k1}) == len(k1)


def test_nlu_intents_come_from_the_final_tagger_states(tiny_vocabs, tiny_models):
    # the reference search steps one tagger row at a time and keeps each
    # hypothesis' final state; its intents, built by hand, equal the ones
    # nlu_hypotheses reads off the search's final state stack
    m = randomize(tiny_models["nlu"], derive_rng(8, "intents"), -1.0, 1.0)
    utt = tiny_vocabs.bpe.encode("book a table in boston")
    stepper = NluTagStepper(m, utt)

    class OneRow(RowStepper):
        n_symbols = len(m.vocabs.labels.tags)
        eos = None

        def start_one(self):
            state, lp = stepper.start()
            return state, lp[0]

        def step(self, state, symbol):
            nstate, lp = stepper.advance(state, np.array([symbol]))
            return nstate, lp[0]

    beam, k_intent = 6, 2
    want = []
    for hyp, state in reference_beam_search_fixed(OneRow(), beam, stepper.length):
        [ilp] = nlu_intent(m, state.h)
        for i in np.argsort(-ilp, kind="stable")[:k_intent]:
            lp = float(ilp[i])
            want.append(Hypothesis(hyp.payload, hyp.forward_logprob + lp,
                                   hyp.per_step + (lp,), intent=int(i)))
    want.sort(key=lambda h: (-h.forward_logprob, len(h.payload), h.payload, h.intent))
    assert len(utt.tokens) >= 3 and len(want) == beam * k_intent
    assert nlu_hypotheses(m, utt, beam, k_intent) == want[:beam]


def test_nlu_hypotheses_sorted_desc(tiny_vocabs, tiny_models):
    utt = tiny_vocabs.bpe.encode("book a table")
    hyps = nlu_hypotheses(tiny_models["nlu"], utt, beam=10, k_intent=3)
    scores = [h.forward_logprob for h in hyps]
    assert scores == sorted(scores, reverse=True)


# ---------------------------------------------------------------------------
# dual scores


def test_combined_formula_arithmetic_case():
    c = Components(forward=-1.0, backward=-2.0, marg_out=-3.0, marg_in=-0.5)
    ds = combine(c, DualWeights(0.5, 0.5))
    assert ds.combined == pytest.approx(-2.125, abs=0)


def test_alpha_one_reduces_to_forward():
    c = Components(-1.7, -9.9, -123.0, -4.56)
    for beta in (0.0, 0.3, 1.0):
        assert combine(c, DualWeights(1.0, beta)).combined == -1.7


def test_combined_linear_in_components():
    rng = derive_rng(5, "lin")
    for _ in range(20):
        vals = rng.normal(size=4)
        c1 = Components(*vals)
        c2 = Components(*(2 * vals))
        w = DualWeights(float(rng.uniform()), float(rng.uniform()))
        a = combine(c1, w).combined
        b = combine(c2, w).combined
        assert b == pytest.approx(2 * a, abs=1e-12)


def test_weights_validated():
    with pytest.raises(decode.DecodeError):
        DualWeights(1.5, 0.0)
    with pytest.raises(decode.DecodeError):
        DualWeights(0.0, -0.1)


def _bundle(vocabs, seed=31):
    b = ModelsBundle(*(make_model(k, vocabs, hidden=5, embedding=4, seed=seed)
                       for k in ("nlu", "nlg", "lm", "mfm")))
    rng = derive_rng(seed, "bundle")
    for m in b:
        randomize(m, rng, -0.3, 0.3)
    return b


def test_dual_score_nlg_matches_independent_formula(tiny_vocabs):
    b = _bundle(tiny_vocabs)
    frame = SemanticFrame.build("find_flight",
                                [("origin", "boston"), ("destination", "denver")])
    hyps = nlg_hypotheses(b.nlg, frame, beam=5, max_len=6)
    w = DualWeights(0.3, 0.7)
    scored = []
    for rank, h in enumerate(hyps):
        ds = dual_score_nlg(h, frame, b.nlu, b.lm, b.mfm, w, derive_rng(9, "m", rank))
        scored.append((h, ds))
        # independent evaluator of the blend
        expect = 0.3 * ds.forward + (1 - 0.3) * (ds.backward + 0.7 * ds.marg_out
                                                 - 0.7 * ds.marg_in)
        assert ds.combined == pytest.approx(expect, abs=0)
    order = sorted(range(len(scored)),
                   key=lambda i: (-scored[i][1].combined, -scored[i][1].forward, i))
    assert rerank_index(scored) == order[0]


def test_dual_score_nlu_degenerate_candidate(tiny_vocabs):
    b = _bundle(tiny_vocabs, seed=7)
    utt = tiny_vocabs.bpe.encode("show flights from boston")
    o_tag = tiny_vocabs.labels.tag_id("O")
    cand = Hypothesis(payload=(o_tag,) * len(utt.tokens), forward_logprob=-1.0,
                      per_step=(-0.25,) * len(utt.tokens), intent=None)
    ds = dual_score_nlu(cand, utt, b.nlg, b.mfm, b.lm, DualWeights(0.5, 0.5),
                        derive_rng(3, "m"))
    assert ds.marg_out == 0.0  # empty frame: vacuous pseudo-likelihood
    assert math.isfinite(ds.combined) and math.isfinite(ds.backward)


def test_rerank_trivials_and_sort_oracle():
    h = [Hypothesis((i,), -float(i), (-float(i),)) for i in range(4)]
    single = [(h[0], combine(Components(-1, 0, 0, 0), DualWeights(1, 0)))]
    assert rerank(single) is h[0]
    tie = [
        (h[0], decode.DualScore(-2.0, 0, 0, 0, -5.0)),
        (h[1], decode.DualScore(-1.0, 0, 0, 0, -5.0)),  # equal combined, higher forward
        (h[2], decode.DualScore(-0.5, 0, 0, 0, -6.0)),
    ]
    assert rerank(tie) is h[1]
    rng = derive_rng(8, "sort")
    scored = [(hyp, decode.DualScore(float(f), 0, 0, 0, float(c)))
              for hyp, f, c in zip(h, rng.normal(size=4), rng.normal(size=4))]
    oracle = sorted(range(4), key=lambda i: (-scored[i][1].combined,
                                             -scored[i][1].forward, i))[0]
    assert rerank_index(scored) == oracle
    with pytest.raises(decode.DecodeError):
        rerank([])


def test_rerank_rejects_nan_combined_score():
    h = [Hypothesis((i,), -float(i), (-float(i),)) for i in range(3)]
    scored = [(h[0], decode.DualScore(-1.0, 0, 0, 0, -2.0)),
              (h[1], decode.DualScore(-2.0, 0, 0, 0, math.nan)),
              (h[2], decode.DualScore(-3.0, 0, 0, 0, -4.0))]
    with pytest.raises(decode.DecodeError, match="NaN"):
        rerank_index(scored)


# ---------------------------------------------------------------------------
# grid search


def test_weight_grid_sizes():
    assert len(weight_grid(0.1)) == 121
    assert weight_grid(1.0) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    with pytest.raises(decode.DecodeError):
        weight_grid(0.3)
    assert len(weight_grid(0.01)) == 101 * 101
    with pytest.raises(decode.DecodeError, match="at most 100 times"):
        weight_grid(0.005)


def test_zeroed_extra_components_make_every_pair_alpha_one():
    rng = derive_rng(11, "zero")
    hyps = [Hypothesis((i,), float(f), (float(f),)) for i, f in
            enumerate(sorted(rng.normal(size=6), reverse=True))]
    comps = [Components(h.forward_logprob, 0.0, 0.0, 0.0) for h in hyps]
    cache = CachedExample(hyps, comps)
    picks = {cache.select(DualWeights(a, b)) for a, b in weight_grid(0.1)}
    assert picks == {0}


def test_grid_search_rows_selection_and_recompute_oracle(tiny_corpus, tiny_vocabs):
    nlu_raw, nlg_raw = tiny_corpus
    b = _bundle(tiny_vocabs, seed=13)
    examples = nlg_raw[:5]
    res = grid_search(examples, b, "nlg", beam=4, max_len=6, seed=21, step=0.5)
    assert len(res.rows) == 9
    assert set(res.best) == {"bleu", "rouge1", "rouge2", "rougeL"}
    # recompute-from-scratch oracle for every pair
    for (a, beta), picks in res.selections.items():
        w = DualWeights(a, beta)
        for idx, ex in enumerate(examples):
            hyps = nlg_hypotheses(b.nlg, ex.frame, beam=4, max_len=6)
            scored = []
            for rank, h in enumerate(hyps):
                ds = dual_score_nlg(h, ex.frame, b.nlu, b.lm, b.mfm, w,
                                    derive_rng(21, "mask", idx))
                scored.append((h, ds))
            assert rerank_index(scored) == picks[idx]
    # argmax per metric reproducible from the rows alone
    for name, (alpha, beta, value) in res.best.items():
        best = max(res.rows, key=lambda r: r.metrics[name]).metrics[name]
        assert value == best
        first = next(r for r in res.rows if r.metrics[name] == best)
        assert (alpha, beta) == (first.alpha, first.beta)


def test_grid_search_nlu_direction(tiny_corpus, tiny_vocabs):
    nlu_raw, _ = tiny_corpus
    b = _bundle(tiny_vocabs, seed=17)
    res = grid_search(nlu_raw[:4], b, "nlu", beam=4, k_intent=2, seed=3, step=1.0)
    assert len(res.rows) == 4
    assert "intent_accuracy" in res.metric_names and "slot_f1" in res.metric_names
    csv = res.to_csv()
    assert csv.splitlines()[0] == "alpha,beta," + ",".join(res.metric_names)
    assert len(csv.splitlines()) == 5


def test_nlu_split_without_gold_intents_reports_no_intent_accuracy(tiny_corpus, tiny_vocabs):
    nlu_raw, _ = tiny_corpus
    assert tiny_vocabs.labels.n_intents > 0
    examples = [NluExample(ex.text, ex.tags) for ex in nlu_raw[:4]]
    b = _bundle(tiny_vocabs, seed=17)
    res = grid_search(examples, b, "nlu", beam=3, k_intent=2, seed=3, step=1.0)
    assert res.metric_names == ["slot_precision", "slot_recall", "slot_f1"]
    assert res.to_csv().splitlines()[0] == "alpha,beta,slot_precision,slot_recall,slot_f1"
    plain, _ = decode.evaluate_direction(examples, b, "nlu", None, beam=3, k_intent=2)
    assert plain.intent_accuracy is None
    # every grid row is the report of its pair's re-ranked selection
    for row in res.rows:
        rep, _ = decode.evaluate_direction(examples, b, "nlu", DualWeights(row.alpha, row.beta),
                                           beam=3, k_intent=2, seed=3)
        assert row.report == rep


def test_alpha_one_rerank_equals_beam_top1_property(tiny_corpus, tiny_vocabs):
    nlu_raw, nlg_raw = tiny_corpus
    b = _bundle(tiny_vocabs, seed=19)
    nlg_cache = decode.precompute_nlg(nlg_raw[:6], b, beam=4, max_len=6, seed=5)
    nlu_cache = decode.precompute_nlu(nlu_raw[:6], b, beam=4, k_intent=2, seed=5)
    for cache in (nlg_cache, nlu_cache):
        for c in cache:
            for beta in (0.0, 0.5, 1.0):
                assert c.select(DualWeights(1.0, beta)) == 0


def test_dropping_marg_in_changes_no_rerank_decision(tiny_corpus, tiny_vocabs):
    nlu_raw, nlg_raw = tiny_corpus
    b = _bundle(tiny_vocabs, seed=23)
    cache = decode.precompute_nlg(nlg_raw[:6], b, beam=4, max_len=6, seed=7)
    cache += decode.precompute_nlu(nlu_raw[:6], b, beam=4, k_intent=2, seed=7)
    for c in cache:
        for a, beta in weight_grid(0.5):
            w = DualWeights(a, beta)
            base = c.select(w)
            stripped = [Components(x.forward, x.backward, x.marg_out, 0.0)
                        for x in c.components]
            alt = CachedExample(c.hypotheses, stripped).select(w)
            assert base == alt


def test_component_caching_matches_fresh_runs(tiny_corpus, tiny_vocabs):
    nlu_raw, _ = tiny_corpus
    b = _bundle(tiny_vocabs, seed=29)
    examples = nlu_raw[:3]
    res = grid_search(examples, b, "nlu", beam=3, k_intent=2, seed=11, step=1.0)
    utts = [tiny_vocabs.bpe.encode(ex.text) for ex in examples]
    for (a, beta), picks in res.selections.items():
        w = DualWeights(a, beta)
        for idx, utt in enumerate(utts):
            hyps = nlu_hypotheses(b.nlu, utt, 3, 2)
            scored = []
            for rank, h in enumerate(hyps):
                ds = dual_score_nlu(h, utt, b.nlg, b.mfm, b.lm, w,
                                    derive_rng(11, "mask", idx, rank))
                scored.append((h, ds))
            assert rerank_index(scored) == picks[idx]


def test_empty_validation_set_rejected(tiny_vocabs):
    b = _bundle(tiny_vocabs)
    with pytest.raises(decode.DecodeError):
        grid_search([], b, "nlg", beam=2)


def test_evaluate_direction_plain_equals_alpha_one(tiny_corpus, tiny_vocabs):
    nlu_raw, nlg_raw = tiny_corpus
    b = _bundle(tiny_vocabs, seed=37)
    plain, plain_traces = decode.evaluate_direction(nlg_raw[:4], b, "nlg", None,
                                                    beam=3, max_len=6, seed=2)
    assert plain_traces == []
    dual, traces = decode.evaluate_direction(nlg_raw[:4], b, "nlg", DualWeights(1.0, 0.5),
                                             beam=3, max_len=6, seed=2)
    assert plain.bleu == dual.bleu and plain.rougeL == dual.rougeL
    assert all(t["selected"] == 0 for t in traces)
    for t in traces:
        for row in t["hypotheses"]:
            expect = row["forward"]  # alpha = 1
            assert row["combined"] == pytest.approx(expect, abs=0)


# ---------------------------------------------------------------------------
# the grid sweep's selections and reports, and whole-split precomputes


TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0])


def _drawn_caches(draw, direction, examples, vocabs):
    """Beams with random payloads whose components come from TIE_VALUES, so
    equal combined and forward scores occur often."""
    labels = vocabs.labels
    cached = []
    for ex in examples:
        utt = None
        if direction == "nlu":
            utt = vocabs.bpe.encode(ex.text)
        hyps, comps = [], []
        for _ in range(draw(st.integers(1, 5))):
            if direction == "nlu":
                payload = tuple(draw(st.lists(st.integers(0, labels.n_tags - 1),
                                              min_size=len(utt.tokens),
                                              max_size=len(utt.tokens))))
                intent = draw(st.integers(0, labels.n_intents - 1))
            else:
                payload = tuple(draw(st.lists(st.integers(4, len(vocabs.bpe.pieces) - 1),
                                              max_size=6)))
                intent = None
            c = Components(*(draw(TIE_VALUES) for _ in range(4)))
            hyps.append(Hypothesis(payload, c.forward, (c.forward,), intent))
            comps.append(c)
        cached.append(CachedExample(hyps, comps, utt))
    return cached


@settings(max_examples=25, deadline=None)
@given(st.data(), st.sampled_from(["nlg", "nlu"]))
def test_sweep_picks_and_reports_equal_rerank_and_fresh_reports(tiny_corpus, tiny_vocabs,
                                                                data, direction):
    nlu_raw, nlg_raw = tiny_corpus
    examples = (nlg_raw if direction == "nlg" else nlu_raw)[:4]
    bundle = ModelsBundle(make_model("nlu", tiny_vocabs), None, None, None)
    cached = _drawn_caches(data.draw, direction, examples, tiny_vocabs)
    pairs = weight_grid(0.25)
    res = decode.sweep(examples, bundle, direction, cached, pairs)
    assert [(r.alpha, r.beta) for r in res.rows] == pairs
    for row in res.rows:
        w = DualWeights(row.alpha, row.beta)
        picks = [rerank_index([(h, combine(comp, w)) for h, comp in
                               zip(c.hypotheses, c.components)]) for c in cached]
        assert res.selections[(row.alpha, row.beta)] == picks
        fresh = decode._reporter(direction, examples, tiny_vocabs, cached)(picks)
        assert row.report == fresh


def test_nan_component_raises_in_the_sweep(tiny_corpus, tiny_vocabs):
    _, nlg_raw = tiny_corpus
    hyps = [Hypothesis((5,), -1.0, (-1.0,)), Hypothesis((6,), -2.0, (-2.0,))]
    comps = [Components(-1.0, -1.0, 0.0, 0.0), Components(-2.0, math.nan, 0.0, 0.0)]
    cached = [CachedExample(hyps, comps)]
    bundle = ModelsBundle(make_model("nlu", tiny_vocabs), None, None, None)
    with pytest.raises(decode.DecodeError, match="hypothesis 1 is NaN"):
        decode.sweep(nlg_raw[:1], bundle, "nlg", cached, [(0.5, 0.5)])


def _outcome(call):
    """``call()``, or the message of the DecodeError it raises."""
    try:
        return call()
    except decode.DecodeError as e:
        return str(e)


def _reference_selections(cached, pairs):
    """Each pair's picks by ``rerank_index`` over ``combine``, pair by pair
    and example by example, or the message of the first DecodeError."""
    return _outcome(lambda: {
        (a, b): [rerank_index([(h, combine(comp, DualWeights(a, b))) for h, comp in
                               zip(c.hypotheses, c.components)]) for c in cached]
        for a, b in pairs})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_sweep_equals_rerank_index_at_every_grid_pair(tiny_corpus, tiny_vocabs, data):
    # exact ties, both zeros, values whose sums round (so an operand order
    # other than combine's flips ties), and -inf, which makes NaN at some
    # pairs (0 * -inf, -inf - -inf) and +inf or -inf at others; NaN itself,
    # and empty beams
    _, nlg_raw = tiny_corpus
    pool = [-1.0, -0.7, -0.5, -0.3, -0.0, 0.0] + data.draw(
        st.sampled_from([[], [-math.inf], [-math.inf, math.nan]]))
    value = st.sampled_from(pool)
    sizes = data.draw(st.lists(st.integers(data.draw(st.sampled_from([1, 1, 0])), 4),
                               min_size=1, max_size=4))
    cached = []
    for n in sizes:
        comps = [Components(*(data.draw(value) for _ in range(4))) for _ in range(n)]
        cached.append(CachedExample([Hypothesis((5 + r,), c.forward, (c.forward,))
                                     for r, c in enumerate(comps)], comps))
    examples = nlg_raw[:len(cached)]
    bundle = ModelsBundle(make_model("nlu", tiny_vocabs), None, None, None)
    pairs = weight_grid(0.1)
    assert _outcome(lambda: decode.sweep(examples, bundle, "nlg", cached, pairs).selections
                    ) == _reference_selections(cached, pairs)
    for a, b in pairs:
        assert _outcome(lambda: {(a, b): decode.rerank_indices(
            cached, [DualWeights(a, b)])[0].tolist()}) == _reference_selections(cached, [(a, b)])


def test_sweep_raises_for_the_first_nan_in_pair_example_rank_order(tiny_corpus, tiny_vocabs):
    _, nlg_raw = tiny_corpus
    bundle = ModelsBundle(make_model("nlu", tiny_vocabs), None, None, None)

    def beam(*comps):
        return CachedExample([Hypothesis((5 + r,), c.forward, (c.forward,))
                              for r, c in enumerate(comps)], list(comps))
    # NaN at alpha = 0 only (0 * -inf), at rank 1; NaN at every pair, at rank 0
    at_alpha_0 = beam(Components(-1.0, -1.0, 0.0, 0.0), Components(-math.inf, -1.0, 0.0, 0.0))
    everywhere = beam(Components(-1.0, math.nan, 0.0, 0.0), Components(-1.0, -1.0, 0.0, 0.0))
    cases = [([at_alpha_0, everywhere], [(0.0, 0.0)], "hypothesis 1 is NaN"),
             ([everywhere, at_alpha_0], [(0.0, 0.0)], "hypothesis 0 is NaN"),
             ([at_alpha_0, everywhere], [(0.5, 0.0), (0.0, 0.0)], "hypothesis 0 is NaN"),
             ([at_alpha_0, beam()], [(0.0, 0.0)], "hypothesis 1 is NaN"),
             ([beam(), at_alpha_0], [(0.0, 0.0)], "cannot rerank an empty hypothesis list"),
             ([at_alpha_0, beam()], [(0.5, 0.0)], "cannot rerank an empty hypothesis list")]
    for cached, pairs, message in cases:
        assert _reference_selections(cached, pairs).endswith(message)
        with pytest.raises(decode.DecodeError, match=message):
            decode.sweep(nlg_raw[:len(cached)], bundle, "nlg", cached, pairs)


def _unmemoized_components(examples, b, beam, k_intent, seed):
    out = []
    for idx, ex in enumerate(examples):
        utt = b.vocabs.bpe.encode(ex.text)
        [marg_in] = decode.lm_score_tokens(b.lm, [utt.tokens])
        # each hypothesis scored alone, as a beam of one
        out.append([decode.dual_components_nlu([h], [utt], b.nlg, b.mfm, [marg_in],
                                               [derive_rng(seed, "mask", idx, rank)])[0]
                    for rank, h in enumerate(nlu_hypotheses(b.nlu, utt, beam, k_intent))])
    return out


def test_precompute_nlu_equals_one_row_components(tiny_corpus, tiny_vocabs):
    nlu_raw, _ = tiny_corpus
    b = _bundle(tiny_vocabs, seed=41)
    examples = nlu_raw[:5]
    cached = decode.precompute_nlu(examples, b, beam=6, k_intent=3, seed=9)
    assert [c.components for c in cached] == _unmemoized_components(examples, b, 6, 3, 9)
    # the candidates of one input repeat pairs, and each is encoded anew
    frames = [decode.candidate_frame(b.nlg, c.utt, h)
              for c in cached for h in c.hypotheses]
    pairs = [(k, v) for f in frames for k, v in f.slots]
    assert len(set(pairs)) < len(pairs)


def test_precompute_nlg_equals_one_row_components(tiny_corpus, tiny_vocabs):
    # one call per component scores the whole split; each hypothesis must get
    # what it gets scored alone with its own input frame and marg_in
    _, nlg_raw = tiny_corpus
    b = _bundle(tiny_vocabs, seed=47)
    examples = nlg_raw[:8]
    assert len({ex.frame.n_features for ex in examples}) > 1
    assert len({len(ref) for ex in examples for ref in ex.refs}) > 1
    cached = decode.precompute_nlg(examples, b, beam=5, max_len=8, seed=6)
    assert len({len(h.payload) for c in cached for h in c.hypotheses}) > 1
    for idx, (ex, c) in enumerate(zip(examples, cached)):
        assert c.hypotheses == nlg_hypotheses(b.nlg, ex.frame, 5, 8)
        marg_in = decode.frame_marginal(b.mfm, [ex.frame], [derive_rng(6, "mask", idx)])
        assert c.components == [
            decode.dual_components_nlg([h], [ex.frame], b.nlu, b.lm, marg_in)[0]
            for h in c.hypotheses]


def test_pair_memo_does_not_outlive_its_precompute_call(tiny_corpus, tiny_vocabs):
    nlu_raw, _ = tiny_corpus
    b = _bundle(tiny_vocabs, seed=43)
    examples = nlu_raw[:3]
    first = decode.precompute_nlu(examples, b, beam=4, k_intent=2, seed=4)
    for m in (b.nlg, b.mfm):
        m.arrays["enc_f.w_ih"] += 0.25  # in place, as an optimizer step writes
    second = decode.precompute_nlu(examples, b, beam=4, k_intent=2, seed=4)
    fresh = _unmemoized_components(examples, b, 4, 2, 4)
    assert [c.components for c in second] == fresh
    assert [c.components for c in first] != fresh
