"""Span tracing for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of ``dualdec`` that the
per-layer metrics need, at every name their callers look up (``decode``
imports ``nlg_score`` by name, so ``dualdec.decode.nlg_score`` is wrapped as
well as ``dualdec.models.nlg_score``), and counts ``Tensor`` objects and
``combine`` calls without spans. ``Tracer.uninstall`` puts the originals back.
Spans (name, start, end, parent) are kept in memory and written out by the
harness when the run ends; ``layer_metrics`` turns them into the per-layer
numbers listed in ``BENCHMARK.json``.

Untraced runs never call ``install``; after every run ``wrapped_names``
checks that each traced name holds its original function again.
"""
from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped function or method; the span is named
# "<module>.<attribute>" after the defining module.
TARGETS = (
    ("tensor", "backward"), ("tensor", "adam_step"), ("tensor", "clip_grad_norm"),
    ("models", "train_model"),
    ("models", "nlu_forcing_graph"), ("models", "nlg_forcing_graph"),
    ("models", "lm_forcing_graph"), ("models", "mfm_loss_graph"),
    ("models", "nlu_step"), ("models", "nlg_step"),
    ("models", "nlu_score"), ("models", "nlg_score"),
    ("models", "lm_score_tokens"), ("models", "masked_frame_score"),
    ("decode", "nlg_hypotheses"), ("decode", "nlu_hypotheses"),
    ("decode", "precompute_nlg"), ("decode", "precompute_nlu"),
    ("decode", "nlg_backward_logprob"), ("decode", "frame_marginal"),
    ("decode", "candidate_frame"), ("decode", "grid_search"),
    ("metrics", "bleu"), ("metrics", "rouge_n_corpus"), ("metrics", "rouge_l_corpus"),
    ("metrics", "slot_f1"),
    ("textproc", "bpe_train"), ("textproc", "BpeModel.encode"),
    ("frames", "collapse_piece_tags"), ("frames", "align_tags_to_pieces"),
    ("frames", "frame_to_iob"), ("frames", "iob_to_frame"),
    ("data", "load_checkpoint"), ("data", "save_checkpoint"),
    ("data", "load_nlu"), ("data", "load_nlg"), ("data", "save_nlu"), ("data", "save_nlg"),
)
# counted under "<module>.<attribute>", never given a span: combine runs ~10^5
# times per grid sweep, Tensor.__init__ once per graph node
COUNTED = (("decode", "combine"), ("tensor", "Tensor.__init__"))

KINDS = ("nlu", "nlg", "lm", "mfm")
DIRECTIONS = ("nlg", "nlu")
COMMANDS = ("train", "eval", "dualinf", "gridsearch")
SCORERS = ("nlu_score", "nlg_score", "lm_score_tokens", "masked_frame_score")
FORCING = {"models.nlu_forcing_graph": "nlu", "models.nlg_forcing_graph": "nlg",
           "models.lm_forcing_graph": "lm", "models.mfm_loss_graph": "mfm"}
# which call inside precompute_<dir> computes which score component
COMPONENTS = {
    "nlg": {"backward": "decode.nlg_backward_logprob",
            "marg_out": "models.lm_score_tokens", "marg_in": "decode.frame_marginal"},
    "nlu": {"backward": "models.nlg_score",
            "marg_out": "decode.frame_marginal", "marg_in": "models.lm_score_tokens"},
}
FRAMES = {"frames.collapse_piece_tags", "frames.align_tags_to_pieces",
          "frames.frame_to_iob", "frames.iob_to_frame"}
MARK = "__bench_wrapped__"

# span record fields
NAME, START, END, PARENT, INFO = range(5)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"dualdec.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _binding_sites(module: str, attr: str):
    """(owner, name) pairs through which callers reach the target: the
    defining module or class, plus every dualdec module that imported the
    function by name."""
    owner, name = _resolve(module, attr)
    original = owner.__dict__[name]
    sites = [(owner, name)]
    if "." not in attr:
        for mod_name, mod in sorted(sys.modules.items()):
            if ((mod_name == "dualdec" or mod_name.startswith("dualdec."))
                    and mod is not owner
                    and mod.__dict__.get(name) is original):
                sites.append((mod, name))
    return original, sites


def _site_name(owner, name: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{name}"
    return f"{owner.__name__}.{name}"


def wrapped_names() -> list[str]:
    """Every traced name that holds a wrapper instead of the original."""
    out = []
    for module, attr in TARGETS + COUNTED:
        _, sites = _binding_sites(module, attr)
        out += [_site_name(owner, name) for owner, name in sites
                if getattr(owner.__dict__[name], MARK, False)]
    return out


def _hyp_info(args, out):
    # nlg_hypotheses(model, frame, beam, max_len) / nlu_hypotheses(model, utt, beam, k)
    return {"n": len(out), "maxlen": args[3] if len(args) > 3 else None,
            "lengths": [len(h.payload) for h in out]}


def _grid_info(args, out):
    picks = {tuple(v) for v in out.selections.values()}
    return {"direction": out.direction, "rows": len(out.selections), "distinct": len(picks)}


def _frame_info(args, out):
    return {"utt": id(args[1]), "frame": out}


POST = {
    "models.train_model": lambda args, out: {"kind": args[0]},
    "decode.nlg_hypotheses": _hyp_info,
    "decode.nlu_hypotheses": _hyp_info,
    "decode.grid_search": _grid_info,
    "decode.candidate_frame": _frame_info,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        begin, end, post = self.begin, self.end, POST.get(name)

        def wrapper(*args, **kwargs):
            rec = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(rec)
            if post is not None:
                rec[INFO] = post(args, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        for module, attr in TARGETS + COUNTED:
            original, sites = _binding_sites(module, attr)
            if (module, attr) in COUNTED:
                wrapper = self._counter(original, f"{module}.{attr}")
            else:
                wrapper = self._wrap(original, f"{module}.{attr.split('.')[-1]}")
            for owner, name in sites:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def write(self, path, meta: dict) -> None:
        """Spans as JSON lines after one header line; times in seconds from
        the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counts": dict(self.counts)}) + "\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 9), round(end - t0, 9),
                                     parent]) + "\n")


# -- derivation ---------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, iterations: int, samples: int,
                  traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of ``iterations`` traced repetitions
    of a workload's focus stage. Times and counts are per repetition."""
    spans = tracer.spans
    n = max(iterations, 1)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    step_child = [0.0] * len(spans)
    precompute_child = [0.0] * len(spans)
    # whether a span runs inside train_model, and inside another frames span
    in_train = [False] * len(spans)
    frames_parent = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        child_time[p] += dur[i]
        if s[NAME] in ("models.nlg_step", "models.nlu_step"):
            step_child[p] += dur[i]
        elif s[NAME] in ("decode.precompute_nlg", "decode.precompute_nlu"):
            precompute_child[p] += dur[i]
        in_train[i] = in_train[p] or spans[p][NAME] == "models.train_model"
        frames_parent[i] = spans[p][NAME] in FRAMES or frames_parent[p]

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        total[s[NAME]] += dur[i]
        calls[s[NAME]] += 1

    m: dict[str, float] = {}
    m["tensor.backward_s"] = total["tensor.backward"] / n
    m["tensor.optimizer_s"] = (total["tensor.adam_step"] + total["tensor.clip_grad_norm"]) / n
    m["tensor.tensors_per_sample"] = tracer.counts["tensor.Tensor.__init__"] / max(samples, 1)

    fwd = defaultdict(float)
    train_s = defaultdict(float)
    for i, s in enumerate(spans):
        if s[NAME] in FORCING and in_train[i]:
            fwd[FORCING[s[NAME]]] += dur[i]
        elif s[NAME] == "models.train_model":
            train_s[s[INFO]["kind"]] += dur[i]
    for k in KINDS:
        m[f"models.forward_s.{k}"] = fwd[k] / n
        m[f"models.train_s.{k}"] = train_s[k] / n
    for d in DIRECTIONS:
        m[f"models.step_calls.{d}"] = calls[f"models.{d}_step"] / n
        m[f"models.step_s.{d}"] = total[f"models.{d}_step"] / n
    for sc in SCORERS:
        m[f"models.score_calls.{sc}"] = calls[f"models.{sc}"] / n
        m[f"models.score_s.{sc}"] = total[f"models.{sc}"] / n

    comp = defaultdict(float)
    beam_ms = defaultdict(list)
    beam_self = defaultdict(float)
    hyps = defaultdict(int)
    maxlen_hits = 0
    pre_self = defaultdict(float)
    sweep = defaultdict(float)
    grid_rows = grid_distinct = 0
    # candidate frames of one example come from consecutive calls on one utterance
    frame_groups: list[set] = []
    group_key = None
    n_frames = 0
    for i, s in enumerate(spans):
        name, info = s[NAME], s[INFO]
        p = s[PARENT]
        parent = spans[p][NAME] if p >= 0 else ""
        if name in ("decode.nlg_hypotheses", "decode.nlu_hypotheses"):
            d = name.split(".")[1][:3]
            beam_ms[d].append(dur[i] * 1e3)
            beam_self[d] += dur[i] - step_child[i]
            hyps[d] += info["n"]
            if d == "nlg":
                maxlen_hits += sum(length == info["maxlen"] for length in info["lengths"])
        elif name in ("decode.precompute_nlg", "decode.precompute_nlu"):
            pre_self[name[-3:]] += dur[i] - child_time[i]
        elif name == "decode.grid_search":
            sweep[info["direction"]] += dur[i] - precompute_child[i]
            grid_rows += info["rows"]
            grid_distinct += info["distinct"]
        elif name == "decode.candidate_frame" and parent == "decode.precompute_nlu":
            if (p, info["utt"]) != group_key:
                group_key = (p, info["utt"])
                frame_groups.append(set())
            frame_groups[-1].add(info["frame"])
            n_frames += 1
        if parent in ("decode.precompute_nlg", "decode.precompute_nlu"):
            d = parent[-3:]
            for part, fn in COMPONENTS[d].items():
                if name == fn:
                    comp[(d, part)] += dur[i]
    for d in DIRECTIONS:
        m[f"decode.beam_s.{d}"] = sum(beam_ms[d]) / 1e3 / n
        m[f"decode.beam_ms_p50.{d}"] = _percentile(beam_ms[d], 0.5)
        m[f"decode.beam_ms_p90.{d}"] = _percentile(beam_ms[d], 0.9)
        m[f"decode.beam_samples.{d}"] = len(beam_ms[d]) / n
        m[f"decode.beam_self_s.{d}"] = beam_self[d] / n
        m[f"decode.hyps_per_example.{d}"] = hyps[d] / len(beam_ms[d]) if beam_ms[d] else 0.0
        for part in ("backward", "marg_out", "marg_in"):
            m[f"decode.component_s.{d}.{part}"] = comp[(d, part)] / n
        m[f"decode.precompute_self_s.{d}"] = pre_self[d] / n
        m[f"decode.grid_sweep_s.{d}"] = sweep[d] / n
    m["decode.maxlen_hits"] = maxlen_hits / n
    m["decode.nlu_distinct_frame_ratio"] = (
        sum(len(g) for g in frame_groups) / n_frames if n_frames else 0.0)
    m["decode.combine_calls"] = tracer.counts["decode.combine"] / n
    m["decode.grid_distinct_selection_ratio"] = grid_distinct / grid_rows if grid_rows else 0.0

    m["metrics.text_s"] = sum(total[f"metrics.{f}"] for f in
                              ("bleu", "rouge_n_corpus", "rouge_l_corpus")) / n
    m["metrics.slot_s"] = total["metrics.slot_f1"] / n
    m["textproc.bpe_train_s"] = total["textproc.bpe_train"] / n
    m["textproc.encode_calls"] = calls["textproc.encode"] / n
    m["textproc.encode_s"] = total["textproc.encode"] / n
    m["frames.s"] = sum(dur[i] for i, s in enumerate(spans)
                        if s[NAME] in FRAMES and not frames_parent[i]) / n
    m["data.checkpoint_io_s"] = (total["data.load_checkpoint"]
                                 + total["data.save_checkpoint"]) / n
    m["data.jsonl_io_s"] = sum(total[f"data.{f}"] for f in
                               ("load_nlu", "load_nlg", "save_nlu", "save_nlg")) / n
    for c in COMMANDS:
        m[f"cli.{c}_s"] = total[f"cli.{c}"] / n
    top = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    m["trace.overhead_share"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls) - 1.0)
    # top-level spans over the untraced wall time: 1 + the overhead when the
    # spans account for all of it
    m["trace.top_span_coverage"] = top / n / statistics.median(untraced_walls)
    m["trace.spans_per_iteration"] = len(spans) / n
    return m
