"""Benchmark harness for dualdec: end-to-end metrics, output checks and a
traced per-layer breakdown, all through the public CLI (``dualdec.cli.main``)
run in this one process.

    python3 bench/run.py --workload {train,dualinf,gridsearch} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the interpreter, numpy, BLAS build and CPU count.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. See bench/README.md for what each workload
exercises and which layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import os
import sys

# BLAS and OpenMP read these once, when numpy loads its library.
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = BENCH / "fixture"
WORK_ROOT = BENCH / ".work"
TRACE_DIR = BENCH / ".traces"
KINDS = ("nlu", "nlg", "lm", "mfm")
SETUP_REPEATS = 9
# a workload's own stages run at least twice, so their outputs can be compared
MIN_OWN_RUNS = 2
# HostProbe.sample's typical time on a 2-vCPU x86-64 VM; it only sets the
# scale of the corrected timings
PROBE_NOMINAL_S = 0.15


@dataclass(frozen=True)
class Sizes:
    """Split sizes and decode settings of one run. Every split is a multiple
    of 8, so each of the synthetic corpus' 8 templates appears equally often."""

    train: int
    test: int
    valid: int
    # in an untraced run every command is timed for at least this long
    min_command_s: float = 6.0
    beam: int = 20
    max_len: int = 60
    grid_beam: int = 10
    grid_max_len: int = 16


SCALES = {
    "full": Sizes(train=64, test=24, valid=48),
    # harness self-test only: seconds per workload, not a measurement
    "tiny": Sizes(train=8, test=8, valid=16, min_command_s=0.0, beam=4, max_len=16,
                  grid_beam=4, grid_max_len=12),
}

# lift-run model and training settings of the acceptance suite (criterion 6)
LIFT_MODEL = {"hidden": 48, "embedding": 24, "merges": 600}
LIFT_TRAIN = {"batch_size": 4, "lr": 3e-3, "teacher_forcing": 0.9}
TRAIN_EPOCHS = 1
CONFIG_SEED = 5


class BenchError(RuntimeError):
    """The harness cannot run at all (missing sources, bad fixture)."""


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, or None when
    the library or its query symbol cannot be found."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = _blas_threads()
    pinned = (not NUMPY_LOADED_BEFORE_PIN
              and all(os.environ.get(v) == "1" for v in PINNED_THREAD_VARS)
              and threads in (1, None))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": "in effect" if pinned and threads == 1 else
                      "env only (BLAS not queried)" if pinned else "NOT IN EFFECT",
    }


def import_dualdec():
    if not (SRC / "dualdec" / "__init__.py").is_file():
        raise BenchError(f"no dualdec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualdec
    import dualdec.cli

    if Path(dualdec.__file__).resolve().parent != (SRC / "dualdec").resolve():
        raise BenchError(f"imported dualdec from {dualdec.__file__}, not from {SRC}")
    return dualdec


# ---------------------------------------------------------------------------
# outcome bookkeeping


class Ledger:
    """Counts CLI calls and output checks; every one is an attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def problems(self, problems: list[str], what: str) -> bool:
        return self.check(not problems, f"{what}: {'; '.join(problems)}")


def digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, configs, fixture verification


def verify_fixture() -> None:
    recorded = json.loads((FIXTURE / "fixture.json").read_text())["sha256"]
    for kind in KINDS:
        got = hashlib.sha256((FIXTURE / f"{kind}.ckpt").read_bytes()).hexdigest()
        if got != recorded[kind]:
            raise BenchError(f"fixture {kind}.ckpt has sha256 {got}, "
                             f"fixture.json records {recorded[kind]}")


def setup(ws: Path, seed: int, sizes: Sizes, cli_main) -> None:
    """Generate the workload inputs with ``dualdec synth`` and write the
    configs; verify the fixture checkpoints."""
    verify_fixture()
    data = ws / "data"
    code = cli_main(["synth", "--out", str(data), "--seed", str(seed),
                     "--train-size", str(sizes.train), "--valid-size", str(sizes.valid),
                     "--test-size", str(sizes.test)])
    if code != 0:
        raise BenchError(f"dualdec synth exited {code}")
    paths = {f"{d}_{s}": str(data / f"{d}_{s}.jsonl")
             for d in ("nlu", "nlg") for s in ("train", "valid", "test")}
    base = {"seed": CONFIG_SEED, "model": LIFT_MODEL, "data": paths}
    configs = {
        "train": {**base, "train": {**LIFT_TRAIN, "epochs": TRAIN_EPOCHS}},
        "decode": {**base, "decode": {"beam": sizes.beam, "max_len": sizes.max_len,
                                      "k_intent": 3}},
        "grid": {**base, "decode": {"beam": sizes.grid_beam,
                                    "max_len": sizes.grid_max_len, "k_intent": 3}},
    }
    for name, cfg in configs.items():
        (ws / f"{name}.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# output checks (pure functions of output directories; the self-test feeds
# them tampered copies)


def read_grid_csv(path: Path) -> tuple[list[str], list[dict[str, float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def check_alpha_one_rows(grid_dir: Path) -> list[str]:
    """alpha = 1 ignores beta, so the 11 alpha = 1 rows of every grid must
    hold identical metrics."""
    problems = []
    for direction in ("nlg", "nlu"):
        _, rows = read_grid_csv(grid_dir / f"grid_{direction}.csv")
        ones = [tuple(v for k, v in r.items() if k not in ("alpha", "beta"))
                for r in rows if r["alpha"] == 1.0]
        if len(ones) != 11 or len(set(ones)) != 1:
            problems.append(f"grid_{direction}.csv: {len(ones)} alpha=1 rows, "
                            f"{len(set(ones))} distinct")
    return problems


def grid_bleu_lift(grid_dir: Path) -> float:
    _, rows = read_grid_csv(grid_dir / "grid_nlg.csv")
    base = next(r["bleu"] for r in rows if r["alpha"] == 1.0)
    return max(r["bleu"] for r in rows) - base


class RankZeroOracle:
    """Recomputes the plain (alpha = 1) report from the rank-0 hypotheses of
    a ``dualinf`` trace, with the fixture's tokenizer and label inventory."""

    def __init__(self):
        from dualdec import data, textproc

        ckpt = data.load_checkpoint(FIXTURE / "nlu.ckpt")
        self.bpe = textproc.BpeModel.from_dict(ckpt.vocab)
        self.labels = textproc.LabelVocab.from_dict(ckpt.labels)

    def report(self, dualinf_dir: Path, data_dir: Path) -> dict:
        from dualdec import data, frames, metrics

        def traces(direction):
            with open(dualinf_dir / f"trace_{direction}.jsonl", encoding="utf-8") as fh:
                return [json.loads(ln) for ln in fh]

        nlg = data.load_nlg(data_dir / "nlg_test.jsonl")
        hyps = [t["hypotheses"][0]["text"] for t in traces("nlg")]
        rep_nlg = metrics.evaluate_nlg(hyps, [list(ex.refs) for ex in nlg])
        nlu = data.load_nlu(data_dir / "nlu_test.jsonl")
        pred_tags, pred_intents = [], []
        for t in traces("nlu"):
            top = t["hypotheses"][0]
            utt = self.bpe.encode(t["input"])
            pred_tags.append(frames.collapse_piece_tags(
                [self.labels.tags[i] for i in top["payload"]], utt))
            pred_intents.append(top.get("intent"))
        rep_nlu = metrics.evaluate_nlu(pred_intents, [ex.intent for ex in nlu],
                                       pred_tags, [list(ex.tags) for ex in nlu])
        return json.loads(metrics.merge_reports(rep_nlu, rep_nlg).to_json())


def check_eval_matches_rank0(eval_dir: Path, dualinf_dir: Path, data_dir: Path,
                             oracle: RankZeroOracle) -> list[str]:
    """The alpha = 1 reduction: ``eval``'s report equals the metrics of the
    beam's rank-0 hypotheses that ``dualinf`` re-ranked."""
    got = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
    want = oracle.report(dualinf_dir, data_dir)
    return [f"eval {k}={got.get(k)!r} but rank-0 gives {v!r}"
            for k, v in want.items() if got.get(k) != v]


# ---------------------------------------------------------------------------
# host speed


class HostProbe:
    """A fixed piece of harness code (numpy matvecs, tuple building and a
    keyed sort, like beam search's inner loop) timed between CLI calls.

    The speed of a shared host drifts by tens of percent over seconds to
    minutes. An untraced run samples the probe before every CLI call and once
    at the end, and divides each call's wall time by the slowdown measured
    around it: the mean of the samples before and after the call, over
    PROBE_NOMINAL_S. End-to-end timings thus read as on a host that runs the
    probe in PROBE_NOMINAL_S. The probe runs no dualdec code, so a change to
    the program cannot move it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((346, 48))
        self.x = rng.standard_normal(48)
        self.keys = rng.standard_normal(40000).tolist()
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        cand = []
        for i in range(12000):
            y = self.w @ self.x
            cand.append((float(y[i % 346]), (i % 300,), (i,)))
        cand.extend((v, (i % 300,), (i,)) for i, v in enumerate(self.keys))
        cand.sort(key=lambda c: (-c[0], c[1]))
        self.times.append(time.perf_counter() - t0)

    def slowdown_after(self, i: int) -> float:
        """Slowdown over the interval between samples ``i`` and ``i + 1``."""
        return (self.times[i] + self.times[i + 1]) / 2 / PROBE_NOMINAL_S


# ---------------------------------------------------------------------------
# stages: one or two CLI calls each, timed from outside


class Stage:
    """One pipeline stage; ``run`` executes its CLI commands once, recording
    each call's wall time, and verifies the outputs; ``metrics`` derives the
    end-to-end numbers."""

    name = ""

    def __init__(self, ws: Path, cli_main, ledger: Ledger, tracer=None,
                 probe: HostProbe | None = None):
        self.ws, self.cli_main, self.ledger = ws, cli_main, ledger
        self.tracer, self.probe = tracer, probe
        self.out = ws / "out" / self.name
        self.runs = 0
        self.last_run_s = 0.0
        # (command, wall seconds, index of the probe sample taken just before)
        self.calls: list[tuple[str, float, int]] = []
        self.first_digest: dict[str, str] | None = None
        self.valid = True

    def _call(self, command: str, config: str, out: Path, *extra: str) -> None:
        argv = [command, "--config", str(self.ws / f"{config}.json"), "--out", str(out),
                *extra]
        if self.probe is not None:
            self.probe.sample()
        span = self.tracer.begin(f"cli.{command}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            code = self.cli_main(argv)
        except Exception:  # a crash is a failed call; the run goes on
            traceback.print_exc()
            code = "exception"
        wall = time.perf_counter() - t0
        if span is not None:
            self.tracer.end(span)
        self.calls.append((command, wall, len(self.probe.times) - 1 if self.probe else -1))
        if not self.ledger.check(code == 0, f"dualdec {command} exited {code}"):
            self.valid = False

    def run(self) -> None:
        self.execute()
        self.verify()

    def execute(self) -> float:
        """Run the stage's CLI commands once; returns their summed wall time."""
        first = len(self.calls)
        self._commands()
        self.runs += 1
        self.last_run_s = sum(wall for _, wall, _ in self.calls[first:])
        return self.last_run_s

    def verify(self) -> None:
        """Check the outputs on disk; a repeated run must reproduce the first
        run's files byte for byte (same paths, so manifests compare too).
        Outputs of a stage whose command failed are not checked."""
        if not self.valid:
            return
        self._check_outputs()
        digest = digest_tree(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            self.ledger.check(digest == self.first_digest,
                              f"{self.name}: same-seed rerun changed its outputs")

    def command_seconds(self) -> float:
        """Least summed wall time of any of the stage's commands so far."""
        totals: dict[str, float] = {}
        for command, wall, _ in self.calls:
            totals[command] = totals.get(command, 0.0) + wall
        return min(totals.values())

    def per_second(self, command: str, samples: int) -> float:
        """Throughput over every run of the stage: samples per second of
        ``command`` wall time, corrected for host speed when probed."""
        calls = [(wall, i) for c, wall, i in self.calls if c == command]
        seconds = sum(wall / self.probe.slowdown_after(i) if self.probe else wall
                      for wall, i in calls)
        return samples * len(calls) / seconds

    def _commands(self) -> None:
        raise NotImplementedError

    def _check_outputs(self) -> None:
        pass

    def samples(self) -> int:
        """Samples behind one run of the stage: the base of its throughput and
        of ``tensor.tensors_per_sample``."""
        raise NotImplementedError

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError


class TrainStage(Stage):
    """``dualdec train`` of all four models at the lift-run settings."""

    name = "train"

    def _commands(self):
        self._call("train", "train", self.out)

    def samples(self) -> int:
        from dualdec import data

        d = self.ws / "data"
        nlu = data.load_nlu(d / "nlu_train.jsonl")
        nlg = data.load_nlg(d / "nlg_train.jsonl")
        refs = [r for ex in nlg for r in ex.refs]
        lm = data.merge_dedup([ex.text for ex in nlu], refs)
        mfm = [f for f in data.merge_dedup([ex.frame for ex in nlg], []) if f.n_features]
        return TRAIN_EPOCHS * (len(nlu) + len(refs) + len(lm) + len(mfm))

    def metrics(self):
        if not self.valid:
            return {"train_samples_per_s": 0.0, "train_final_loss": 0.0}
        losses = json.loads((self.out / "manifest.json").read_text())["losses"]
        return {"train_samples_per_s": self.per_second("train", self.samples()),
                "train_final_loss": sum(v[-1] for v in losses.values())}


class DualinfStage(Stage):
    """``dualdec eval`` then ``dualdec dualinf``, both directions, on the test
    split at the published decode defaults."""

    name = "dualinf"
    oracle: RankZeroOracle | None = None

    def _commands(self):
        ckpt = ("--checkpoints", str(FIXTURE))
        self._call("eval", "decode", self.out / "eval", *ckpt)
        self._call("dualinf", "decode", self.out / "dualinf", *ckpt)

    def _check_outputs(self):
        if self.oracle is None:
            self.oracle = RankZeroOracle()
        self.ledger.problems(
            check_eval_matches_rank0(self.out / "eval", self.out / "dualinf",
                                     self.ws / "data", self.oracle),
            "alpha=1 reduction (eval vs dualinf rank 0)")

    def samples(self) -> int:
        rep = json.loads((self.out / "dualinf" / "report.json").read_text())
        return rep["n_nlu"] + rep["n_nlg"]

    def metrics(self):
        if not self.valid:
            return {k: 0.0 for k in ("eval_examples_per_s", "dualinf_examples_per_s",
                                     "dualinf_nlg_bleu", "dualinf_nlu_slot_f1",
                                     "dualinf_nlu_intent_acc")}
        rep = json.loads((self.out / "dualinf" / "report.json").read_text())
        n = self.samples()
        return {"eval_examples_per_s": self.per_second("eval", n),
                "dualinf_examples_per_s": self.per_second("dualinf", n),
                "dualinf_nlg_bleu": rep["bleu"],
                "dualinf_nlu_slot_f1": rep["slot_f1"],
                "dualinf_nlu_intent_acc": rep["intent_accuracy"]}


class GridStage(Stage):
    """``dualdec gridsearch --direction both`` on the validation split at the
    lift run's beam 10, max_len 16."""

    name = "gridsearch"

    def _commands(self):
        self._call("gridsearch", "grid", self.out,
                   "--checkpoints", str(FIXTURE), "--direction", "both")

    def _check_outputs(self):
        self.ledger.problems(check_alpha_one_rows(self.out), "alpha=1 grid rows")
        lift = grid_bleu_lift(self.out)
        self.ledger.check(lift > 0, f"grid_bleu_lift {lift!r} is not > 0")

    def samples(self) -> int:
        return sum(1 for d in ("nlu", "nlg")
                   for ln in (self.ws / "data" / f"{d}_valid.jsonl").read_text().splitlines()
                   if ln.strip())

    def metrics(self):
        if not self.valid:
            return {"grid_examples_per_s": 0.0, "grid_bleu_lift": 0.0}
        return {"grid_examples_per_s": self.per_second("gridsearch", self.samples()),
                "grid_bleu_lift": grid_bleu_lift(self.out)}


STAGES = {"train": TrainStage, "dualinf": DualinfStage, "gridsearch": GridStage}
# each workload's own stages: they run first, get the rest of the window and
# are the ones a traced run traces
WORKLOADS = {"train": ("train",), "decode": ("dualinf", "gridsearch")}


# ---------------------------------------------------------------------------
# runs


def _window_left(t_start: float, seconds: float, next_round_s: float) -> bool:
    """Whether a round expected to take ``next_round_s`` ends inside the
    window of ``seconds`` that opened at ``t_start``."""
    return time.perf_counter() - t_start + next_round_s <= seconds


def measure(workload: str, seed: int, seconds: float, sizes: Sizes, ws_root: Path,
            cli_main, ledger: Ledger) -> dict[str, float]:
    """Untraced run: set up SETUP_REPEATS times; run every stage, the
    workload's own stages first, until each of its commands has been timed
    for ``sizes.min_command_s`` (and each own stage has run MIN_OWN_RUNS
    times); then repeat the own stages, one round at a time, while a round
    fits in the window."""
    probe = HostProbe()
    probe.sample()
    setup_times, digests = [], []
    for i in range(SETUP_REPEATS):
        ws = ws_root / f"setup{i}"
        ws.mkdir(parents=True)
        t0 = time.perf_counter()
        setup(ws, seed, sizes, cli_main)
        setup_times.append(time.perf_counter() - t0)
        digests.append({k: v for k, v in digest_tree(ws / "data").items()
                        if k != "manifest.json"})
    ledger.check(all(d == digests[0] for d in digests),
                 "same-seed set-ups produced different inputs")

    stages = {name: cls(ws, cli_main, ledger, probe=probe) for name, cls in STAGES.items()}
    own = [stages[name] for name in WORKLOADS[workload]]
    others = [st for st in stages.values() if st not in own]
    t_start = time.perf_counter()
    # a stage whose command failed is not repeated
    for stage in own + others:
        while stage.runs < (MIN_OWN_RUNS if stage in own else 1) or (
                stage.valid and stage.command_seconds() < sizes.min_command_s):
            stage.run()
    while (all(st.valid for st in own)
           and _window_left(t_start, seconds, sum(st.last_run_s for st in own))):
        for stage in own:
            stage.run()
    probe.sample()

    # sample 0 was taken before the set-ups, sample 1 before the first call
    out = {"setup_s": statistics.median(setup_times) / probe.slowdown_after(0)}
    for stage in stages.values():
        out.update(stage.metrics())
    print(f"host: {len(probe.times)} probe samples, mean "
          f"{statistics.fmean(probe.times):.4f} s", file=sys.stderr)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def trace(workload: str, seed: int, seconds: float, sizes: Sizes, ws_root: Path,
          cli_main, ledger: Ledger, trace_path: Path, env: dict) -> dict[str, float]:
    """Traced run of the workload's own stages only: untraced and traced
    rounds alternate while a pair fits in the window, at least once, so
    their wall-time ratio is the tracing overhead."""
    ws = ws_root / "setup0"
    ws.mkdir(parents=True)
    setup(ws, seed, sizes, cli_main)
    tracer = tracing.Tracer()
    plain = [STAGES[name](ws, cli_main, ledger) for name in WORKLOADS[workload]]
    traced = [STAGES[name](ws, cli_main, ledger, tracer) for name in WORKLOADS[workload]]
    plain_walls, traced_walls = [], []

    t_start = time.perf_counter()
    while not traced_walls or (all(st.valid for st in plain + traced) and _window_left(
            t_start, seconds, plain_walls[-1] + traced_walls[-1])):
        plain_walls.append(sum(st.execute() for st in plain))
        for st in plain:
            st.verify()
        tracer.install()
        try:
            traced_walls.append(sum(st.execute() for st in traced))
        finally:
            tracer.uninstall()
        for st in traced:
            st.verify()
    for p, t in zip(plain, traced):
        ledger.check(p.first_digest == t.first_digest,
                     f"traced {t.name} outputs differ from untraced outputs")
    n_runs = len(traced_walls)
    samples = sum(st.samples() for st in traced if st.valid) * n_runs
    metrics = tracing.layer_metrics(tracer, n_runs, samples, traced_walls, plain_walls)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(trace_path, {"workload": workload, "seed": seed, "env": env,
                              "repetitions": n_runs, "traced_walls": traced_walls,
                              "untraced_walls": plain_walls})
    return metrics


def result_line(ledger: Ledger, metrics: dict[str, float], units: dict[str, str]) -> dict:
    finite = [k for k, v in metrics.items() if not math.isfinite(v)]
    ledger.check(not finite, f"non-finite metrics: {finite}")
    correct = not ledger.failures
    if "passed_share" in units:
        metrics["passed_share"] = 1.0 - len(ledger.failures) / ledger.attempted
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"harness produced no value for {missing}")
    return {"correct": correct, "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                        for k in units}}


def benchmark_units(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dualdec benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for bench/selftest.py only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        dualdec = import_dualdec()
        units = benchmark_units(bool(args.trace))
        verify_fixture()
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"bench: cannot run: {e}", file=sys.stderr)
        return 2
    env = environment()
    ledger = Ledger()
    ledger.check(env["thread_pin"] != "NOT IN EFFECT",
                 f"BLAS thread pin not in effect ({env['blas_threads']} threads)")
    sizes = SCALES[args.scale]
    ws_root = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        if args.trace:
            metrics = trace(args.workload, args.seed, args.seconds, sizes, ws_root,
                            dualdec.cli.main, ledger, trace_path, env)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, sizes, ws_root,
                              dualdec.cli.main, ledger)
        wrapped = tracing.wrapped_names()
        ledger.check(not wrapped, f"traced names still wrapped after the run: {wrapped}")
        line = result_line(ledger, metrics, units)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ws_root, ignore_errors=True)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
