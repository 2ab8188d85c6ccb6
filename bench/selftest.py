"""Self-test of the benchmark harness at tiny sizes (under a minute).

    python3 bench/selftest.py

1. Runs ``bench/run.py --scale tiny`` on every workload, untraced and traced,
   and checks that each prints every metric ``BENCHMARK.json`` names for that
   mode, with its unit, and that all output checks pass.
2. Tampers with real outputs (one edited alpha = 1 grid row, a changed rank-0
   hypothesis, an edited report, a flattened grid) and checks that the
   harness' output checks catch each one.
3. Checks that tracing patches ``dualdec`` only while installed.

Exits 0 when everything holds, 1 otherwise.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import tracing  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def harness_output(workload: str, trace: int) -> dict | None:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        expect(False, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in (w["name"] for w in spec["workloads"]):
            out = harness_output(workload, trace)
            if out is None:
                continue
            tag = f"{workload} trace={trace}"
            expect(sorted(out) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{tag}: every {section} metric printed with its unit")
            expect(all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in out["metrics"].values()), f"{tag}: values are finite")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                   f"{tag}: all {out['attempted']} output checks pass")


def _edit_grid(path: Path, column: str, edit) -> None:
    """Rewrite ``column`` of every grid row as ``edit(row)``; None keeps it."""
    header, rows = run.read_grid_csv(path)
    lines = path.read_text().splitlines()
    j = header.index(column)
    for i, row in enumerate(rows, 1):
        value = edit(row)
        if value is not None:
            vals = lines[i].split(",")
            vals[j] = repr(value)
            lines[i] = ",".join(vals)
    path.write_text("\n".join(lines) + "\n")


def caught(stage: run.Stage, what: str) -> None:
    """Re-verify a stage's tampered outputs with a fresh ledger."""
    stage.ledger = run.Ledger()
    stage.verify()
    expect(bool(stage.ledger.failures), f"tampered {what} is caught")


def check_tampering() -> None:
    dualdec = run.import_dualdec()
    cli = dualdec.cli.main
    ws = run.WORK_ROOT / f"selftest-{os.getpid()}"
    ws.mkdir(parents=True)
    try:
        run.setup(ws, 1, run.SCALES["tiny"], cli)
        ledger = run.Ledger()
        grid = run.GridStage(ws, cli, ledger)
        dual = run.DualinfStage(ws, cli, ledger)
        grid.run()
        dual.run()
        expect(not ledger.failures and ledger.attempted > 0, "untampered outputs pass")

        pristine = ws / "pristine"
        shutil.copytree(grid.out, pristine / "grid")
        shutil.copytree(dual.out, pristine / "dual")

        def restore():
            for src, dst in ((pristine / "grid", grid.out), (pristine / "dual", dual.out)):
                shutil.rmtree(dst)
                shutil.copytree(src, dst)

        _edit_grid(grid.out / "grid_nlg.csv", "bleu",
                   lambda r: r["bleu"] + 1e-9 if (r["alpha"], r["beta"]) == (1.0, 0.5) else None)
        expect(bool(run.check_alpha_one_rows(grid.out)), "edited alpha=1 row fails the row check")
        caught(grid, "alpha=1 grid row")
        restore()

        _edit_grid(grid.out / "grid_nlu.csv", "slot_f1",
                   lambda r: r["slot_f1"] + 1e-9 if (r["alpha"], r["beta"]) == (0.3, 0.3) else None)
        expect(not run.check_alpha_one_rows(grid.out), "edited alpha<1 row passes the row check")
        caught(grid, "alpha<1 grid row (byte identity)")
        restore()

        _edit_grid(grid.out / "grid_nlg.csv", "bleu", lambda r: 0.5)
        caught(grid, "grid with no lift")
        restore()

        trace = dual.out / "dualinf" / "trace_nlg.jsonl"
        rows = [json.loads(ln) for ln in trace.read_text().splitlines()]
        rows[0]["hypotheses"][0]["text"] = rows[0]["hypotheses"][0]["text"] + " extra"
        trace.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
        expect(bool(run.check_eval_matches_rank0(dual.out / "eval", dual.out / "dualinf",
                                                 ws / "data", run.RankZeroOracle())),
               "changed rank-0 hypothesis fails the alpha=1 reduction check")
        caught(dual, "rank-0 hypothesis in the dualinf trace")
        restore()

        report = dual.out / "eval" / "report.json"
        rep = json.loads(report.read_text())
        rep["slot_f1"] = rep["slot_f1"] - 0.125
        report.write_text(json.dumps(rep, sort_keys=True) + "\n")
        expect(bool(run.check_eval_matches_rank0(dual.out / "eval", dual.out / "dualinf",
                                                 ws / "data", run.RankZeroOracle())),
               "edited eval report fails the alpha=1 reduction check")
        caught(dual, "eval report")
        restore()

        dual.ledger = run.Ledger()
        dual.verify()
        expect(not dual.ledger.failures, "restored outputs pass again")
    finally:
        shutil.rmtree(ws, ignore_errors=True)


def check_patching() -> None:
    expect(not tracing.wrapped_names(), "dualdec starts unpatched")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.wrapped_names()
        expect({"dualdec.decode.nlg_score", "dualdec.models.nlg_score",
                "dualdec.tensor.Tensor.__init__", "dualdec.textproc.BpeModel.encode"}
               <= set(wrapped), "installed tracer wraps every name callers look up")
    finally:
        tracer.uninstall()
    wrapped = tracing.wrapped_names()
    expect(not wrapped, f"uninstall restores every original {wrapped}")


def main() -> int:
    check_printed_metrics()
    check_tampering()
    check_patching()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
