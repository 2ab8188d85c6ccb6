"""Regenerate the benchmark's fixed checkpoint set in bench/fixture/.

The decode workloads (dualinf, gridsearch) score with one committed set of
four checkpoints trained at the acceptance suite's "lift run" size: hidden
48, embedding 24, 600 merges, 30 epochs, batch 4, lr 3e-3, config seed 5, on
a 160-example synthetic corpus (corpus seed 401). NLU, LM and MFM train on
the clean corpus; NLG trains on a copy whose frames are label-noised (30% of
the examples get one slot value rotated with another example's value of the
same key), so plain decoding makes mistakes that dual re-ranking can fix.

Training goes through ``dualdec train``, so the checkpoints are exactly what
a user of the CLI would get. The script writes the four ``*.ckpt`` files and
``fixture.json`` with their sha256 digests, which the harness verifies before
timing anything.

    python3 bench/make_fixture.py            # rebuild bench/fixture/
    python3 bench/make_fixture.py --check    # rebuild under bench/.work/
                                             # and compare with the committed files

Run it from the repository root. Regeneration is byte-identical when BLAS runs
on one thread, which the script enforces before numpy is imported.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURE_DIR = BENCH_DIR / "fixture"
WORK_ROOT = BENCH_DIR / ".work"
KINDS = ("nlu", "nlg", "lm", "mfm")

CORPUS_SEED = 401
CORPUS_SIZE = 160
NOISE_SEED = 97
NOISE_FRACTION = 0.30
LIFT_CONFIG = {
    "seed": 5,
    "model": {"hidden": 48, "embedding": 24, "merges": 600},
    "train": {"epochs": 30, "batch_size": 4, "lr": 3e-3, "teacher_forcing": 0.9},
}


def corrupt_frames(examples, fraction, rng):
    """Rotate one slot value per corrupted example among the corrupted
    examples sharing that key, so the corpus-wide value multiset (and with it
    the learned vocabularies) matches the clean corpus."""
    from dualdec.data import NlgExample
    from dualdec.frames import SemanticFrame

    n = round(fraction * len(examples))
    idx = sorted(rng.choice(len(examples), size=n, replace=False).tolist())
    by_key = defaultdict(list)
    for i in idx:
        slots = examples[i].frame.slots
        pos = int(rng.integers(0, len(slots)))
        by_key[slots[pos][0]].append((i, pos))
    new_slots = {i: list(examples[i].frame.slots) for i in idx}
    for key in sorted(by_key):
        members = by_key[key]
        vals = [examples[i].frame.slots[pos][1] for i, pos in members]
        for (i, pos), v in zip(members, vals[1:] + vals[:1]):
            new_slots[i][pos] = (key, v)
    out = list(examples)
    for i in idx:
        out[i] = NlgExample(SemanticFrame(examples[i].frame.intent, tuple(new_slots[i])),
                            examples[i].refs)
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build(out_dir: Path, work: Path) -> dict[str, str]:
    """Train the four checkpoints into ``out_dir``; returns their digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from dualdec.cli import main as cli_main
    from dualdec.data import save_nlg, save_nlu, synth_corpus
    from dualdec.tensor import derive_rng

    nlu_tr, nlg_tr = synth_corpus(CORPUS_SEED, CORPUS_SIZE)
    noisy = corrupt_frames(nlg_tr, NOISE_FRACTION, derive_rng(NOISE_SEED, "noise"))
    save_nlu(work / "nlu_train.jsonl", nlu_tr)
    save_nlg(work / "nlg_train.jsonl", nlg_tr)
    save_nlg(work / "nlg_train_noisy.jsonl", noisy)
    runs = {"clean": (["nlu", "lm", "mfm"], "nlg_train.jsonl"),
            "noisy": (["nlg"], "nlg_train_noisy.jsonl")}
    for name, (kinds, nlg_file) in runs.items():
        cfg = json.loads(json.dumps(LIFT_CONFIG))
        cfg["train"]["models"] = kinds
        cfg["data"] = {"nlu_train": str(work / "nlu_train.jsonl"),
                       "nlg_train": str(work / nlg_file)}
        (work / f"{name}.json").write_text(json.dumps(cfg))
        code = cli_main(["train", "--config", str(work / f"{name}.json"),
                         "--out", str(work / name)])
        if code != 0:
            raise SystemExit(f"dualdec train ({name}) exited {code}")
        for kind in kinds:
            shutil.copyfile(work / name / f"{kind}.ckpt", out_dir / f"{kind}.ckpt")
    return {kind: sha256(out_dir / f"{kind}.ckpt") for kind in KINDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rebuild in a temporary directory and compare digests")
    args = parser.parse_args(argv)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="fixture-", dir=WORK_ROOT) as tmp:
        tmp = Path(tmp)
        out_dir = tmp / "out" if args.check else FIXTURE_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        digests = build(out_dir, tmp)
    if args.check:
        recorded = json.loads((FIXTURE_DIR / "fixture.json").read_text())["sha256"]
        bad = [k for k in KINDS if recorded.get(k) != digests[k]]
        for k in KINDS:
            print(f"{k}: {digests[k]} {'MISMATCH' if k in bad else 'ok'}")
        return 1 if bad else 0
    meta = {"corpus_seed": CORPUS_SEED, "corpus_size": CORPUS_SIZE,
            "noise_seed": NOISE_SEED, "noise_fraction": NOISE_FRACTION,
            "config": LIFT_CONFIG, "sha256": digests}
    (FIXTURE_DIR / "fixture.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for k in KINDS:
        print(f"{k}: {digests[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
