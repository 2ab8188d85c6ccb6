"""Pinned outputs of train, and of eval, dualinf and gridsearch on the
benchmark fixture.

A refactor of training, decoding, scoring or re-ranking must leave every byte
of these checkpoints, reports and traces unchanged. ``manifest.json`` is left
out: it embeds the output and checkpoint paths.
"""
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import PINNED_THREAD_VARS, numerics
from dualdec.cli import main

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"

# Two sets of digests per run. The portable files held the same bytes under
# every emulated numerics tried: OpenBLAS's Haswell kernels
# (OPENBLAS_CORETYPE=Haswell), numpy without its AVX-512 targets
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), and both. The
# pinned files hold the last bits of this host's numerics (see
# ``conftest.numerics``): traces carry every score, checkpoints every weight.
GOLDEN_PORTABLE = {
    "eval/report.csv": "20d11e50b8c37c9a966c9c32fef1e870bdc6dbcb85a89b41a43075ef0309e99c",
    "eval/report.json": "b6bd607839283130b1ec3656f6018da2123a79368864e2caaf73079ac3ade4d1",
    "dualinf/report.csv": "4fd979a456bd32d4ccfc7722232399054e28932064c91eb62748603eac97bf92",
    "dualinf/report.json": "76ffbb37fc9e27cdd74d7c4a7c9b635a809347bedd3f8e9cdc8a22b3bbb0d098",
    "grid/grid_nlg.csv": "aef32a2537fa056f6caf0fa386fc6c02b11b2ab385ac56008af05de305d34902",
    "grid/grid_nlu.csv": "11ec01ff9f137dd6e3f39e1e3276e4258ab0c0c7bf68f169ae00342538ba276a",
    "grid/selection.json": "4a2bc2fd051014e156ccacb51d4952aff925a9b37cea72a4d971f402f4e28102",
    "grid/test_report.json": "8343c8bd466c8def27ecaa3a5db9fbf95ae8bd3ee621a0a0f92f58802ef5bf02",
}
GOLDEN_PINNED = {
    "dualinf/trace_nlg.jsonl": "068a7496c0e92c0a259ee3274e69d78ef26083db2040aa92a3cb5baca48470e6",
    "dualinf/trace_nlu.jsonl": "77b26521b4cadbdf7cf9fc7349035ce4c9c66d2d877c030f28e30d04c89f54cf",
}

# eval and dualinf at the benchmark's dualinf settings, where the hypotheses
# of one beam end at very different lengths
GOLDEN_LONG_BEAM_PORTABLE = {
    "eval/report.csv": "20d11e50b8c37c9a966c9c32fef1e870bdc6dbcb85a89b41a43075ef0309e99c",
    "eval/report.json": "b6bd607839283130b1ec3656f6018da2123a79368864e2caaf73079ac3ade4d1",
    "dualinf/report.csv": "7d044777e2dd9ff980ec550cb733e14d5ce6f67af932f6c8d02b1a81d0f5d779",
    "dualinf/report.json": "5f9ed53ebc826132a76fa6009dc686985392f687630c0ba9b21303b4af32c604",
}
GOLDEN_LONG_BEAM_PINNED = {
    "dualinf/trace_nlg.jsonl": "9bfb45a911ccf455d6ac6e7e7d761eb797d2261377b12b307bc283466c7e7252",
    "dualinf/trace_nlu.jsonl": "862bae47c62b77c2bd2504d20cc9bc81ec68ee8546804f769496289b2cc01eb2",
}


def _assert_digests(digests, portable, pinned):
    """The portable digests first: their change is a real one on any host.
    Then every digest, whose change on other numerics ``numerics()`` names."""
    assert {name: digests.get(name) for name in portable} == portable, \
        "an output that holds under every numerics tried changed"
    assert digests == {**portable, **pinned}, numerics()


def _decode_digests(tmp_path, decode_cfg, grid, sizes=(24, 16)):
    """sha256 of each output file of eval, dualinf and (with ``grid``)
    gridsearch --eval-test, run on seed-101 synthetic validation and test
    splits of ``sizes``."""
    data = tmp_path / "data"
    valid, test = sizes
    assert main(["synth", "--out", str(data), "--seed", "101", "--train-size", "8",
                 "--valid-size", str(valid), "--test-size", str(test)]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "data": {f"{d}_{s}": str(data / f"{d}_{s}.jsonl")
                 for d in ("nlu", "nlg") for s in ("train", "valid", "test")},
        "decode": decode_cfg,
    }))
    common = ["--config", str(cfg), "--checkpoints", str(FIXTURE)]
    assert main(["eval", *common, "--out", str(tmp_path / "eval")]) == 0
    assert main(["dualinf", *common, "--alpha", "0.4", "--beta", "0.6",
                 "--out", str(tmp_path / "dualinf")]) == 0
    commands = ("eval", "dualinf")
    if grid:
        assert main(["gridsearch", *common, "--eval-test", "--out", str(tmp_path / "grid")]) == 0
        commands += ("grid",)
    return {f"{d}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for d in commands
            for p in sorted((tmp_path / d).iterdir()) if p.name != "manifest.json"}


def test_decode_outputs_match_golden_digests(tmp_path):
    digests = _decode_digests(tmp_path, {"beam": 10, "max_len": 16, "k_intent": 3}, grid=True)
    _assert_digests(digests, GOLDEN_PORTABLE, GOLDEN_PINNED)


def test_long_beam_outputs_match_golden_digests(tmp_path):
    digests = _decode_digests(tmp_path, {"beam": 20, "max_len": 60, "k_intent": 3}, grid=False)
    _assert_digests(digests, GOLDEN_LONG_BEAM_PORTABLE, GOLDEN_LONG_BEAM_PINNED)


# another CPU's numerics in one process: OpenBLAS's Haswell kernels, as on
# AVX2-only CPUs, and numpy without its AVX-512 dispatch targets
EMULATED = {"OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# a child's numerics, then its digests of eval, dualinf and gridsearch
# --eval-test at beam 4 on validation and test splits of 8
CHILD = """
import json, sys
from pathlib import Path
import conftest, test_golden
digests = test_golden._decode_digests(Path(sys.argv[1]), {"beam": 4, "max_len": 16,
                                      "k_intent": 3}, grid=True, sizes=(8, 8))
print(json.dumps({"numerics": [conftest.openblas_cores(), conftest.dispatch_targets()],
                  "digests": digests}))
"""


def _child_digests(out, numerics_env):
    """``CHILD``'s output, run in a fresh process under ``numerics_env``
    alone of ``EMULATED``'s variables."""
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in EMULATED}
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests),
                                         *filter(None, [env.get("PYTHONPATH")])])
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(out)], capture_output=True,
                          text=True, env={**env, **numerics_env}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_portable_outputs_hold_under_emulated_numerics(tmp_path):
    """The portable files of eval, dualinf and gridsearch --eval-test on the
    fixture are byte-equal between a plain child process and one that runs
    with ``EMULATED``'s kernels and dispatch targets."""
    from numpy._core import _multiarray_umath as umath

    if not umath.__cpu_features__.get("AVX2"):
        pytest.skip("this CPU lacks AVX2, which OpenBLAS's Haswell kernels need")
    plain = _child_digests(tmp_path / "plain", {})
    emulated = _child_digests(tmp_path / "emulated", EMULATED)
    causes = (("OpenBLAS core", "numpy's OpenBLAS is not built with DYNAMIC_ARCH, or this "
                                "CPU already runs its Haswell kernels"),
              ("numpy dispatch targets", "this CPU takes none of the disabled targets"))
    for (what, cause), mine, theirs in zip(causes, plain["numerics"], emulated["numerics"]):
        if mine == theirs:
            pytest.skip(f"{what} stays {' '.join(mine) or 'unknown'} under {EMULATED}: {cause}")
    assert set(plain["digests"]) == set(emulated["digests"]) >= set(GOLDEN_PORTABLE)
    assert ({name: emulated["digests"][name] for name in GOLDEN_PORTABLE}
            == {name: plain["digests"][name] for name in GOLDEN_PORTABLE}), \
        f"a portable output changed under {EMULATED}"


# dualdec train at the lift run's model and optimizer settings on a small
# corpus; teacher forcing 0.9 so the argmax branch of the forcing graphs runs.
# Every checkpoint is pinned: each differed under every emulated numerics
# tried, so the training runs have no portable set.
GOLDEN_TRAIN = {
    "nlu.ckpt": "c54ef8e6c51b10760a2508bb63efbab138cdf599475b9f6ce9b0b07741b2bab7",
    "nlg.ckpt": "4698548c0c2fbcf9bd6afd5dabf4013f68d046ceb7bb03dd2be68f26f1f4da2c",
    "lm.ckpt": "b88a3616602afaf297ee40d7e6e789b3f708d83a7793dddf5d104b1e3422627c",
    "mfm.ckpt": "a40e51703eeda82092706afcc73cba262e66f774c3ac9717c941ab28e2880a08",
}

# the same corpus and model in one batch of every row (at most 32 per kind),
# at teacher forcing 0.5: each batch stacks rows of many lengths and feature
# counts, and half the steps feed the model's own argmax
GOLDEN_TRAIN_ONE_BATCH = {
    "nlu.ckpt": "7f9026fad7b2ab03ab4788d43dc580bcb5b29d1e41a05e61e9edd7e7ac9fe269",
    "nlg.ckpt": "724cad07671e138b6cbfe8bb9cb1e852e7448e9ebf25c3a10d3570fc3e46e75f",
    "lm.ckpt": "e0fc0e3e0ef069a5fad64da7627cb704b4cf5763c0ff26e2749f1455926393dd",
    "mfm.ckpt": "0e5245c93a17fe36a79b4e703bf15b83f9771c97adc76eec64c1f0254af064f6",
}


def _train_digests(tmp_path, train_cfg):
    """sha256 of each checkpoint of dualdec train on a seed-7 synthetic corpus
    of 16 examples, at hidden 48 and lr 3e-3 for 2 epochs."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "7", "--train-size", "16",
                 "--valid-size", "1", "--test-size", "1"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "data": {f"{d}_train": str(data / f"{d}_train.jsonl") for d in ("nlu", "nlg")},
        "model": {"hidden": 48, "embedding": 24, "merges": 600},
        "train": {"epochs": 2, "lr": 3e-3, **train_cfg},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "train").glob("*.ckpt"))}


def test_trained_checkpoints_match_golden_digests(tmp_path):
    digests = _train_digests(tmp_path, {"batch_size": 4, "teacher_forcing": 0.9})
    assert digests == GOLDEN_TRAIN, numerics()


def test_one_batch_training_matches_golden_digests(tmp_path):
    digests = _train_digests(tmp_path, {"batch_size": 64, "teacher_forcing": 0.5})
    assert digests == GOLDEN_TRAIN_ONE_BATCH, numerics()


def test_blas_runs_on_one_thread():
    """conftest pins BLAS before numpy loads; OpenBLAS, when numpy bundles
    it, reports the one thread."""
    assert all(os.environ[v] == "1" for v in PINNED_THREAD_VARS)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                assert fn() == 1
                return
