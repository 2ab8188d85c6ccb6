"""Shared fixtures: a tiny synthetic domain with trained-size knobs kept small.

BLAS runs on one thread, as in ``bench/make_fixture.py``: the pinned training
digests are only byte-reproducible there. The variables are read once, when
numpy loads its library, so they are set before numpy is imported.
"""
import ctypes
import glob
import importlib.util
import os
from pathlib import Path

PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dualdec import data, models  # noqa: E402
from dualdec.tensor import derive_rng  # noqa: E402


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    """A fresh copy of ``bench/<name>.py``, loaded from its file; neither
    ``sys.path`` nor ``sys.modules`` changes."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def openblas_cores() -> list[str]:
    """The core whose kernels each of numpy's bundled OpenBLAS libraries
    picked (its ``get_corename`` symbol); empty without a bundled OpenBLAS."""
    cores = []
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                cores.append(fn().decode())
                break
    return cores


def dispatch_targets() -> list[str]:
    """The numpy dispatch targets this process takes."""
    from numpy._core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def numerics() -> str:
    """The numerics of this process, for the failure message of a pinned
    digest: ``openblas_cores`` and ``dispatch_targets``. The digests were
    pinned under OpenBLAS's SkylakeX kernels and the X86_V3, X86_V4,
    AVX512_ICL and AVX512_SPR targets; other kernels or targets change last
    bits without any defect in the code."""
    cores, targets = openblas_cores(), dispatch_targets()
    return (f"numerics: OpenBLAS core {', '.join(cores) or 'unknown (no bundled OpenBLAS)'}, "
            f"numpy dispatch targets {' '.join(targets) or 'none'}; pinned under SkylakeX "
            f"and X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


def build_vocabs(nlu_examples, nlg_examples, merges=400):
    return data.build_vocabs(nlu_examples, nlg_examples, merges)


@pytest.fixture(scope="session")
def tiny_corpus():
    nlu, nlg = data.synth_corpus(seed=101, size=16)
    return nlu, nlg


@pytest.fixture(scope="session")
def tiny_vocabs(tiny_corpus):
    nlu, nlg = tiny_corpus
    return build_vocabs(nlu, nlg)


def make_model(kind, vocabs, hidden=6, embedding=4, seed=77):
    cfg = models.ModelConfig(hidden=hidden, embedding=embedding)
    return models.MODEL_CLASSES[kind](cfg, vocabs, derive_rng(seed, "init", kind))


@pytest.fixture()
def tiny_models(tiny_vocabs):
    return {k: make_model(k, tiny_vocabs) for k in ("nlu", "nlg", "lm", "mfm")}


def randomize(model, rng, lo=-0.5, hi=0.5):
    for p in model.params.values():
        p.data[...] = rng.uniform(lo, hi, size=p.data.shape)
    return model


def finite_difference_check(kind, model, samples, rng, n_params=20, h=1e-5):
    """Analytic gradients of the training loss vs central differences on
    ``n_params`` randomly selected parameter coordinates.

    Central differences of a loss of magnitude |f| carry ~|f|*eps/h absolute
    roundoff, so coordinates whose gradient sits below that floor cannot be
    judged at 1e-4 relative error by any oracle; the random scan skips them
    and keeps drawing until ``n_params`` measurable coordinates are checked.
    Returns (checked, worst_relative_error).
    """
    from dualdec import tensor as T

    def loss():
        mask_rng = derive_rng(55, "mask")
        draws = [models._draws(kind, model, s, 1.0, mask_rng) for s in samples]
        return T.batch_mean(models._batch_losses(kind, model, samples, draws))

    def loss_value():
        return float(loss().data)

    T.zero_grad(model.params.values())
    T.backward(loss())

    floor = max(1e-6, abs(loss_value()) * 5e-7)
    names = sorted(model.params)
    flat = [(n, idx) for n in names for idx in range(model.params[n].data.size)]
    order = rng.permutation(len(flat))
    checked = 0
    worst = 0.0
    for j in order:
        if checked >= n_params:
            break
        name, idx = flat[int(j)]
        p = model.params[name]
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + h
        up = loss_value()
        p.data.flat[idx] = orig - h
        down = loss_value()
        p.data.flat[idx] = orig
        numeric = (up - down) / (2 * h)
        analytic = p.grad.flat[idx]
        if max(abs(numeric), abs(analytic)) < floor:
            continue
        checked += 1
        worst = max(worst, abs(numeric - analytic)
                    / max(abs(numeric), abs(analytic)))
    return checked, worst


class Rows(list):
    """A stack of one-row states, indexed by an array of row numbers."""

    def __getitem__(self, rows):
        if isinstance(rows, np.ndarray):
            return Rows(list.__getitem__(self, int(i)) for i in rows)
        return list.__getitem__(self, rows)


class RowStepper:
    """``decode.Stepper``'s stacked ``start`` and ``advance`` over a test
    stepper's one-row ``start_one()`` and ``step(state, symbol)``, which the
    exhaustive and reference oracles call directly."""

    def start(self):
        state, dist = self.start_one()
        return Rows([state]), np.stack([dist])

    def advance(self, states, symbols):
        out = [self.step(state, int(v)) for state, v in zip(states, symbols)]
        return Rows(s for s, _ in out), np.stack([d for _, d in out])
