"""Shared fixtures: a tiny synthetic domain with trained-size knobs kept small."""
import pytest

from dualdec import data, models
from dualdec.tensor import derive_rng


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

    def loss_value():
        mask_rng = derive_rng(55, "mask")
        terms = [models._example_loss(kind, model, s, 1.0, mask_rng) for s in samples]
        return float(sum(float(t.data) for t in terms))

    T.zero_grad(model.params.values())
    mask_rng = derive_rng(55, "mask")
    terms = [models._example_loss(kind, model, s, 1.0, mask_rng) for s in samples]
    T.backward(models._sum_terms(terms))

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
