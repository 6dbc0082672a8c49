"""Differential property: the column SHA engine against the kept reference.

``reference_sha.py`` keeps the engine whose every trial owned a
``LossCurveSampler`` and so a seeded generator. The column engine must
give the same trials (learning rate, momentum, quality), the same loss at
every epoch of every trial, the same terminated indices in the same order
at every stage and the same winner, bit for bit, for SHA and for BOHB's
model-sampled brackets. The golden pins were captured from the reference
engine; they fail if the reference and the engine drift together.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.models import WORKLOADS, workload
from repro.tuning.bohb import BOHBEngine, TPESampler
from repro.tuning.hyperband import HyperBandSpec
from repro.tuning.sha import SHAEngine, SHASpec
from tests.tuning import reference_sha


def _rows(trials) -> list[tuple]:
    return [
        (t.index, t.learning_rate.hex(), t.momentum.hex(), t.quality.hex(),
         [x.hex() for x in t.losses], t.alive, t.epochs_trained)
        for t in trials
    ]


def _run_both(engine, ref) -> None:
    assert _rows(engine.trials) == _rows(ref.trials)
    while not ref.finished:
        assert not engine.finished
        assert engine.run_stage() == [t.index for t in ref.run_stage()]
        assert _rows(engine.trials) == _rows(ref.trials)
    assert engine.finished
    assert _rows([engine.winner()]) == _rows([ref.winner()])


@given(
    name=st.sampled_from(sorted(WORKLOADS)),
    seed=st.one_of(st.integers(0, 20), st.integers(0, 2**40)),
    n=st.one_of(st.integers(2, 40), st.integers(2, 1024)),
    eta=st.integers(2, 4),
    epochs=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference(name, seed, n, eta, epochs):
    spec = SHASpec(n, eta, epochs)
    w = workload(name)
    _run_both(SHAEngine(spec, w, seed=seed), reference_sha.SHAEngine(spec, w, seed=seed))


@pytest.mark.parametrize("seed", [0, 5])
def test_bohb_brackets_match_reference(seed):
    # Every bracket of one HyperBand run, each reporting to its sampler,
    # so the later brackets draw from the TPE model, not the prior.
    w = workload("mobilenet-cifar10")
    sampler, ref_sampler = TPESampler(seed=seed), TPESampler(seed=seed)
    for bracket in HyperBandSpec(max_epochs_per_trial=8, reduction_factor=2).brackets():
        engine = BOHBEngine(bracket, w, sampler, seed=seed)
        ref = reference_sha.BOHBEngine(bracket, w, ref_sampler, seed=seed)
        _run_both(engine, ref)
        engine.report_to_sampler()
        ref.report_to_sampler()
    assert sampler.n_observations == ref_sampler.n_observations >= 8


def _loss_digest(trials) -> str:
    text = "\n".join(" ".join(x.hex() for x in t.losses) for t in trials)
    return hashlib.sha256(text.encode()).hexdigest()


#: (workload, n_trials, eta) at seed 0, 2 epochs a stage -> (winner index,
#: winner learning rate, sha256 of every trial's losses).
GOLDEN = {
    ("lr-higgs", 243, 3): (
        211, "0x1.1711eaa00480cp-7",
        "bb8b5cee24a34e1ecc1a5920c3dba93de1735bca4121ddaa022c270c20512072"),
    ("bert-imdb", 1024, 2): (
        80, "0x1.89c17ff594e05p-15",
        "49976e2ffdb73d81c7b38ab4f2455e25e47f5c150b1b4415367c8ba3c19ce5df"),
    ("svm-yfcc", 1024, 2): (
        286, "0x1.1301d6793bac1p-7",
        "e955c3d7dbf0e3622ae6dc163a92c5e023f855bd82b464b1adc38b106c1b26de"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_winner_and_losses(case):
    name, n, eta = case
    engine = SHAEngine(SHASpec(n, eta, 2), workload(name), seed=0)
    while not engine.finished:
        engine.run_stage()
    winner = engine.winner()
    assert (winner.index, winner.learning_rate.hex(), _loss_digest(engine.trials)) == GOLDEN[case]
