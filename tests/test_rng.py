"""The stream contract: `stream(seed, index)` is the Philox stream keyed by
`mix64(seed, index)`, built without OS entropy, and it pickles and copies.
Every seeded entry point keys its streams by integers alone."""

import copy
import os
import pickle
import random

import numpy as np
import pytest

from cstarlab.rng import NotAnIntegerError, mix64, stream
from cstarlab.sampler import estimate_prob_jiang_su, sample_algebra
from cstarlab.simplex import MeasureScheme, build_tower
from cstarlab.transport import unitary_distance
from cstarlab.walk import Barrier, WalkParams, batch_hits_zero, batch_sup, sample_trajectory

SEEDS = [0, 2**64 - 1, 2**64 + 3, -3]
INDICES = [0, 1, 10**6]


def _reference(seed, index):
    return np.random.Generator(np.random.Philox(key=mix64(seed, index)))


def _assert_same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa["bit_generator"] == sb["bit_generator"] == "Philox"
    for key in ("counter", "key"):
        assert np.array_equal(sa["state"][key], sb["state"][key])
    assert np.array_equal(sa["buffer"], sb["buffer"])
    assert [sa[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
        [sb[k] for k in ("buffer_pos", "has_uint32", "uinteger")]


def _draws(gen):
    return [gen.random(7), gen.integers(0, 2**40, size=5), gen.standard_normal(6),
            gen.integers(0, 1000, size=3, dtype=np.int32), gen.random(3)]


def _assert_same_draws(a, b):
    for x, y in zip(_draws(a), _draws(b)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_state_is_philox_keyed_by_mix64(seed, index):
    gen = stream(seed, index)
    _assert_same_state(gen, _reference(seed, index))
    assert gen.bit_generator.state["state"]["key"].tolist() == [mix64(seed, index), 0]
    assert gen.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_bitwise_equal_reference(seed, index):
    gen, ref = stream(seed, index), _reference(seed, index)
    _assert_same_draws(gen, ref)
    _assert_same_state(gen, ref)


def test_no_entropy_drawn(monkeypatch):
    # numpy seeds a fresh SeedSequence through secrets.randbits, which reads
    # random._urandom; patch it and os.urandom so any entropy read raises
    def refuse(n):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(os, "urandom", refuse)
    monkeypatch.setattr(random, "_urandom", refuse)
    with pytest.raises(AssertionError, match="OS entropy drawn"):
        np.random.SeedSequence()
    for seed in SEEDS:
        for index in INDICES:
            assert stream(seed, index).bit_generator.state["state"]["key"][0] == mix64(seed, index)


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_partly_drawn_stream_continues_bitwise(clone):
    gen = stream(2**64 + 3, 10**6)
    gen.random(5)
    gen.integers(0, 10, size=3, dtype=np.int32)  # leaves half a word buffered
    twin = clone(gen)
    _assert_same_state(twin, gen)
    _assert_same_draws(twin, gen)


def test_spawn_refused():
    # streams are keyed, not spawned: a sub-stream is another (seed, index)
    if not hasattr(np.random.Generator, "spawn"):
        pytest.skip("Generator.spawn arrived in numpy 1.25")
    with pytest.raises(TypeError):
        stream(1, 2).spawn(2)
    with pytest.raises(TypeError):
        stream(1, 2).bit_generator.spawn(2)


WALK = WalkParams.point(0.5, start=2)
ABSORBING = WalkParams.point(0.5, start=2, barrier=Barrier.ABSORBING)
FACES = MeasureScheme.LEBESGUE_FACES

#: every seeded entry point as a function of its seed (or trial index); the
#: Hermitian pair's orbit distance is its closed form, so it never descends
SEEDED = {
    "mix64": lambda s: mix64(s),
    "mix64_index": lambda s: mix64(3, s),
    "stream": lambda s: stream(s).random(4),
    "stream_index": lambda s: stream(3, s).random(4),
    "sample_trajectory": lambda s: sample_trajectory(WALK, 30, s),
    "sample_trajectory_trial": lambda s: sample_trajectory(WALK, 30, 3, trial=s),
    "batch_hits_zero": lambda s: batch_hits_zero(WALK, 40, 6, s),
    "batch_sup": lambda s: batch_sup(ABSORBING, 6, s, cap=4),
    "estimate_prob_jiang_su": lambda s: estimate_prob_jiang_su(WALK, 6, 40, s),
    "sample_algebra": lambda s: sample_algebra(WALK, FACES, 60, s),
    "build_tower": lambda s: build_tower([0, 1, 2, 1, 2, 3], FACES, s),
    "unitary_distance": lambda s: unitary_distance(np.diag([0.0, 1.0]), np.diag([2.0, 4.0]),
                                                   seed=s),
}


@pytest.mark.parametrize("bad", [2.9, "7", True, np.True_, None], ids=repr)
@pytest.mark.parametrize("entry", SEEDED)
def test_seeds_are_integers_never_truncated(entry, bad):
    # a float, a string or a bool once keyed the stream of int(bad)
    with pytest.raises(NotAnIntegerError, match="must be integers"):
        SEEDED[entry](bad)


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
@pytest.mark.parametrize("entry", SEEDED)
def test_numpy_integer_seeds_draw_as_the_int(entry, kind):
    assert pickle.dumps(SEEDED[entry](kind(5))) == pickle.dumps(SEEDED[entry](5))


def test_tower_seed_refused_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a collapse was drawn")

    monkeypatch.setattr("cstarlab.simplex.draw_collapse", refuse)
    with pytest.raises(NotAnIntegerError):
        build_tower([0, 1, 2], FACES, 1.5)
