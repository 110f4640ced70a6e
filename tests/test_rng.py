"""The stream contract: `stream(seed, index)` is the Philox stream keyed by
`mix64(seed, index)`, built without OS entropy, and it pickles and copies."""

import copy
import os
import pickle
import random

import numpy as np
import pytest

from cstarlab.rng import mix64, stream

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
