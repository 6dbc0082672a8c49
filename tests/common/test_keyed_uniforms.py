"""The batched seeding replays against their reference, ``stream_for``.

``keyed_uniforms``, ``seeded_pcg64_states`` and ``seed_rows`` replay
numpy's ``SeedSequence`` and PCG64 seeding in array form. Every property
here compares them bit for bit with one ``stream_for(...)`` per value (its
first ``random()``, or its seeded ``bit_generator.state``), so a numpy
change to either stream fails these tests rather than drifting the fault
draws or the SHA trial curves silently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import rng
from repro.common.rng import (
    first_uniforms,
    keyed_uniforms,
    pcg64_states,
    seed_rows,
    seeded_pcg64_states,
    stream_for,
)

seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**63, 2**64 - 1),
    st.integers(2**64, 2**130),
)
labels = st.one_of(st.text(max_size=8), st.integers(0, 2**40))
values = st.lists(
    st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 5000),
              st.integers(2**20, 2**40)),
    max_size=8,
)


def _reference(seed, prefix, vals, suffix) -> list[float]:
    return [float(stream_for(seed, *prefix, v, *suffix).random()) for v in vals]


@given(
    seed=seeds,
    prefix=st.lists(labels, max_size=6).map(tuple),
    vals=values,
    suffix=st.lists(labels, max_size=3).map(tuple),
)
@settings(max_examples=300, deadline=None)
def test_equals_stream_for_bit_for_bit(seed, prefix, vals, suffix):
    got = keyed_uniforms(seed, prefix, vals, suffix)
    assert got.dtype == np.float64
    assert got.tolist() == _reference(seed, prefix, vals, suffix)


@pytest.mark.parametrize("n_prefix", range(7))
def test_every_prefix_length(n_prefix):
    # With one seed word, a prefix shorter than three labels puts the
    # varying word inside the pool's first four, which numpy mixes
    # differently from the words after them.
    prefix = tuple(["faults", "train", "crash", 3, 4, 5][:n_prefix])
    vals = [0, 1, 7, 4095]
    got = keyed_uniforms(11, prefix, vals, (0, 2))
    assert got.tolist() == _reference(11, prefix, vals, (0, 2))


def test_values_past_the_crc_table():
    beyond = rng._CRC_TABLE.size + 3
    vals = [beyond, 0, 2 * beyond + 1]
    got = keyed_uniforms(5, ("faults", "train", "crash", 1), vals, (0, 0))
    assert got.tolist() == _reference(5, ("faults", "train", "crash", 1), vals, (0, 0))


def test_empty_values_give_an_empty_array():
    for prefix in ((), ("faults", "train", "crash", 1)):
        out = keyed_uniforms(3, prefix, [])
        assert out.shape == (0,)
        assert out.dtype == np.float64


def test_negative_seed_raises_like_stream_for():
    with pytest.raises(ValueError, match="expected non-negative integer") as ref:
        stream_for(-1, "faults")
    with pytest.raises(ValueError, match="expected non-negative integer") as got:
        keyed_uniforms(-1, ("faults",), [0])
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("vals", [[3, -1], [1.5]])
def test_non_int_or_negative_values_are_rejected(vals):
    with pytest.raises(ValueError, match="non-negative ints"):
        keyed_uniforms(0, ("faults",), vals)


row_labels = st.lists(
    st.one_of(
        labels,
        st.tuples(st.just("trial"), st.integers(0, 2**20)),
        st.tuples(st.just("bohb-trial"), st.integers(0, 8), st.integers(0, 5000)),
    ),
    max_size=8,
)


@given(
    seed=seeds,
    prefix=st.lists(labels, max_size=6).map(tuple),
    rows=row_labels,
    suffix=st.lists(labels, max_size=3).map(tuple),
)
@settings(max_examples=300, deadline=None)
def test_seeded_states_equal_stream_for(seed, prefix, rows, suffix):
    states, incs = seeded_pcg64_states(seed, prefix, rows, suffix)
    ref = [stream_for(seed, *prefix, r, *suffix).bit_generator.state["state"] for r in rows]
    assert list(zip(states, incs)) == [(s["state"], s["inc"]) for s in ref]
    assert all(type(v) is int for v in states + incs)


def test_a_loaded_state_continues_the_stream():
    # The SHA engine's use: load a row into one shared PCG64, then draw.
    labels_ = [("trial", i) for i in range(5)]
    states, incs = seeded_pcg64_states(7, ("loss-curve",), labels_)
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for label, state, inc in zip(labels_, states, incs):
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        ref = stream_for(7, "loss-curve", label)
        assert gen.standard_normal(9).tolist() == ref.standard_normal(9).tolist()


int_labels = st.one_of(
    st.integers(0, 64), st.integers(0, 5000), st.integers(2**20, 2**40)
)


@given(seed=seeds, data=st.data())
@settings(max_examples=300, deadline=None)
def test_seed_rows_equal_stream_for(seed, data):
    # Blocks of any head and width, so one pass holds rows of different
    # entropy lengths, some shorter than the pool's four words.
    shapes = data.draw(st.lists(
        st.tuples(st.lists(labels, max_size=5).map(tuple),
                  st.integers(0, 4), st.integers(0, 4)),
        max_size=5,
    ))
    blocks = [
        (head, np.array(
            data.draw(st.lists(st.lists(int_labels, min_size=k, max_size=k),
                               min_size=m, max_size=m)),
            dtype=np.int64,
        ).reshape(m, k))
        for head, k, m in shapes
    ]
    seeded = seed_rows(seed, blocks)
    keys = [(*head, *row) for head, rows in blocks for row in rows.tolist()]
    ref = [stream_for(seed, *key) for key in keys]
    states, incs = pcg64_states(seeded)
    assert list(zip(states, incs)) == [
        (g.bit_generator.state["state"]["state"], g.bit_generator.state["state"]["inc"])
        for g in ref
    ]
    assert first_uniforms(seeded).tolist() == [float(g.random()) for g in ref]


def test_seed_rows_keeps_block_order_across_lengths():
    # A short block first and a long one last: the replay lays rows out
    # longest first, and must hand them back in the caller's order.
    blocks = [
        (("faults", "train", "sync"), np.array([[3, 0]])),
        (("faults", "train", "crash"), np.array([[3, r, 0, 0] for r in range(3)])),
        (("faults", "train", "cold-fail"), np.array([[3, 7, 0, 0, 1]])),
    ]
    got = first_uniforms(seed_rows(5, blocks)).tolist()
    ref = [
        float(stream_for(5, *head, *row).random())
        for head, rows in blocks for row in rows.tolist()
    ]
    assert got == ref


def test_seed_rows_shares_one_rows_array_between_heads():
    rows = np.array([[1, 2], [3, 4]])
    blocks = [(("a",), rows), (("b", "c", "d", "e"), rows), (("a",), rows)]
    got = first_uniforms(seed_rows(2**40, blocks)).tolist()
    assert got == [
        float(stream_for(2**40, *head, *row).random())
        for head, _ in blocks for row in rows.tolist()
    ]


@pytest.mark.parametrize("rows", [[[3, -1]], [[1.5, 2.0]]])
def test_seed_rows_rejects_non_int_or_negative_labels(rows):
    with pytest.raises(ValueError, match="non-negative ints"):
        seed_rows(0, [(("faults",), np.array(rows))])
