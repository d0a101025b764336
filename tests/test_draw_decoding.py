"""The channel's draws decoded from PCG64 words against the ``Generator``
calls that define them (``draw_reference``), byte for byte.

Both sides run in the numpy under test, so these tests pin the decoding to
that numpy's ``Generator.integers(0, 2)`` and ``Generator.random``, not to
the golden transcripts.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import draw_reference as ref
from pbc_bb84.bb84_frames import RECORD, prepare_pulses, transmit_and_measure

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
# 1.0 and 0.0 skip their draw; every other value reads it
DETECTION = st.one_of(
    st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
FLIPS = st.one_of(
    st.just(0.0), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))


def assert_same_records(got, expected):
    assert got.dtype == expected.dtype == RECORD
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(count=st.integers(min_value=1, max_value=10_000), seed=SEEDS)
@example(count=1, seed=0)
@example(count=4097, seed=2**32 - 1)
def test_prepare_pulses_matches_generator(count, seed):
    assert_same_records(prepare_pulses(count, seed), ref.prepare_pulses(count, seed))


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=10_000),
    start=st.integers(min_value=0, max_value=3),
    step=st.sampled_from([1, 2, 3, -1, -2]),
    detection_prob=DETECTION,
    flip_prob=FLIPS,
    seeds=st.tuples(SEEDS, SEEDS),
)
@example(count=1, start=0, step=1, detection_prob=1.0, flip_prob=0.0, seeds=(0, 1))
@example(count=3, start=0, step=1, detection_prob=0.5, flip_prob=0.1, seeds=(0, 1))
@example(count=8193, start=1, step=2, detection_prob=1.0, flip_prob=0.25, seeds=(5, 6))
@example(count=10_000, start=0, step=1, detection_prob=0.9, flip_prob=0.005, seeds=(7, 8))
def test_transmit_and_measure_matches_generator(
    count, start, step, detection_prob, flip_prob, seeds
):
    # a slice with a step is a non-contiguous view of Bob's pulses; a count
    # it leaves odd or even, or empty, changes where the coins' words split
    pulses = prepare_pulses(count, seeds[0])[start::step]
    before = pulses.tobytes()
    got = transmit_and_measure(pulses, detection_prob, flip_prob, seeds[1])
    expected = ref.transmit_and_measure(pulses, detection_prob, flip_prob, seeds[1])
    assert_same_records(got, expected)
    assert pulses.tobytes() == before


@pytest.mark.parametrize("detection_prob,flip_prob", [
    (1.0, 0.0), (1.0, 0.3), (0.6, 0.0), (0.6, 0.3),
])
def test_every_small_count(detection_prob, flip_prob):
    # each parity of the count on both sides of each skipped draw
    for count in range(1, 65):
        pulses = prepare_pulses(count, count)
        assert_same_records(
            transmit_and_measure(pulses, detection_prob, flip_prob, 1000 + count),
            ref.transmit_and_measure(pulses, detection_prob, flip_prob, 1000 + count))


@pytest.mark.parametrize("detection_prob,flip_prob", [(1.0, 0.0), (0.5, 0.2)])
def test_records_measured_again(detection_prob, flip_prob):
    # records whose Alice half is set: the measurement replaces it and keeps
    # Bob's half
    records = ref.transmit_and_measure(prepare_pulses(999, 1), 1.0, 0.25, 2)
    assert records["alice_basis"].any() and records["outcome"].any()
    assert_same_records(
        transmit_and_measure(records, detection_prob, flip_prob, 3),
        ref.transmit_and_measure(records, detection_prob, flip_prob, 3))


def test_draw_equal_to_its_probability():
    # a trial whose draw equals its probability fails, as random() < p does
    count, seed = 64, 9
    pulses = prepare_pulses(count, 10)
    rng = np.random.default_rng(seed)
    detection = rng.random(count)
    alice = rng.integers(0, 2, size=count)
    flip = rng.random(count)
    matched = np.flatnonzero(alice == pulses["bob_basis"])
    cases = [(detection[0], 0.0), (1.0, flip[matched[0]]), (detection[1], flip[matched[1]])]
    for detection_prob, flip_prob in cases:
        got = transmit_and_measure(pulses, detection_prob, flip_prob, seed)
        assert_same_records(
            got, ref.transmit_and_measure(pulses, detection_prob, flip_prob, seed))
    assert len(got) < count


def test_probabilities_outside_the_checked_range():
    # the session checks its probabilities; the draws agree past them too,
    # where no trial is skipped
    pulses = prepare_pulses(1001, 4)
    for detection_prob, flip_prob in [(1.5, -0.5), (0.0, 1.0), (float("nan"), float("nan"))]:
        assert_same_records(
            transmit_and_measure(pulses, detection_prob, flip_prob, 5),
            ref.transmit_and_measure(pulses, detection_prob, flip_prob, 5))
