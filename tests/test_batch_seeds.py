"""RNG batch seeds derived in one array pass against ``SeedSequence.spawn``.

``bb84_frames.batch_states`` re-derives, a chunk of spawn keys at a time,
the PCG64 states that ``frame_batches`` once built per RNG batch from
``SeedSequence(seed).spawn(1)`` and ``PCG64(int(word))``
(``draw_reference.batch_states``).  Both run in the numpy under test, so
these tests pin the derivation to that numpy's ``SeedSequence`` and
``PCG64``, not to the golden transcripts.  The hash wraps uint32 products,
so a last test runs every subcommand with warnings raised as errors.
"""

import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import draw_reference as ref
from pbc_bb84 import bb84_frames
from pbc_bb84 import commitment_protocol as cp
from pbc_bb84.bb84_frames import batch_states

ROOT = Path(__file__).resolve().parents[1]
CHUNK = bb84_frames._SEED_CHUNK

# a seed of w 32-bit entropy words, w = 1-6: past 4 words the root's pool
# mixes in the rest, so the spawn key takes later hash constants
SEEDS = st.integers(min_value=1, max_value=6).flatmap(
    lambda w: st.integers(min_value=0 if w == 1 else 2 ** (32 * (w - 1)),
                          max_value=2 ** (32 * w) - 1))
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**190 + 12345]


def states(seed, first, count):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return list(itertools.islice(batch_states(seed, first), count))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, count=st.integers(min_value=1, max_value=2 * CHUNK + 2))
@example(seed=0, count=2 * CHUNK + 1)
@example(seed=2**128, count=CHUNK + 1)
def test_spawned_batches(seed, count):
    # from the session's first batch, across chunk boundaries
    assert states(seed, 0, count) == ref.batch_states(seed, count)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, first=st.integers(min_value=0, max_value=2**18),
       count=st.integers(min_value=1, max_value=CHUNK + 2))
@example(seed=2**32 - 1, first=2**18, count=1)
@example(seed=2**190 + 12345, first=2**18 - CHUNK, count=CHUNK + 1)
def test_batches_from_any_spawn_key(seed, first, count):
    assert states(seed, first, count) == [
        ref.batch_state(seed, key) for key in range(first, first + count)]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds(seed):
    assert states(seed, 0, CHUNK + 1) == ref.batch_states(seed, CHUNK + 1)


@pytest.mark.parametrize("seed", [0, 2**160])
def test_keyed_reference_is_the_spawned_child(seed):
    # the keyed reference builds spawn's k-th child from k directly
    assert ref.batch_states(seed, 3) == [ref.batch_state(seed, k) for k in range(3)]


@pytest.mark.parametrize("seed", [0, 2**32, 2**200])
def test_spawn_keys_past_32_bits_are_refused(seed):
    # key 2^32 takes two words, which the one-word mixing would get wrong
    last = batch_states(seed, 2**32 - 1)
    assert next(last) == ref.batch_state(seed, 2**32 - 1)
    with pytest.raises(ValueError):
        next(last)
    with pytest.raises(ValueError):
        next(batch_states(seed, 2**32))


def test_sessions_stay_under_2_18_batches():
    # an RNG batch holds at least 4096 pulses
    assert cp.MAX_PULSES // 4096 <= 2**18


def test_a_session_builds_one_seed_sequence_and_two_generators(monkeypatch):
    built = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            built.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(np.random, "SeedSequence")
    counting(np.random, "PCG64")
    counting(cp, "prepare_pulses")
    # the session-lossy benchmark's channel: about 40 RNG batches
    config = cp.SessionConfig(seed=3, detection_prob=0.1, flip_prob=0.02, q_tol=0.02,
                              frame_budget=2000)
    for _ in cp.frame_batches(config, config.frame_budget):
        pass
    assert built.count("prepare_pulses") > CHUNK // 2
    assert (built.count("PCG64"), built.count("SeedSequence")) == (2, 1)


# every subcommand on the benchmark's seed-0 inputs (two sessions, one of
# them lossy, then binding, rates and both route modes), in a fresh
# interpreter run with -W error
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import workloads
from pbc_bb84.cli import main
for workload in workloads.WORKLOADS:
    for call in workloads.write_inputs(workload, workloads.DEFAULT_SEED, workload):
        code = main(list(call.argv))
        if code not in call.ok_codes:
            sys.exit(f"{workload} {call.name}: exit {code}")
"""


def test_benchmark_inputs_raise_no_warning(tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD, str(ROOT / "bench")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lossy = json.loads((tmp_path / "session-lossy" / "session.json").read_text())
    assert lossy["detection_prob"] < 1
    assert (tmp_path / "session-lossy" / "out" / "transcript.json").stat().st_size > 0
