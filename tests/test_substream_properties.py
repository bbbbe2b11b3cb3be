"""Property tests for the per-generation substreams of ``simulate``.

``simulate._seed_pools`` hashes attempt seeds into their pools, NumPy's
``np.random.SeedSequence(seed).pool``.  ``simulate._substream_states``
hashes blocks of attempts x generations: it mixes each t into each
attempt's pool and computes the ``PCG64`` state that
``np.random.SeedSequence(seed, spawn_key=(t,))`` seeds.
``simulate._generation_rng`` then writes one such state on a generator
reused across generations and attempts, into its C state where the probe
``_direct_state_writes`` allows it and through the public setter otherwise.
NumPy's own seeding is the oracle: the state and the first draws must match
bit for bit, on both write paths, also when the reused generator was left
mid-stream, with a buffered 32-bit half, by the generation before.
"""
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import simulate
from branchlab.tails import TailModel

_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
_GENERATIONS = st.one_of(
    st.sampled_from([1, 2**32 - 1, 2**32]),
    st.integers(min_value=1, max_value=2**64 - 1),
)


def _oracle(seed, t):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))


def _pools(seeds):
    # the attempt pools as simulate._screen hashes them
    return simulate._seed_pools(np.array(seeds, dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(start=_SEEDS, count=st.integers(min_value=1, max_value=40))
@example(start=0, count=2)
@example(start=2**32 - 1, count=3)
@example(start=2**64 - 1, count=1)
@example(start=2**64 - 3, count=6)
def test_seed_pools_match_seed_sequence(start, count):
    """The pools of a range of attempt seeds, built as ``_screen`` builds them.

    The range start, start + 1, ... is added in uint64, so it wraps through
    2**64 to 0, 1, ... as attempt seeds (seed + attempt) % 2**64 do; the
    examples cover 0, 1, 2**32 - 1, 2**32, 2**32 + 1 and 2**64 - 1.
    """
    seeds = np.uint64(start) + np.arange(count, dtype=np.uint64)
    got = simulate._seed_pools(seeds)
    assert got.shape == (count, 4) and got.dtype == np.uint32
    want = [np.random.SeedSequence((start + k) % 2**64).pool for k in range(count)]
    assert got.tolist() == np.array(want).tolist()


def _write(words, rng, direct=True):
    """``rng`` set to the state in ``words``, as ``_attempt`` sets it."""
    with mock.patch.object(simulate, "_direct_state_writes", lambda: direct):
        return simulate._generation_rng(rng, simulate._state_sink(rng), words)


def _mirror(seed, t, rng, direct=True):
    return _write(simulate._substream_states(_pools([seed]), t, 1).tobytes(), rng, direct)


def _draws(rng):
    """Bytes of the draws compared; ``integers(2**32)`` leaves a buffered half."""
    return [
        np.float64(rng.random()).tobytes(),
        rng.poisson([3.0, 1e5]).tobytes(),
        np.int64(rng.integers(2**32)).tobytes(),
    ]


@settings(max_examples=400, deadline=None)
@given(seed=_SEEDS, t=_GENERATIONS, previous=st.none() | st.tuples(_SEEDS, _GENERATIONS),
       direct=st.booleans())
@example(seed=2**64 - 1, t=2**64 - 1, previous=None, direct=True)
@example(seed=2**32, t=2**32, previous=(0, 1), direct=True)
@example(seed=0, t=1, previous=(2**64 - 1, 2**32 - 1), direct=True)
@example(seed=0, t=1, previous=(2**64 - 1, 2**32 - 1), direct=False)
def test_generation_rng_matches_seed_sequence(seed, t, previous, direct):
    rng = np.random.Generator(np.random.PCG64(0))
    if previous is not None:
        _draws(_mirror(*previous, rng, direct))
        assert rng.bit_generator.state["has_uint32"] == 1
    got = _mirror(seed, t, rng, direct)
    want = _oracle(seed, t)
    assert got is rng
    assert got.bit_generator.state == want.bit_generator.state
    assert _draws(got) == _draws(want)


# first generations of a block: near 1, straddling 2**32, up to 2**64 - 1
_FIRST = st.one_of(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=2**32 - 12, max_value=2**32 + 4),
    st.integers(min_value=1, max_value=2**64 - 12),
)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(_SEEDS, min_size=1, max_size=4), t0=_FIRST,
       n=st.integers(min_value=1, max_value=12), direct=st.booleans())
@example(seeds=[0, 2**64 - 1], t0=2**32 - 3, n=6, direct=True)
@example(seeds=[0, 2**64 - 1], t0=2**32 - 3, n=6, direct=False)
@example(seeds=[5], t0=2**64 - 12, n=12, direct=True)
def test_substream_block_matches_seed_sequence(seeds, t0, n, direct):
    """Every (attempt, generation) of a K x n block, written one after another."""
    states = simulate._substream_states(_pools(seeds), t0, n)
    assert states.shape == (len(seeds), n, 4) and states.dtype == np.uint64
    words = states.tobytes()
    rng = np.random.Generator(np.random.PCG64(0))
    for k, seed in enumerate(seeds):
        for j in range(n):
            offset = 32 * (n * k + j)
            got = _write(words[offset:offset + 32], rng, direct)
            want = _oracle(seed, t0 + j)
            assert got.bit_generator.state == want.bit_generator.state
            assert _draws(got) == _draws(want)  # leaves a buffered half for the next write


@pytest.mark.skipif(sys.platform != "linux" or sys.byteorder != "little",
                    reason="the native 128-bit PCG64 layout is probed on little-endian Linux")
def test_direct_writes_on_native_128_bit_builds():
    # GCC and Clang builds of NumPy keep PCG64's state as a native 128-bit
    # integer, so the probe must pass; a silent fallback would cost the
    # public setter's time every generation
    assert simulate._direct_state_writes()
    assert simulate._state_sink(np.random.Generator(np.random.PCG64(0))) is not None


def test_public_setter_run_matches_direct_run():
    """A restarting run gives the same record, and the same final state, on both write paths."""
    cfg = simulate.SimConfig(model="fmm", tail=TailModel("pareto", 3.0), beta=0.9,
                             log_f=math.log(1.2), t_max=40, seed=1424)
    records = []
    for direct in (True, False):
        with mock.patch.object(simulate, "_direct_state_writes", lambda: direct), \
                mock.patch.object(simulate, "_attempt", wraps=simulate._attempt) as attempt:
            rec = simulate.run(cfg)
        records.append((rec.restarts, rec.log_X.tobytes(), rec.log_W.tobytes(),
                        attempt.call_args.args[2].bit_generator.state))
    assert records[0][0] > simulate._BLOCK_ATTEMPTS
    assert records[0] == records[1]
