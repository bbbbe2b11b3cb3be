"""Property tests for the per-generation substreams of ``simulate``.

``simulate._generation_rng`` mixes t into the attempt's pool, NumPy's
``np.random.SeedSequence(seed).pool``, and computes in plain integers the
``PCG64`` state that ``np.random.SeedSequence(seed, spawn_key=(t,))`` seeds,
then sets it on one generator reused across generations and attempts.  NumPy's own seeding is
the oracle: the state and the first draws must match bit for bit, also when
the reused generator was left mid-stream, with a buffered 32-bit half, by the
generation before.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import simulate

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


def _mirror(seed, t, rng):
    # the attempt pool as simulate._attempt builds it
    return simulate._generation_rng(np.random.SeedSequence(seed).pool.tolist(), t, rng)


def _draws(rng):
    """Bytes of the draws compared; ``integers(2**32)`` leaves a buffered half."""
    return [
        np.float64(rng.random()).tobytes(),
        rng.poisson([3.0, 1e5]).tobytes(),
        np.int64(rng.integers(2**32)).tobytes(),
    ]


@settings(max_examples=400, deadline=None)
@given(seed=_SEEDS, t=_GENERATIONS, previous=st.none() | st.tuples(_SEEDS, _GENERATIONS))
@example(seed=2**64 - 1, t=2**64 - 1, previous=None)
@example(seed=2**32, t=2**32, previous=(0, 1))
@example(seed=0, t=1, previous=(2**64 - 1, 2**32 - 1))
def test_generation_rng_matches_seed_sequence(seed, t, previous):
    rng = np.random.Generator(np.random.PCG64(0))
    if previous is not None:
        _draws(_mirror(*previous, rng))
        assert rng.bit_generator.state["has_uint32"] == 1
    got = _mirror(seed, t, rng)
    want = _oracle(seed, t)
    assert got is rng
    assert got.bit_generator.state == want.bit_generator.state
    assert _draws(got) == _draws(want)
