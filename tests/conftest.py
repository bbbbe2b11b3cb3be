"""Oracles shared by several test modules."""
import math
import os

import numpy as np
import pytest

import branchlab

# the two tests that run `python -m branchlab.cli` in a child interpreter,
# test_module_invocation and test_closed_stdout_is_one_error_line, get the
# package these tests import (pyproject's pythonpath reaches no child)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(branchlab.__file__)), os.environ.get("PYTHONPATH"))))


def _full_scan_chi(alpha, seed, t_max):
    """L and I of the recursion with every past index compared at every step.

    O(t_max**2).  I_t is the largest index within 1e-12 relative of L_t
    (floor 1e-12), or 0 when the seed term wins by more.
    """
    la = seed.log_a_array(t_max)
    log_alpha = math.log(alpha)
    log_k = np.log(np.arange(1, t_max + 1, dtype=float))  # log_k[k - 1] = log k
    L = np.empty(t_max + 1)
    L[0] = np.nan
    L[1] = la[1]
    I = np.zeros(t_max + 1, dtype=np.int64)
    for t in range(2, t_max + 1):
        v = L[1:t] + log_k[t - 2 :: -1] - log_alpha  # column i holds log (t-i)/alpha chi_i
        vmax = float(v.max())
        L_t = la[t] if la[t] > vmax else vmax
        tol = 1e-12 * max(1.0, abs(L_t))
        if vmax >= L_t - tol:
            I[t] = 1 + int(np.nonzero(v >= L_t - tol)[0][-1])
        L[t] = L_t
    return L, I


@pytest.fixture(scope="session")
def full_scan_chi():
    """The quadratic full-scan solver oracle, ``(alpha, seed, t_max) -> (L, I)``."""
    return _full_scan_chi
