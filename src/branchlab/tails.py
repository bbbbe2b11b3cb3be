"""Heavy-tailed mutant fitness distributions, evaluated in log domain.

Two families with regularly varying tails are supported, both with support
minimum fixed at 1 (log-fitness 0):

* ``pareto``     G(x) = x**(-alpha)                        for x >= 1
* ``paretolog``  G(x) = x**(-alpha) * (1 + log x)**gamma   for x >= 1,
  with |gamma| <= alpha so G stays monotone and bounded by 1.

All sampling returns log-fitness: the fittest mutants scale like a power of
the population size, which overflows linear-domain floats within a handful
of generations.  Scalar inputs give scalar outputs; arrays work elementwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence

FAMILIES = ("pareto", "paretolog")

_NEWTON_MAX_ITER = 200
_NEWTON_FAIL = 1e-10
_POSITIVE_LOG_G = "log tail probability must be <= 0"


@dataclass(frozen=True)
class TailModel:
    """A Frechet-type mutant fitness distribution.

    ``gamma`` is the slowly-varying exponent and is only meaningful for the
    ``paretolog`` family; it must satisfy |gamma| <= alpha.  Alpha must be
    finite; the checks are written so that NaN fails them.
    """

    family: str
    alpha: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown tail family {self.family!r}")
        if not 0 < self.alpha < math.inf:
            raise DomainError("tail index alpha must be positive and finite")
        if self.family == "pareto" and self.gamma != 0.0:
            raise DomainError("gamma is only meaningful for paretolog")
        if self.family == "paretolog" and not abs(self.gamma) <= self.alpha:
            raise DomainError("paretolog requires |gamma| <= alpha")


def parse_tail_model(text: str) -> TailModel:
    """Parse ``pareto:alpha=1.0`` or ``paretolog:alpha=1.0,gamma=0.5``."""
    family, _, rest = text.strip().partition(":")
    family = family.lower()
    if family not in FAMILIES:
        raise DomainError(f"unknown tail family {family!r} in {text!r}")
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("alpha", "gamma"):
                raise DomainError(f"unknown tail parameter {key!r} in {text!r}")
            if key in params:
                raise DomainError(f"duplicate tail parameter {key!r} in {text!r}")
            try:
                params[key] = float(value)
            except ValueError as exc:
                raise DomainError(f"bad value for {key!r} in {text!r}") from exc
    if "alpha" not in params:
        raise DomainError(f"tail spec {text!r} is missing alpha")
    if family == "pareto" and "gamma" in params:
        raise DomainError("pareto takes no gamma parameter")
    return TailModel(family, params["alpha"], params.get("gamma", 0.0))


def _as_array(x):
    return np.asarray(x, dtype=float)


def _maybe_scalar(out, like):
    return float(out) if np.ndim(like) == 0 else out


def tail(model: TailModel, x) -> float | np.ndarray:
    """Survival function G(x); equals 1 below the support minimum."""
    x = _as_array(x)
    if np.any(x < 0):
        raise DomainError("fitness must be nonnegative")
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    return _maybe_scalar(np.exp(log_tail(model, log_x)), x)


def log_tail(model: TailModel, log_x) -> float | np.ndarray:
    """log G evaluated at log-fitness; exact -alpha*log_x for pareto."""
    log_x = _as_array(log_x)
    pos = np.maximum(log_x, 0.0)  # tail is 1 below the support minimum
    if model.family == "pareto":
        out = -model.alpha * pos
    else:
        # at log_x = +inf the sum is inf - inf (0 * inf at gamma 0); G is 0 there
        with np.errstate(invalid="ignore"):
            out = -model.alpha * pos + model.gamma * np.log1p(pos)
        out = np.where(pos == np.inf, -np.inf, out)
    return _maybe_scalar(out, log_x)


def inverse_log_tail(model: TailModel, log_g) -> float | np.ndarray:
    """Log-fitness at which log G equals ``log_g`` (a log probability <= 0).

    Pareto has the closed form -log_g/alpha.  Paretolog is solved with a
    bracketed Newton iteration; the residual target is 1e-12 absolute with a
    machine-precision relative floor for extreme log magnitudes.  Where
    -log_g/alpha overflows float64 both families return +inf.

    Raises NonConvergence if the residual stays above the failure threshold,
    which signals a degenerate model parameterization.
    """
    if model.family == "pareto" and isinstance(log_g, float):
        # a float (np.float64 included) takes no array round trip
        if log_g > 0:
            raise DomainError(_POSITIVE_LOG_G)
        return float(-log_g / model.alpha)
    log_g = _as_array(log_g)
    if np.any(log_g > 0):
        raise DomainError(_POSITIVE_LOG_G)
    if model.family == "pareto":
        return _maybe_scalar(-log_g / model.alpha, log_g)

    a, c = model.alpha, model.gamma
    g = np.atleast_1d(log_g).astype(float)
    out = -g / a
    solve = out < np.inf  # an overflowed entry keeps +inf, as for pareto
    g = g[solve]

    def h(v):
        return -a * v + c * np.log1p(v)

    lo = np.zeros_like(g)
    hi = np.maximum(-g / a, 1.0)
    for _ in range(_NEWTON_MAX_ITER):
        open_ = h(hi) > g  # h decreasing: need h(hi) <= g to bracket
        if not open_.any():
            break
        hi = np.where(open_, 2.0 * hi, hi)

    tol_ok = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(g))
    x = np.minimum(np.maximum(-g / a, 0.0), hi)
    for _ in range(_NEWTON_MAX_ITER):
        resid = h(x) - g
        active = np.abs(resid) > tol_ok
        if not active.any():
            break
        lo = np.where(active & (resid >= 0), x, lo)
        hi = np.where(active & (resid < 0), x, hi)
        deriv = -a + c / (1.0 + x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(deriv != 0, resid / deriv, np.inf)
        nxt = x - step
        off = ~np.isfinite(nxt) | (nxt <= lo) | (nxt >= hi)
        x = np.where(active, np.where(off, 0.5 * (lo + hi), nxt), x)

    tol_fail = _NEWTON_FAIL + 100 * np.finfo(float).eps * np.abs(g)
    if np.any(np.abs(h(x) - g) > tol_fail):
        raise NonConvergence(
            f"tail inversion stalled for {model} (worst residual "
            f"{np.max(np.abs(h(x) - g)):.3e})"
        )
    out[solve] = x
    return _maybe_scalar(out.reshape(np.shape(log_g)), log_g)


def sample_fitness(model: TailModel, rng: np.random.Generator, size=None):
    """Draw log-fitness by inversion: log F = inverse_log_tail(log U)."""
    u = rng.random(size)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    return inverse_log_tail(model, log_u)


def sample_max_of_n(model: TailModel, n: int, rng: np.random.Generator) -> float:
    """Draw log of the largest of n i.i.d. fitnesses.

    Inverts P(max <= x) = (1 - G(x))**n via V uniform: G = 1 - V**(1/n),
    computed as -expm1(log(V)/n) so huge n stays accurate.  One float goes
    through the ufuncs; v = 0 maps to log 0 = -inf with no errstate needed.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    v = rng.random()
    log_v = np.log(v) if v > 0.0 else -np.inf
    return inverse_log_tail(model, min(np.log(-np.expm1(log_v / n)), 0.0))
