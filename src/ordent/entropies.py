"""Entropy functionals on discrete distributions.

Covers the plain Shannon entropy, the Renyi and Tsallis families, a
two-parameter power-growth entropy, the Abel-type two-exponent entropy,
deformed logarithms and their exponentials, generic group-logarithm
entropies, and the matching relative (divergence) form.  The Lambert W
principal branch lives here because the factorial-growth entropies are
written in terms of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_ALPHA_ONE_TOL = 1e-9  # |alpha - 1| below this routes to the Shannon limit

# -e^{-1} as a double; also the exact branch-point input for lambert_w0
_BRANCH_POINT = -math.exp(-1.0)

# the smallest normal double: a power sum below it has lost its bits, or underflowed to 0
_TINY = 2.0 ** -1022


@dataclass(frozen=True)
class Distribution:
    """A validated discrete probability distribution."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        _validate_probs(p)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


def _validate_probs(p: np.ndarray) -> None:
    if p.ndim != 1 or p.size < 1:
        raise ValueError("distribution must be a non-empty 1-D sequence")
    if not np.isfinite(p).all():
        raise ValueError("distribution contains non-finite entries")
    if (p < -1e-15).any() or (p > 1 + 1e-12).any():
        raise ValueError("probabilities must lie in [0, 1]")
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-12")


def probabilities_of(p) -> np.ndarray:
    """Extract a validated probability vector from the accepted input kinds.

    Accepts a Distribution, a pattern census (both expose a ``probs``
    array), or a raw sequence of probabilities.
    """
    probs = getattr(p, "probs", None)
    if probs is not None:
        return probs
    arr = np.asarray(p, dtype=np.float64)
    _validate_probs(arr)
    return arr


def _positive(p: np.ndarray) -> np.ndarray:
    return p[p > 0.0]


def _log_power_sum(q: np.ndarray, alpha: float, s: float) -> float:
    """ln(s) / (1 - alpha) for the power sum ``s = sum q_i^alpha`` of the law ``q``.

    A normal ``s`` gives ``math.log(s) / (1 - alpha)``.  Below the smallest
    normal float the largest ``q_i`` is factored out instead:
    ``alpha / (1 - alpha) ln q_max + ln sum (q_i / q_max)^alpha / (1 - alpha)``,
    whose sum is at least 1, so the value stays finite for every finite alpha.
    """
    if s >= _TINY:
        return math.log(s) / (1.0 - alpha)
    top = float(q.max())
    rest = float(np.sum((q / top) ** alpha))
    return alpha / (1.0 - alpha) * math.log(top) + math.log(rest) / (1.0 - alpha)


def shannon(p) -> float:
    """-sum p_i ln p_i, with 0 ln 0 taken as 0."""
    q = _positive(probabilities_of(p))
    return float(-np.dot(q, np.log(q))) + 0.0  # + 0.0: a point mass gives 0.0, not -0.0


def renyi(p, alpha: float) -> float:
    """ln(sum p_i^alpha) / (1 - alpha); the Shannon entropy in the alpha -> 1 limit."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    q = probabilities_of(p)
    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        return shannon(q)
    s = float(np.sum(_positive(q) ** alpha))
    return _log_power_sum(q, alpha, s) + 0.0


def tsallis(p, alpha: float) -> float:
    """(sum p_i^alpha - 1) / (1 - alpha); Shannon in the alpha -> 1 limit."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    q = probabilities_of(p)
    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        return shannon(q)
    s = float(np.sum(_positive(q) ** alpha))
    return (s - 1.0) / (1.0 - alpha) + 0.0


def two_param_entropy(p, alpha: float, beta: float) -> float:
    """beta * ((sum p_i^alpha)^(1 / (beta (1 - alpha))) - 1).

    Power-law growth entropy; collapses to ``tsallis(p, alpha)`` at
    beta = 1 / (1 - alpha).
    """
    if alpha <= 0 or abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        raise ValueError(f"alpha must be positive and != 1, got {alpha}")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    q = probabilities_of(p)
    s = float(np.sum(_positive(q) ** alpha))
    try:
        if s < _TINY:  # s has lost its bits: take the power through the log instead
            return beta * (math.exp(_log_power_sum(q, alpha, s) / beta) - 1.0) + 0.0
        return beta * (s ** (1.0 / (beta * (1.0 - alpha))) - 1.0) + 0.0
    except OverflowError:
        raise ValueError(f"two_param_entropy overflows float64 at alpha={alpha}, beta={beta}") from None


def z_ab_entropy(p, alpha: float, a: float, b: float) -> float:
    """((sum p^alpha)^a - (sum p^alpha)^b) / ((a - b)(1 - alpha)).

    Requires 0 < alpha < 1, a != b, and at least one positive exponent.
    b = 0 gives the Sharma-Mittal form; a -> 1, b -> 0 recovers Tsallis.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if a == b:
        raise ValueError("exponents a and b must differ")
    if a <= 0 and b <= 0:
        raise ValueError("at least one of a, b must be positive")
    q = probabilities_of(p)
    s = float(np.sum(_positive(q) ** alpha))
    try:
        return (s**a - s**b) / ((a - b) * (1.0 - alpha)) + 0.0
    except OverflowError:
        raise ValueError(f"z_ab_entropy overflows float64 at alpha={alpha}, a={a}, b={b}") from None


def lambert_w0(x):
    """Principal branch of the Lambert W function: w >= -1 with w e^w = x.

    Defined for x >= -1/e; accepts scalars or arrays.  Accuracy is near
    machine precision via a series or asymptotic start plus Halley updates.

    A Python ``int`` or ``float`` (``np.float64`` included) takes a scalar
    path on Python floats: the same operations as the array path, in the
    same order, with numpy's ``exp``, ``log`` and ``sqrt`` called on
    scalars (libm's differ from numpy's in some last bits), so it returns
    the bits of ``lambert_w0(np.array([x]))[0]`` at about 1/20 of the cost.
    """
    if isinstance(x, (int, float)):
        return _lambert_w0_scalar(float(x))
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    v = np.atleast_1d(arr).copy()
    if not np.isfinite(v).all():
        raise ValueError("lambert_w0 requires finite input")
    # absorb sub-ulp excursions below the branch point (e.g. t*ln(t) roundoff)
    low = v < _BRANCH_POINT
    near = low & (v > _BRANCH_POINT * (1.0 + 1e-14))
    v[near] = _BRANCH_POINT
    if (v < _BRANCH_POINT).any():
        bad = float(np.min(v))
        raise ValueError(f"lambert_w0 undefined for x = {bad} < -1/e")

    w = np.empty_like(v)
    at_branch = v == _BRANCH_POINT
    w[at_branch] = -1.0

    rest = ~at_branch
    vr = v[rest]
    w0 = np.empty_like(vr)
    # series around the branch point, asymptotic log-log start elsewhere
    small = vr < 0.25
    pser = np.sqrt(2.0 * (np.e * vr[small] + 1.0))
    w0[small] = -1.0 + pser * (1.0 - pser / 3.0 + 11.0 / 72.0 * pser**2)
    big = ~small
    lx = np.log(vr[big])
    llx = np.log(np.maximum(lx, 1e-300))
    w0[big] = np.where(vr[big] > np.e, lx - llx, 0.5 * vr[big])

    with np.errstate(over="ignore", invalid="ignore"):  # overflowed steps are replaced
        for _ in range(64):
            ew = np.exp(w0)
            dw, denom = _halley_step(w0, ew, w0 * ew - vr)
            over = ~np.isfinite(denom)
            if over.any():
                dw[over] = _halley_step(w0[over], 1.0, w0[over] - vr[over] / ew[over])[0]
            w0 -= dw
            np.maximum(w0, -1.0, out=w0)  # stay on the principal branch
            if np.all(np.abs(dw) <= 1e-16 * (2.0 + np.abs(w0))):
                break
    w[rest] = w0
    return float(w[0]) if scalar else w.reshape(arr.shape)


def _lambert_w0_scalar(x: float) -> float:
    """``lambert_w0`` of one float, step for step as the array path takes it."""
    if not math.isfinite(x):
        raise ValueError("lambert_w0 requires finite input")
    if _BRANCH_POINT * (1.0 + 1e-14) < x < _BRANCH_POINT:
        x = _BRANCH_POINT
    if x < _BRANCH_POINT:
        raise ValueError(f"lambert_w0 undefined for x = {x} < -1/e")
    if x == _BRANCH_POINT:
        return -1.0
    if x < 0.25:
        pser = float(np.sqrt(2.0 * (np.e * x + 1.0)))
        w = -1.0 + pser * (1.0 - pser / 3.0 + 11.0 / 72.0 * (pser * pser))
    elif x > np.e:
        lx = float(np.log(x))
        w = lx - float(np.log(lx))
    else:
        w = 0.5 * x
    for _ in range(64):
        ew = float(np.exp(w))
        dw, denom = _halley_step(w, ew, w * ew - x)
        if not math.isfinite(denom):
            dw = _halley_step(w, 1.0, w - x / ew)[0]
        w = max(w - dw, -1.0)  # stay on the principal branch
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w


def _halley_step(w, ew, f):
    """Halley's correction to ``w`` as a root of w e^w - x, and its denominator,
    from ``ew = e^w`` and the residual ``f = w e^w - x``; floats and arrays alike.

    Where the denominator overflows (``(w + 2) f`` from x above about
    2.757e307, ``e^w (w + 1)`` or f itself near the float maximum) the
    callers take the step again on the residual divided by e^w:
    ``_halley_step(w, 1.0, w - x / e^w)``.  Dividing f and both derivatives
    by e^w keeps the step's value but not its rounding, so only there.
    """
    wp1 = w + 1.0
    denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
    return f / denom, denom


def q_log(x, q: float):
    """Deformed logarithm (x^(1-q) - 1) / (1 - q); plain ln at q = 1."""
    if q <= 0:
        raise ValueError(f"q must be > 0, got {q}")
    arr = np.asarray(x, dtype=np.float64)
    if (arr <= 0).any():
        raise ValueError("q_log requires x > 0")
    if abs(q - 1.0) < _ALPHA_ONE_TOL:
        out = np.log(arr)
    else:
        out = (arr ** (1.0 - q) - 1.0) / (1.0 - q)
    return float(out) if arr.ndim == 0 else out


def q_exp(x, q: float):
    """Deformed exponential [1 + (1-q) x]_+^(1/(1-q)); plain exp at q = 1.

    Inverse of :func:`q_log` wherever the bracket stays positive.
    """
    if q <= 0:
        raise ValueError(f"q must be > 0, got {q}")
    arr = np.asarray(x, dtype=np.float64)
    if abs(q - 1.0) < _ALPHA_ONE_TOL:
        out = np.exp(arr)
    else:
        base = np.maximum(1.0 + (1.0 - q) * arr, 0.0)
        out = base ** (1.0 / (1.0 - q))
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class GroupLogarithm:
    """A deformation G of the natural log: log_G(x) = G(ln x), exp_G(x) = e^(G^-1(x)).

    G must be strictly increasing with G(0) = 0 so that log_G(1) = 0.
    """

    G: Callable
    G_inverse: Callable
    name: str = "custom"

    def log(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if (arr <= 0).any():
            raise ValueError("group logarithm requires x > 0")
        out = self.G(np.log(arr))
        return float(out) if arr.ndim == 0 else np.asarray(out)

    def exp(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = np.exp(self.G_inverse(arr))
        return float(out) if arr.ndim == 0 else np.asarray(out)


def identity_group_log() -> GroupLogarithm:
    """The undeformed case: log_G = ln, exp_G = exp."""
    return GroupLogarithm(G=lambda t: t, G_inverse=lambda s: s, name="identity")


def tsallis_group_log(q: float) -> GroupLogarithm:
    """G(t) = (e^((1-q) t) - 1) / (1 - q), whose log_G is the q-logarithm."""
    if q <= 0:
        raise ValueError(f"q must be > 0, got {q}")
    if abs(q - 1.0) < _ALPHA_ONE_TOL:
        return identity_group_log()

    def G(t):
        return np.expm1((1.0 - q) * np.asarray(t, dtype=np.float64)) / (1.0 - q)

    def G_inv(s):
        return np.log1p((1.0 - q) * np.asarray(s, dtype=np.float64)) / (1.0 - q)

    return GroupLogarithm(G=G, G_inverse=G_inv, name=f"q-log(q={q:g})")


@dataclass(frozen=True)
class CompositionLaw:
    """A symmetric, associative, null-composable two-argument combination rule."""

    phi: Callable
    name: str = "custom"

    def __call__(self, x, y):
        return self.phi(x, y)


def z_entropy_general(p, group_log: GroupLogarithm, alpha: float) -> float:
    """log_G(sum p_i^alpha) / (1 - alpha) for a generic group logarithm.

    alpha = 1 is rejected here; the growth-class entropies provide their own
    Shannon-limit forms.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        raise ValueError("alpha = 1 not supported by the generic form; use a class entropy")
    q = probabilities_of(p)
    s = float(np.sum(_positive(q) ** alpha))
    log_s = math.log(s) if s >= _TINY else _log_power_sum(q, alpha, s) * (1.0 - alpha)
    if not math.isfinite(log_s):
        raise ValueError(
            f"z_entropy_general overflows float64 at alpha={alpha}: ln(sum p^alpha) is not finite")
    return float(group_log.G(log_s)) / (1.0 - alpha) + 0.0


def relative_z(p, q, group_log: GroupLogarithm, alpha: float) -> float:
    """G(ln(sum p_i^alpha q_i^(1-alpha)) / (alpha - 1)) for strictly positive p, q.

    With the identity deformation this is exactly the Renyi divergence of
    order alpha.  The sign for general G follows from evaluating the formula
    as stated; no non-negativity is enforced.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        raise ValueError("alpha = 1 not supported")
    pv = probabilities_of(p)
    qv = probabilities_of(q)
    if pv.size != qv.size:
        raise ValueError(f"length mismatch: {pv.size} vs {qv.size}")
    if (pv <= 0).any() or (qv <= 0).any():
        raise ValueError("relative entropy requires strictly positive entries")
    s = float(np.sum(pv**alpha * qv ** (1.0 - alpha)))
    return float(group_log.G(math.log(s) / (alpha - 1.0))) + 0.0
