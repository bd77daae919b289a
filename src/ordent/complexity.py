"""Growth classes for allowed-pattern counts and their tailored entropies.

A process is classified by how the log of its allowed-pattern count grows
with the pattern length L: linearly (c L, deterministic maps), like L ln L
(noise-like processes that eventually use all L! patterns), or like
c L ln L with 0 < c < 1 in between.  Each class g induces an entropy
g^-1(R_alpha) - g^-1(0) whose per-length rate stays bounded for processes
in that class, plus the combination rule that makes it additive over
independent joins.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entropies import CompositionLaw, lambert_w0, renyi, probabilities_of
from .patterns import check_length

EXPONENTIAL = "exponential"
FACTORIAL = "factorial"
SUBFACTORIAL = "subfactorial"
CUSTOM = "custom"


@dataclass(frozen=True)
class ComplexityClass:
    """A growth law g for ln(allowed pattern count) and its inverse.

    g must be strictly increasing on its domain; for the factorial-type
    laws (t ln t and c t ln t) the domain is t >= 1, so g(1) = 0 and the
    inverse goes through the Lambert W principal branch.
    """

    kind: str
    c: float = 1.0
    g_fn: Callable | None = None
    g_inv_fn: Callable | None = None

    @classmethod
    def exponential(cls, c: float = 1.0) -> "ComplexityClass":
        """g(t) = c t with c > 0."""
        if c <= 0:
            raise ValueError(f"exponential growth constant must be > 0, got {c}")
        return cls(kind=EXPONENTIAL, c=float(c))

    @classmethod
    def factorial(cls) -> "ComplexityClass":
        """g(t) = t ln t on t >= 1."""
        return cls(kind=FACTORIAL, c=1.0)

    @classmethod
    def sub_factorial(cls, c: float) -> "ComplexityClass":
        """g(t) = c t ln t with 0 < c < 1, on t >= 1."""
        if not 0.0 < c < 1.0:
            raise ValueError(f"sub-factorial constant must lie in (0, 1), got {c}")
        return cls(kind=SUBFACTORIAL, c=float(c))

    @classmethod
    def custom(cls, g: Callable, g_inverse: Callable) -> "ComplexityClass":
        """A user-supplied strictly increasing growth law and its inverse."""
        probe = 0.7
        back = g(g_inverse(probe))
        if not np.isfinite(back) or abs(back - probe) > 1e-8:
            raise ValueError("custom growth law: g(g_inverse(0.7)) != 0.7; not invertible")
        return cls(kind=CUSTOM, g_fn=g, g_inv_fn=g_inverse)

    @property
    def label(self) -> str:
        if self.kind in (EXPONENTIAL, SUBFACTORIAL):
            return f"{self.kind}(c={self.c:g})"
        return self.kind

    def g(self, t: float) -> float:
        """Evaluate the growth law at t."""
        if self.kind == EXPONENTIAL:
            if t < 0:
                raise ValueError(f"g domain is t >= 0, got {t}")
            return self.c * t
        if self.kind in (FACTORIAL, SUBFACTORIAL):
            if t < 1:
                raise ValueError(f"g domain is t >= 1 for {self.kind}, got {t}")
            return self.c * t * math.log(t)
        return float(self.g_fn(t))

    def g_inverse(self, s: float) -> float:
        """Invert the growth law at s >= 0."""
        if self.kind != CUSTOM and s < 0:
            raise ValueError(f"g_inverse domain is s >= 0, got {s}")
        if self.kind == EXPONENTIAL:
            return s / self.c
        if self.kind in (FACTORIAL, SUBFACTORIAL):
            return math.exp(lambert_w0(s / self.c))
        return float(self.g_inv_fn(s))

    def g_inverse_at_zero(self) -> float:
        if self.kind == EXPONENTIAL:
            return 0.0
        if self.kind in (FACTORIAL, SUBFACTORIAL):
            return 1.0
        return float(self.g_inv_fn(0.0))

    def entropy(self, r: float) -> float:
        """g^-1(r) - g^-1(0): the class entropy of a Renyi entropy (or log count) r."""
        if self.kind in (FACTORIAL, SUBFACTORIAL):
            # exp(W(r / c)) - 1; expm1 keeps precision when r (hence W) is tiny
            return float(np.expm1(lambert_w0(r / self.c)))
        return self.g_inverse(r) - self.g_inverse_at_zero()


def metric_perm_entropy(p, growth: ComplexityClass, alpha: float) -> float:
    """Class-tailored entropy g^-1(R_alpha(p)) - g^-1(0) of a pattern distribution.

    For the exponential class with c = 1 and alpha = 1 this is the ordinary
    (Shannon) permutation entropy.  Closed forms: R/c for exponential growth
    and exp(W(R/c)) - 1 for the factorial-type laws.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    return growth.entropy(renyi(probabilities_of(p), alpha))


def topological_perm_entropy(allowed_count: int, growth: ComplexityClass) -> float:
    """g^-1(ln allowed_count) - g^-1(0): the alpha -> 0 counterpart."""
    if allowed_count < 1:
        raise ValueError(f"allowed_count must be >= 1, got {allowed_count}")
    return growth.entropy(math.log(allowed_count))


def composition_law_for(growth: ComplexityClass) -> CompositionLaw:
    """Combination rule Phi with Phi(Z(p), Z(q)) = Z(p x q) for the class entropy.

    Exponential growth gives plain addition; both factorial-type laws share
    Phi(x, y) = exp(W((x+1) ln(x+1) + (y+1) ln(y+1))) - 1.
    """
    if growth.kind == EXPONENTIAL:
        return CompositionLaw(phi=lambda x, y: x + y, name="additive")
    if growth.kind in (FACTORIAL, SUBFACTORIAL):

        def phi(x, y):
            xa = np.asarray(x, dtype=np.float64)
            ya = np.asarray(y, dtype=np.float64)
            if (xa < 0).any() or (ya < 0).any():
                raise ValueError("factorial-type combination needs x, y >= 0")
            s = (xa + 1.0) * np.log1p(xa) + (ya + 1.0) * np.log1p(ya)
            out = np.expm1(lambert_w0(s))
            return float(out) if xa.ndim == 0 and ya.ndim == 0 else out

        return CompositionLaw(phi=phi, name="factorial")

    g0 = growth.g_inverse_at_zero()

    def phi_custom(x, y):
        return growth.g_inverse(growth.g(x + g0) + growth.g(y + g0)) - g0

    return CompositionLaw(phi=phi_custom, name="custom")


@dataclass
class RateEstimate:
    """Per-length entropy-over-length values; the last entry is the working estimate.

    The sequence is reported as-is: no claim of convergence is attached to
    the final value.
    """

    lengths: list
    values: np.ndarray
    per_realization: np.ndarray  # shape (realizations, len(lengths))
    alpha: float
    growth_label: str

    @property
    def final(self) -> float:
        return float(self.values[-1])


def entropy_rate(
    spec,
    growth: ComplexityClass,
    alpha: float,
    l_range: Sequence[int],
    realizations: int = 10,
    transient: int | None = None,
    workers: int = 1,
) -> RateEstimate:
    """Average Z/L over independent realizations for each pattern length.

    alpha = 0 selects the topological variant (driven by the allowed-pattern
    count); alpha > 0 the metric one.  Realization r is ``spec`` at seed
    spec.seed + r, whatever the scheduling.  Each comes from
    ``processgen.steady_samples`` and is counted at every length by one
    ``census_lengths`` call (one pass of lag comparisons; bincount counting
    where L! is at most the window count).  A warning is emitted when spec.t
    gives fewer than 10 L! windows, where the census is badly undersampled.
    """
    from .census import census_lengths
    from .processgen import steady_samples

    lengths = [int(L) for L in l_range]
    if not lengths:
        raise ValueError("l_range must be non-empty")
    for L in lengths:
        check_length(L)
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if spec.t < max(lengths):
        raise ValueError(f"series length {spec.t} is below the longest pattern length {max(lengths)}")
    for L in lengths:
        if spec.t - L + 1 < 10 * math.factorial(L):
            warnings.warn(
                f"t={spec.t} gives {spec.t - L + 1} windows at L={L}, below 10 * {L}! ; "
                "pattern probabilities will be undersampled",
                stacklevel=2,
            )

    def one_realization(realization) -> np.ndarray:
        series = steady_samples(realization, transient)
        out = np.empty(len(lengths))
        for i, (L, dist) in enumerate(zip(lengths, census_lengths(series, lengths))):
            if alpha == 0:
                z = topological_perm_entropy(dist.allowed_count, growth)
            else:
                z = metric_perm_entropy(dist, growth, alpha)
            out[i] = z / L
        return out

    per_real = _realization_rows(one_realization, spec, realizations, workers)
    return RateEstimate(
        lengths=lengths,
        values=per_real.mean(axis=0),
        per_realization=per_real,
        alpha=alpha,
        growth_label=growth.label,
    )


def _realization_rows(fn: Callable, spec, realizations: int, workers: int) -> np.ndarray:
    """Rows fn(realization r) in r order; realization r is ``spec`` at seed spec.seed + r."""
    from .processgen import replace_spec

    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    rows = _run_indexed(lambda r: fn(replace_spec(spec, seed=spec.seed + r)), realizations, workers)
    return np.vstack(rows)


def _run_indexed(fn: Callable[[int], object], n: int, workers: int) -> list:
    """Evaluate fn(0..n-1), optionally on a thread pool; order is fixed by index."""
    if workers <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, n)) as pool:
        return list(pool.map(fn, range(n)))


@dataclass
class GrowthFit:
    """Outcome of fitting log pattern-count data against the growth-law catalog."""

    kind: str
    c_hat: float
    rss: dict
    residuals: np.ndarray
    model: str

    @property
    def growth(self) -> ComplexityClass:
        if self.kind == EXPONENTIAL:
            return ComplexityClass.exponential(self.c_hat)
        if self.kind == FACTORIAL:
            return ComplexityClass.factorial()
        return ComplexityClass.sub_factorial(self.c_hat)


def classify_growth(data) -> GrowthFit:
    """Identify the growth class of observed (L, ln allowed_count) points.

    Candidate models: c * L (exponential), c * L ln L (factorial family),
    and the exact ln L! curve.  The exact curve is needed because at small
    L the Stirling gap between ln L! and L ln L is large: data that is
    literally ln L! would otherwise be scored as sub-factorial with a badly
    biased constant.  Among c * L ln L fits, c >= 0.9 is reported as
    factorial and 0 < c < 0.9 as sub-factorial.  Every L must be a pattern
    length (2..MAX_PATTERN_LENGTH), given once.
    """
    pairs = _as_growth_pairs(data)
    for L, _ in pairs:
        check_length(L)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 distinct lengths, got {len(pairs)}")
    ls = np.array([p[0] for p in pairs], dtype=np.float64)
    ys = np.array([p[1] for p in pairs], dtype=np.float64)

    x_lin = ls
    c_lin = float(np.dot(x_lin, ys) / np.dot(x_lin, x_lin))
    res_lin = ys - c_lin * x_lin

    x_llog = ls * np.log(ls)
    c_llog = float(np.dot(x_llog, ys) / np.dot(x_llog, x_llog))
    res_llog = ys - c_llog * x_llog

    ln_fact = np.array([math.lgamma(L + 1.0) for L in ls])
    res_fact = ys - ln_fact

    rss = {
        "c*L": float(np.dot(res_lin, res_lin)),
        "c*L*lnL": float(np.dot(res_llog, res_llog)),
        "lnL!": float(np.dot(res_fact, res_fact)),
    }
    best = min(rss, key=rss.get)
    if best == "c*L":
        return GrowthFit(EXPONENTIAL, c_lin, rss, res_lin, best)
    if best == "lnL!":
        return GrowthFit(FACTORIAL, 1.0, rss, res_fact, best)
    if c_llog >= 0.9:
        return GrowthFit(FACTORIAL, c_llog, rss, res_llog, best)
    return GrowthFit(SUBFACTORIAL, c_llog, rss, res_llog, best)


def _as_growth_pairs(data) -> list:
    pairs = []
    for item in data:
        final = getattr(item, "final_value", None)
        if final is not None:
            pairs.append((int(item.length), float(final)))
        else:
            L, y = item
            pairs.append((int(L), float(y)))
    seen = {}
    for L, y in pairs:
        if L in seen:
            raise ValueError(f"length {L} repeated")
        seen[L] = y
    return sorted(seen.items())
