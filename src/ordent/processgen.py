"""Seeded reference-process generators.

All processes draw from a single numpy PCG64 stream per call, in a fixed
order, so one (spec, seed) pair always yields the same samples bit for bit.
Gaussian variates come from numpy's ziggurat sampler on that stream.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .patterns import TimeSeries

WHITE_NOISE = "white-noise"
FGN = "fgn"
FBM = "fbm"
LOGISTIC = "logistic"
NOISY_LOGISTIC = "noisy-logistic"
NOISY_CUBIC = "noisy-cubic"
NOISY_SKEW_TENT = "noisy-skew-tent"

KINDS = (WHITE_NOISE, FGN, FBM, LOGISTIC, NOISY_LOGISTIC, NOISY_CUBIC, NOISY_SKEW_TENT)

# map orbits start off their attractor: this many leading samples are
# dropped before counting unless the caller asks otherwise
MAP_KINDS = frozenset({LOGISTIC, NOISY_LOGISTIC, NOISY_CUBIC, NOISY_SKEW_TENT})
MAP_TRANSIENT = 1000

# the cubic map y -> 3y(1 - y^2) maps [-B, B] onto itself
_CUBIC_BOUND = 2.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative generator parameters: process kind, length, seed, knobs."""

    kind: str
    t: int
    seed: int = 0
    hurst: Optional[float] = None
    a: Optional[float] = None
    eps: Optional[float] = None
    x0: Optional[float] = None
    amp: Optional[float] = None
    y0: Optional[float] = None
    a_range: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}; choose from {KINDS}")
        if self.t < 2:
            raise ValueError(f"series length must be >= 2, got {self.t}")
        if self.kind in (FGN, FBM):
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValueError(f"Hurst exponent must lie in (0, 1), got {self.hurst}")
        if self.kind in (LOGISTIC, NOISY_LOGISTIC):
            if self.a is None or not 0.0 < self.a <= 4.0:
                raise ValueError(f"logistic parameter a must lie in (0, 4], got {self.a}")
            if self.x0 is None or not 0.0 <= self.x0 <= 1.0:
                raise ValueError(f"x0 must lie in [0, 1], got {self.x0}")
        if self.kind == NOISY_LOGISTIC:
            if self.eps is None or self.eps < 0:
                raise ValueError(f"noise half-width eps must be >= 0, got {self.eps}")
            if self.a_range is not None:
                lo, hi = self.a_range
                if not (0.0 < lo <= hi <= 4.0):
                    raise ValueError(f"a_range must satisfy 0 < lo <= hi <= 4, got {self.a_range}")
        if self.kind in (NOISY_CUBIC, NOISY_SKEW_TENT):
            if self.amp is None or self.amp < 0:
                raise ValueError(f"noise amplitude must be >= 0, got {self.amp}")
            if self.y0 is None:
                raise ValueError("y0 is required")
            bound = _CUBIC_BOUND if self.kind == NOISY_CUBIC else 1.0
            lo = -bound if self.kind == NOISY_CUBIC else 0.0
            if not lo <= self.y0 <= bound:
                raise ValueError(f"y0 must lie in [{lo:g}, {bound:g}], got {self.y0}")

    @property
    def default_transient(self) -> int:
        """Leading samples to drop before counting: MAP_TRANSIENT for maps, else 0."""
        return MAP_TRANSIENT if self.kind in MAP_KINDS else 0

    def describe(self) -> dict:
        out = {"kind": self.kind, "t": self.t, "seed": self.seed}
        for name in ("hurst", "a", "eps", "x0", "amp", "y0", "a_range"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def replace_spec(spec: ProcessSpec, **changes) -> ProcessSpec:
    return dataclasses.replace(spec, **changes)


def white_noise(t: int, seed: int = 0) -> ProcessSpec:
    """Independent uniform samples on [0, 1]."""
    return ProcessSpec(kind=WHITE_NOISE, t=t, seed=seed)


def fgn(t: int, hurst: float, seed: int = 0) -> ProcessSpec:
    """Stationary unit-variance Gaussian noise with the given Hurst exponent."""
    return ProcessSpec(kind=FGN, t=t, seed=seed, hurst=hurst)


def fbm(t: int, hurst: float, seed: int = 0) -> ProcessSpec:
    """Cumulative sum of fractional Gaussian noise, started at 0."""
    return ProcessSpec(kind=FBM, t=t, seed=seed, hurst=hurst)


def logistic(t: int, a: float = 4.0, x0: float = 0.3, seed: int = 0) -> ProcessSpec:
    """Iterates of x -> a x (1 - x) on [0, 1]."""
    return ProcessSpec(kind=LOGISTIC, t=t, seed=seed, a=a, x0=x0)


def noisy_logistic(
    t: int,
    a: float = 3.835,
    eps: float = 0.001,
    x0: float = 0.3,
    seed: int = 0,
    a_range: Optional[Tuple[float, float]] = None,
) -> ProcessSpec:
    """Logistic iteration plus additive uniform noise on [-eps, eps], clamped to [0, 1].

    When a_range is given, the map parameter is drawn uniformly from that
    window (one draw per realization) instead of using ``a``.
    """
    return ProcessSpec(
        kind=NOISY_LOGISTIC, t=t, seed=seed, a=a, eps=eps, x0=x0, a_range=a_range
    )


def noisy_cubic(t: int, amp: float = 0.15, y0: float = 0.1, seed: int = 0) -> ProcessSpec:
    """Cubic map y -> 3y(1 - y^2) observed through uniform noise of peak-to-peak ``amp``."""
    return ProcessSpec(kind=NOISY_CUBIC, t=t, seed=seed, amp=amp, y0=y0)


def noisy_skew_tent(t: int, amp: float = 0.2, y0: float = 0.3, seed: int = 0) -> ProcessSpec:
    """Skew tent map (peak at 0.25) observed through uniform noise of peak-to-peak ``amp``."""
    return ProcessSpec(kind=NOISY_SKEW_TENT, t=t, seed=seed, amp=amp, y0=y0)


def fgn_autocovariance(lags, hurst: float) -> np.ndarray:
    """gamma(k) = ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2 for unit-variance noise."""
    k = np.abs(np.asarray(lags, dtype=np.float64))
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)


def generate(spec: ProcessSpec) -> TimeSeries:
    """Produce the sample sequence described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    t = spec.t
    if spec.kind == WHITE_NOISE:
        x = rng.random(t)
    elif spec.kind == FGN:
        x = _fgn_samples(t, spec.hurst, rng)
    elif spec.kind == FBM:
        increments = _fgn_samples(t - 1, spec.hurst, rng)
        x = np.concatenate(([0.0], np.cumsum(increments)))
    elif spec.kind == LOGISTIC:
        x = _logistic_orbit(t, spec.a, spec.x0)
    elif spec.kind == NOISY_LOGISTIC:
        a = spec.a if spec.a_range is None else rng.uniform(*spec.a_range)
        noise = rng.uniform(-spec.eps, spec.eps, t - 1) if spec.eps > 0 else np.zeros(t - 1)
        x = _noisy_logistic_orbit(t, a, spec.x0, noise)
    elif spec.kind == NOISY_CUBIC:
        y = _cubic_orbit(t, spec.y0)
        x = y + rng.uniform(-spec.amp / 2.0, spec.amp / 2.0, t)
    elif spec.kind == NOISY_SKEW_TENT:
        y = _skew_tent_orbit(t, spec.y0)
        x = y + rng.uniform(-spec.amp / 2.0, spec.amp / 2.0, t)
    else:  # pragma: no cover - guarded by ProcessSpec
        raise ValueError(spec.kind)
    return TimeSeries(samples=x, meta=spec.describe())


def _logistic_orbit(t: int, a: float, x0: float) -> np.ndarray:
    x = np.empty(t)
    v = x0
    x[0] = v
    for i in range(1, t):
        v = a * v * (1.0 - v)
        x[i] = v
    return x


def _noisy_logistic_orbit(t: int, a: float, x0: float, noise: np.ndarray) -> np.ndarray:
    x = np.empty(t)
    v = x0
    x[0] = v
    for i in range(1, t):
        v = a * v * (1.0 - v) + noise[i - 1]
        # noise can push the state out of [0, 1], where the map diverges
        if v < 0.0:
            v = 0.0
        elif v > 1.0:
            v = 1.0
        x[i] = v
    return x


def _cubic_orbit(t: int, y0: float) -> np.ndarray:
    b = _CUBIC_BOUND
    y = np.empty(t)
    v = y0
    y[0] = v
    for i in range(1, t):
        v = 3.0 * v * (1.0 - v * v)
        # reflect roundoff excursions back into the invariant interval [-b, b]
        if v > b:
            v = 2.0 * b - v
        elif v < -b:
            v = -2.0 * b - v
        y[i] = v
    return y


def _skew_tent_orbit(t: int, y0: float) -> np.ndarray:
    y = np.empty(t)
    v = y0
    y[0] = v
    for i in range(1, t):
        v = v / 0.25 if v <= 0.25 else (1.0 - v) / 0.75
        if v < 0.0:
            v = 0.0
        elif v > 1.0:
            v = 1.0
        y[i] = v
    return y


def _fgn_samples(t: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    if t == 1:
        return rng.standard_normal(1)
    if hurst == 0.5:
        return rng.standard_normal(t)
    return _fgn_circulant(_circulant_coefficients(t, hurst), t, rng)


@functools.lru_cache(maxsize=4)
def _circulant_coefficients(t: int, hurst: float) -> np.ndarray:
    """sqrt(eigenvalue / 2t) of the circulant embedding of t fGn samples.

    The embedding's first row is cov[0 .. t-1], a middle entry, cov[t-1 .. 1].
    A middle 0.0 comes first, so the samples drawn from it keep their bits.
    Where that row is not nonnegative definite the middle is cov[t]: the
    minimal embedding of Davies & Harte (1987), nonnegative definite at every
    H (Craigmile 2003 for H <= 1/2, Dietrich & Newsam 1997 above).
    Realizations of one (t, hurst) share the result, hence the cache (at most
    four arrays of 2t floats stay alive); the array is read-only.
    """
    cov = fgn_autocovariance(np.arange(t), hurst)
    row = np.concatenate((cov, [0.0], cov[-1:0:-1]))
    eigenvalues = np.fft.fft(row).real
    if _indefinite(eigenvalues):
        # cov[t] at row[t] adds cov[t] * exp(-i pi k) = cov[t] * (-1)^k to eigenvalue k
        middle = fgn_autocovariance([t], hurst)[0]
        eigenvalues[0::2] += middle
        eigenvalues[1::2] -= middle
        if _indefinite(eigenvalues):
            raise ValueError(
                f"circulant embedding of fGn not nonnegative definite at t={t}, H={hurst}"
            )
    coeff = np.sqrt(np.maximum(eigenvalues, 0.0) / eigenvalues.size)
    coeff.flags.writeable = False
    return coeff


def _indefinite(eigenvalues: np.ndarray) -> bool:
    return bool((eigenvalues < -1e-9 * eigenvalues.max()).any())


def _fgn_circulant(coeff: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    m = coeff.size  # = 2t
    z = np.empty(m, dtype=np.complex128)
    z[0] = rng.standard_normal()
    z[t] = rng.standard_normal()
    v = rng.standard_normal((t - 1, 2))
    half = (v[:, 0] + 1j * v[:, 1]) / math.sqrt(2.0)
    z[1:t] = half
    z[t + 1 :] = np.conj(half[::-1])
    return np.fft.fft(coeff * z).real[:t]
