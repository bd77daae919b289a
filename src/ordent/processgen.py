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


# The noise-free cubic and skew-tent orbits do not depend on the seed, so the
# noisy realizations of one spec share them: each is computed once per
# argument tuple, at most four per map stay alive, and the arrays are
# read-only (the noise is added into a new array).  The logistic orbit is
# not cached: generate returns it as the samples themselves.
@functools.lru_cache(maxsize=4)
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
    y.flags.writeable = False
    return y


@functools.lru_cache(maxsize=4)
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
    y.flags.writeable = False
    return y


def _fgn_samples(t: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    if t == 1:
        return rng.standard_normal(1)
    if hurst == 0.5:
        return rng.standard_normal(t)
    coeff = _circulant_coefficients(t, hurst)
    if _is_5_smooth(coeff.size):
        return _fgn_circulant(coeff, t, rng)
    return _fgn_chirp(_chirp_plan(t, hurst), t, rng)


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


def _hermitian_half(t: int, rng: np.random.Generator) -> np.ndarray:
    """z[0 .. t] of the Hermitian normal vector z[2t - k] = conj(z[k]), drawn in a fixed order."""
    z = np.empty(t + 1, dtype=np.complex128)
    z[0] = rng.standard_normal()
    z[t] = rng.standard_normal()
    v = rng.standard_normal((t - 1, 2))
    z[1:t] = (v[:, 0] + 1j * v[:, 1]) / math.sqrt(2.0)
    return z


def _fgn_circulant(coeff: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    half = _hermitian_half(t, rng)
    z = np.concatenate((half, np.conj(half[t - 1 : 0 : -1])))
    return np.fft.fft(coeff * z).real[:t]


def _fgn_chirp(plan: tuple, t: int, rng: np.random.Generator) -> np.ndarray:
    """The first t values of _fgn_circulant's fft(coeff * z).real, from the same draws.

    The real output r of the Hermitian spectrum coeff * z packs as
    s[p] = r[2p] + i r[2p+1], the length-t DFT of
    A[k] = h[k] (1 + i w[k]) z[k] + h[t - k] (1 - i w[k]) conj(z[t - k]),
    so only z[0 .. t] is built, and only s[p] for p < ceil(t/2) is needed.
    Bluestein's identity kp = (k^2 + p^2 - (p - k)^2) / 2 turns that DFT into
    a chirp product, one circular convolution at a 5-smooth size and a second
    chirp product.  _chirp_plan folds every factor that depends only on
    (t, hurst).
    """
    head, tail, kernel, twiddle = plan
    z = _hermitian_half(t, rng)
    # in place where a temporary would be as large as the transform
    a = head * z[:t]
    a += tail * np.conj(z[t:0:-1])
    spectrum = np.fft.fft(a, kernel.size)
    spectrum *= kernel
    s = np.fft.ifft(spectrum)[: twiddle.size]
    s *= twiddle
    return s.view(np.float64)[:t]


@functools.lru_cache(maxsize=4)
def _chirp_plan(t: int, hurst: float) -> tuple:
    """Read-only (head, tail, kernel, twiddle) of _fgn_chirp for t fGn samples.

    With h the symmetrised coefficients h[k] = (coeff[k] + coeff[2t - k]) / 2
    (the real part of the direct FFT sees only that average), w[k] = exp(-i pi k / t)
    the packing twiddle and c[k] = exp(-i pi k^2 / t) the chirp:
    head = h[k] (1 + i w[k]) c[k], tail = h[t - k] (1 - i w[k]) c[k],
    kernel = FFT of conj(c[j]) placed at j mod n for -(t - 1) <= j < ceil(t/2),
    twiddle = c[p] for p < ceil(t/2).  n is the least 5-smooth size that holds
    that convolution without wrap-around.  Like _circulant_coefficients, at
    most four plans stay alive (about 64 bytes per sample each).
    """
    coeff = _circulant_coefficients(t, hurst)
    h = np.empty(t + 1)
    h[0], h[t] = coeff[0], coeff[t]
    h[1:t] = 0.5 * (coeff[1:t] + coeff[: t : -1])
    k = np.arange(t)
    twist = 1j * np.exp(-1j * np.pi * k / t)
    # k^2 mod 2t keeps the phase argument small and exact
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * t)) / t)
    head = h[:t] * (1.0 + twist) * chirp
    tail = h[t:0:-1] * (1.0 - twist) * chirp
    m = (t + 1) // 2
    n = _next_5_smooth(t + m - 1)
    row = np.zeros(n, dtype=np.complex128)
    row[:m] = np.conj(chirp[:m])
    row[n - t + 1 :] = np.conj(chirp[t - 1 : 0 : -1])
    plan = (head, tail, np.fft.fft(row), chirp[:m].copy())
    for array in plan:
        array.flags.writeable = False
    return plan


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _next_5_smooth(n: int) -> int:
    """The least 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best
