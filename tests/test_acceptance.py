"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Criteria marked "instant" finish in milliseconds; the slowest (criterion 13)
sweeps eight processes over ten realizations.
"""

import math

import numpy as np

from conftest import product_distribution, random_distribution
from ordent import (
    ComplexityClass,
    census,
    composition_law_for,
    decode_pattern,
    encode_pattern,
    entropy_rate,
    exact_transition_probs,
    fbm,
    fgn,
    fgn_autocovariance,
    finite_pc_curve,
    generate,
    lambert_w0,
    logistic,
    measure_of,
    metric_perm_entropy,
    noisy_cubic,
    noisy_logistic,
    noisy_skew_tent,
    ordinal_cells,
    pattern_of,
    renyi,
    shannon,
    topological_perm_entropy,
    transition_matrix,
    white_noise,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_worked_example_pattern():
    got = pattern_of((0.3, -0.5, 1.2, 0.7))
    report(1, "rank sequence of (0.3, -0.5, 1.2, 0.7) is (1,0,3,2)",
           got == (1, 0, 3, 2), f"got {got}")


def test_criterion_02_order3_partition():
    cells = ordinal_cells(3)
    expected = [0.25, (5 - math.sqrt(5)) / 8, 0.75, (5 + math.sqrt(5)) / 8]
    found = cells.boundaries()
    nonempty = [pat for pat, iv in cells.cells if iv]
    ok = (
        len(nonempty) == 5
        and cells.intervals_for((2, 1, 0)) == []
        and len(found) == 4
        and all(abs(g - e) <= 1e-9 for g, e in zip(found, expected))
    )
    report(2, "order-3 cells: 5 nonempty, descending pattern empty, boundaries to 1e-9",
           ok, f"boundaries {np.round(found, 12).tolist()}")


def test_criterion_03_arcsine_measures():
    s3, s5 = math.sqrt(3.0), math.sqrt(5.0)
    checks = [
        ((0.0, 0.25), 10 / 30),
        ((0.0, (2 - s3) / 4), 5 / 30),
        (((2 - s3) / 4, (3 - s5) / 8), 1 / 30),
        (((3 - s5) / 8, 0.25), 4 / 30),
    ]
    errs = [abs(measure_of([iv]) - target) for iv, target in checks]
    report(3, "arcsine measures 10/30, 5/30, 1/30, 4/30 to 1e-9",
           max(errs) <= 1e-9, f"max err {max(errs):.2e}")


def test_criterion_04_transition_row_exact_and_empirical():
    tm = exact_transition_probs(3)
    row = tm.row((0, 1, 2))
    targets = {(0, 1, 2): 0.5, (0, 2, 1): 0.1, (2, 0, 1): 0.4}
    exact_ok = set(row) == {encode_pattern(p) for p in targets} and all(
        abs(row[encode_pattern(p)] - v) <= 1e-9 for p, v in targets.items()
    )
    orbit = generate(logistic(1_001_000, x0=0.3, seed=0)).samples[1000:]
    emp = transition_matrix(orbit, 3)
    emp_err = max(
        abs(emp.probability(encode_pattern((0, 1, 2)), encode_pattern(p)) - v)
        for p, v in targets.items()
    )
    report(4, "transition row (0,1,2) = (0.5, 0.1, 0.4); empirical orbit within 0.01",
           exact_ok and emp_err <= 0.01, f"empirical max err {emp_err:.4f}")


def test_criterion_05_pc_curve_saturation():
    results = {}
    for length, target in ((6, 6.5793), (7, 8.5252)):
        grid = sorted({int(v) for v in np.geomspace(length, 100_000, 25)})
        curve = finite_pc_curve(white_noise(grid[-1], seed=5), length, grid, realizations=10)
        results[length] = (curve.values[-1], target)
    ok = all(abs(got - target) <= 1e-3 for got, target in results.values())
    detail = ", ".join(f"L={L}: {got:.4f} vs {target}" for L, (got, target) in results.items())
    report(5, "white-noise growth curves saturate at ln 6! and ln 7! within 1e-3", ok, detail)


def test_criterion_06_noisy_period3_census():
    transient = 1000
    series = generate(
        noisy_logistic(100_000 + transient, a=3.835, eps=0.001, seed=4)
    ).samples[transient:]
    dist = census(series, 3)
    allowed = {pat for pat in ((0, 1, 2), (1, 2, 0), (2, 0, 1))}
    got = {tuple(r) for r in decode_pattern(dist.codes, 3).tolist()}
    report(6, "noisy period-3 logistic allows exactly the 3 cyclic patterns",
           got == allowed, f"got {sorted(got)}")


def test_criterion_07_lambert_suite():
    e0 = abs(lambert_w0(0.0) - 0.0)
    e1 = abs(lambert_w0(-math.exp(-1.0)) + 1.0)
    x = np.geomspace(math.exp(-1), 1e6, 1000)
    rel = np.max(np.abs(lambert_w0(x * np.log(x)) - np.log(x))
                 / np.maximum(np.abs(np.log(x)), 1e-300))
    report(7, "W(0)=0 and W(-1/e)=-1 to 1e-12; W(x ln x)=ln x to 1e-12 relative",
           e0 <= 1e-12 and e1 <= 1e-12 and rel <= 1e-12, f"identity max rel {rel:.2e}")


def test_criterion_08_composability():
    rng = np.random.default_rng(8)
    growths = [
        ComplexityClass.exponential(1.0),
        ComplexityClass.factorial(),
        ComplexityClass.sub_factorial(0.5),
    ]
    worst = 0.0
    for _ in range(200):
        p = random_distribution(rng, rng.integers(2, 7))
        q = random_distribution(rng, rng.integers(2, 7))
        joint = product_distribution(p, q)
        for growth in growths:
            law = composition_law_for(growth)
            for alpha in (0.5, 2.0):
                lhs = law(
                    metric_perm_entropy(p, growth, alpha),
                    metric_perm_entropy(q, growth, alpha),
                )
                rhs = metric_perm_entropy(joint, growth, alpha)
                worst = max(worst, abs(lhs - rhs))
    report(8, "Phi(Z(p), Z(q)) = Z(p x q) within 1e-9 for all three classes",
           worst <= 1e-9, f"max err {worst:.2e}")


def test_criterion_09_renyi_properties():
    rng = np.random.default_rng(9)
    alphas = [0.25, 0.5, 1.0, 2.0, 4.0]
    add_err = 0.0
    mono_ok = True
    for _ in range(100):
        p = random_distribution(rng, 4)
        q = random_distribution(rng, 5)
        joint = product_distribution(p, q)
        for alpha in alphas:
            add_err = max(
                add_err, abs(renyi(joint, alpha) - renyi(p, alpha) - renyi(q, alpha))
            )
        values = [renyi(p, a) for a in alphas]
        mono_ok &= all(u >= v - 1e-12 for u, v in zip(values, values[1:]))
    report(9, "Renyi additivity within 1e-10 and monotone decay in alpha",
           add_err <= 1e-10 and mono_ok, f"additivity max err {add_err:.2e}")


def test_criterion_10_extensivity():
    fac = ComplexityClass.factorial()
    ok = True
    previous = 0.0
    values = []
    for length in range(5, 13):
        outcomes = math.ceil(math.exp(fac.g(float(length))))
        value = topological_perm_entropy(outcomes, fac) / length
        target = (length - 1.0) / length
        ok &= abs(value - target) <= 0.05 * target and value > previous
        previous = value
        values.append(round(value, 6))
    report(10, "uniform factorial-growth rate within 5% of (L-1)/L and increasing",
           ok, f"values {values}")


def test_criterion_11_closed_form_vs_bisection():
    fac = ComplexityClass.factorial()

    def bisect_inverse(s):
        lo, hi = 1.0, 25.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-13:
                break
            if mid * math.log(mid) < s:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    grid = np.linspace(0.0, 20.0, 1000)
    worst = max(abs(fac.g_inverse(r) - bisect_inverse(r)) for r in grid)
    report(11, "exp(W(R)) - 1 matches root-finding of t ln t = R within 1e-10",
           worst <= 1e-10, f"max err {worst:.2e}")


def test_criterion_12_fgn_covariance():
    def bartlett_se(hurst, lag, t, truncation=20_000):
        j = np.arange(-truncation, truncation + 1)
        g = fgn_autocovariance(j, hurst)
        return math.sqrt(
            np.sum(g * g + fgn_autocovariance(j + lag, hurst)
                   * fgn_autocovariance(j - lag, hurst)) / t
        )

    t, reps = 200_000, 8
    ok = True
    worst_z = 0.0
    for hurst in (0.5, 0.75):
        estimates = np.empty((reps, 21))
        for r in range(reps):
            x = generate(fgn(t, hurst=hurst, seed=120 + r)).samples
            for k in range(21):
                estimates[r, k] = np.mean(x[: t - k] * x[k:]) if k else np.mean(x * x)
        mean = estimates.mean(axis=0)
        target = fgn_autocovariance(np.arange(21), hurst)
        for k in range(21):
            z = abs(mean[k] - target[k]) / (bartlett_se(hurst, k, t) / math.sqrt(reps))
            worst_z = max(worst_z, z)
            ok &= z <= 3.0
    analytic = fgn_autocovariance(np.arange(1, 21), 0.5)
    ok &= (analytic == 0.0).all()
    report(12, "fGn autocovariance matches target within 3 SE (H = 0.5, 0.75)",
           ok, f"worst |z| {worst_z:.2f}")


def test_criterion_13_factorial_rate_envelope():
    t, reps = 60_000, 10
    specs = {
        "white-noise": white_noise(t, seed=13),
        "fgn H=0.75": fgn(t, hurst=0.75, seed=13),
        "fbm H=0.2": fbm(t, hurst=0.2, seed=13),
        "fbm H=0.5": fbm(t, hurst=0.5, seed=13),
        "fbm H=0.7": fbm(t, hurst=0.7, seed=13),
        "noisy cubic": noisy_cubic(t, amp=0.15, seed=13),
        "noisy skew tent": noisy_skew_tent(t, amp=0.2, seed=13),
    }
    fac = ComplexityClass.factorial()
    alphas = (0.5, 1.0, 1.5)
    lengths = list(range(3, 8))
    values = {}
    for name, spec in specs.items():
        for alpha in alphas:
            est = entropy_rate(spec, fac, alpha, lengths, realizations=reps)
            values[(name, alpha)] = est.values

    envelope_ok = True
    for alpha in alphas:
        wn = values[("white-noise", alpha)]
        for name in specs:
            if name == "white-noise":
                continue
            envelope_ok &= (values[(name, alpha)] <= wn + 1e-9).all()

    alpha_ok = True
    for name in specs:
        v = [values[(name, a)] for a in alphas]
        alpha_ok &= (v[0] >= v[1] - 1e-12).all() and (v[1] >= v[2] - 1e-12).all()

    report(13, "white noise is the per-L maximum and Z/L decays in alpha (7 processes)",
           envelope_ok and alpha_ok,
           f"envelope={'ok' if envelope_ok else 'violated'}, "
           f"alpha-order={'ok' if alpha_ok else 'violated'}")


def test_criterion_14_conventional_degeneration():
    rng = np.random.default_rng(14)
    exp1 = ComplexityClass.exponential(1.0)
    worst = 0.0
    for _ in range(100):
        p = random_distribution(rng, int(rng.integers(2, 30)))
        worst = max(worst, abs(metric_perm_entropy(p, exp1, 1.0) - shannon(p)))
    report(14, "exponential class at c=1, alpha=1 equals Shannon entropy to 1e-12",
           worst <= 1e-12, f"max err {worst:.2e}")
