"""Acceptance gates.

Each test prints one PASS/FAIL line so the suite doubles as a
certificate run: ``pytest tests/test_acceptance.py -s``.  Expected
values come from the independent oracles in ``oracles.py`` (brute-force
summation, geometric-series values, finite differences, grid sampling);
every comparison is exact rational arithmetic unless the criterion
itself is a runtime budget.
"""

import random
import time
from fractions import Fraction as F

from oracles import (
    brute_g,
    brute_T_dyadic,
    fd_slope,
    grid_measure_bracket,
    takagi_periodic,
)
from takagi_lab.exactnum import dyadic_neighbors
from takagi_lab.analysis import (
    DYADIC_CORPUS,
    NONDYADIC_CORPUS,
    blowup_check,
    refute,
    verify_lemma,
)
from takagi_lab.measure import CERTIFIED, Dir, QuotientQuery, quotient_set_bounds
from takagi_lab.takagi import g, slope, takagi_enclosure, takagi_exact


def _gate(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_exactness_vs_brute_force():
    rng = random.Random(101)
    started = time.monotonic()
    checked = 0
    ok = True
    for _ in range(10_000):
        exp = rng.randrange(0, 21)
        num = rng.randrange(-(1 << 22), (1 << 22) + 1)
        point = F(num, 1 << exp)
        if takagi_exact(point) != brute_T_dyadic(point):
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - started
    _gate(1, "exact dyadic values", ok and elapsed < 10.0,
          f"{checked} points, {elapsed:.2f}s")


def test_criterion_2_enclosure_soundness():
    ok = True
    details = []
    for x in (F(1, 3), F(1, 5), F(1, 7)):
        exact = takagi_periodic(x)
        details.append(f"T({x})={exact}")
        for depth in range(1, 41):
            enc = takagi_enclosure(x, depth)
            if exact not in enc or enc.width() != F(1, 1 << (depth + 1)):
                ok = False
    _gate(2, "enclosures capture series values", ok, ", ".join(details))


def test_criterion_3_one_scale_estimate_on_corpus():
    started = time.monotonic()
    failures = []
    deepest = 0
    for x in NONDYADIC_CORPUS:
        for n in range(2, 17):
            report = verify_lemma(x, n)
            deepest = max(deepest, report.depth_used - n)
            if report.status != CERTIFIED:
                failures.append(f"{x}@{n}: {report.status}")
            elif report.bound_certified < F(1, 1 << (n + 5)):
                failures.append(f"{x}@{n}: bound {report.bound_certified}")
            elif report.depth_used > n + 24:
                failures.append(f"{x}@{n}: depth {report.depth_used}")
    elapsed = time.monotonic() - started
    _gate(3, "one-scale measure estimate, n=2..16", not failures and elapsed < 300,
          f"90 instances, max depth n+{deepest}, {elapsed:.1f}s"
          + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_density_pairs_at_one_third():
    evidence = refute(F(1, 3), 20)
    pairs = evidence.pairs
    ok = len(pairs) >= 5
    for pair in pairs:
        ok = ok and pair.gap() == F(1, 5)
        ok = ok and pair.le.density_lo >= F(1, 64)
        ok = ok and pair.ge.density_lo >= F(1, 64)
    _gate(4, "refutation pairs at 1/3", ok,
          f"{len(pairs)} pairs, thresholds {pairs[0].le.alpha}/{pairs[0].ge.alpha}"
          if pairs else "no pairs")


def test_criterion_5_blowup_full_ball():
    failures = []
    count = 0
    for x in DYADIC_CORPUS:
        first = 2 * max(x.denominator.bit_length() - 2, 0) + 1
        for n in range(first, 17):
            report = blowup_check(x, n)
            count += 1
            if report.status != CERTIFIED:
                failures.append(f"{x}@{n}: {report.status}")
            elif report.lo_one_sided < report.bound_required:
                failures.append(f"{x}@{n}: one-sided {report.lo_one_sided}")
            elif report.lo_full != F(1, 1 << n):
                failures.append(f"{x}@{n}: full {report.lo_full}")
    _gate(5, "dyadic blow-up, full punctured ball", not failures,
          f"{count} instances" + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_grid_oracle_sandwich():
    rng = random.Random(606)
    failures = []
    for i in range(50):
        den = rng.randrange(2, 60)
        x = F(rng.randrange(1, den), den)
        r = F(1, 1 << rng.randrange(2, 8))
        alpha = F(rng.randrange(-12, 13), rng.choice([1, 2, 3, 5]))
        direction = rng.choice([Dir.GE, Dir.LE])
        query = QuotientQuery(x, r, alpha, direction, 12)
        bound = quotient_set_bounds(query)
        emp_lo, emp_hi, uncertain = grid_measure_bracket(query, samples=100_000)
        if not (emp_lo <= bound.hi and bound.lo <= emp_hi):
            failures.append(
                f"#{i} x={x} r={r} a={alpha} {direction.value}: "
                f"[{bound.lo},{bound.hi}] vs [{emp_lo},{emp_hi}] unc={uncertain}"
            )
    _gate(6, "grid sampler inside certified bracket", not failures,
          "50 queries, 100000 samples each"
          + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_slope_formula_vs_finite_differences():
    rng = random.Random(707)
    bad = 0
    for _ in range(1000):
        den = rng.choice([3, 5, 7, 9, 11, 13, 33, 99, 341, 997])
        x = F(rng.randrange(1, den), den) + rng.randrange(-2, 3)
        k = rng.randrange(1, 25)
        if slope(k, x) != fd_slope(k, x):
            bad += 1
    _gate(7, "digit slope formula vs finite differences", bad == 0,
          f"1000 samples, {bad} mismatches")


def test_criterion_8_local_linearity():
    rng = random.Random(808)
    bad = 0
    for _ in range(1000):
        den = rng.choice([3, 5, 7, 9, 11, 13, 33, 99, 341, 997])
        x = F(rng.randrange(1, den), den)
        n = rng.randrange(2, 16)
        k = rng.randrange(1, n)
        lo, hi = dyadic_neighbors(x, n)
        t = F(rng.randrange(0, 257), 256)
        x_prime = lo + t * (hi - lo)
        if g(k, x_prime) - g(k, x) != slope(k, x) * (x_prime - x):
            bad += 1
    _gate(8, "piecewise exact linearity on neighbour intervals", bad == 0,
          f"1000 samples, {bad} mismatches")
