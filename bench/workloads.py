"""Seeded op lists for the benchmark workloads.

An op is ``{"argv": [...]}``, the argument list of one ``takagi-lab``
invocation; ``verify-all`` ops also carry the corpus they run.  The
seed picks centres, thresholds and directions; the count of ops of each
cost class is fixed, so that the median and p90 op land in the same
class for every seed and runs with different seeds stay comparable.
Every op is expected to exit 0: no input here triggers a known
precondition error or an undecided outcome.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import slope_walk

WORKLOADS = ("measure-deep", "certify-corpus", "graph-sample")

CORPUS_FILE = "corpus.txt"


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _periodic_centre(rng: random.Random, period: int) -> Fraction:
    """m / (2^period - 1): purely periodic binary digits, never dyadic."""
    return Fraction(rng.randrange(1, 2 ** period - 1), 2 ** period - 1)


def _dyadic_at_level(rng: random.Random, level: int) -> Fraction:
    """An odd multiple of 2^-(level+1) in (0, 1), i.e. dyadic level ``level``."""
    return Fraction(2 * rng.randrange(2 ** level) + 1, 2 ** (level + 1))


def _centre(rng: random.Random, dyadic: bool, r: Fraction) -> Fraction:
    """A centre whose window [x - r, x + r] stays inside [0, 1]."""
    while True:
        if dyadic:
            x = _dyadic_at_level(rng, rng.randrange(2, 6))
        else:
            q = rng.choice((3, 5, 7, 9, 11, 13))
            x = Fraction(rng.randrange(1, q), q)
        if r <= x <= 1 - r:
            return x


def _measure_op(x, r, alpha, direction, depth) -> dict:
    return {"argv": ["measure", "--x", fmt(x), "--r", fmt(r), "--alpha", fmt(alpha),
                     "--dir", direction, "--depth", str(depth), "--format", "json"]}


def _family(rng: random.Random, i: int, r: Fraction) -> tuple:
    """(x, r, alpha, dir); the alpha kind cycles with i so every seed has the same mix.

    Near-slope thresholds make many undecided cells for an adaptive
    kernel; 0, negative and 10^6 decide most cells early.
    """
    x = _centre(rng, dyadic=i % 2 == 1, r=r)
    kind = i % 4
    if kind == 0:
        level = r.denominator.bit_length() - 1
        alpha = slope_walk(x, level)[-1] + rng.choice((Fraction(1, 2), Fraction(-1, 3),
                                                       Fraction(3, 4), Fraction(-2, 5)))
    elif kind == 1:
        alpha = Fraction(0)
    elif kind == 2:
        alpha = -Fraction(rng.randrange(1, 17), 4)
    else:
        alpha = Fraction(10 ** 6)
    return x, r, alpha, rng.choice(("ge", "le"))


def measure_deep(rng: random.Random) -> list[dict]:
    # ROADMAP's canonical baseline query: 524 289 breakpoints.
    ops = [_measure_op(Fraction(1, 3), Fraction(1, 8), Fraction(1, 2), "ge", 20)]
    # Breakpoints are 2^(depth+2) * r.  80 families at r = 1/16 and depth
    # 12 (1024) hold the median rank; 27 of them again at depth 13 (2048)
    # hold the p90 rank, and one also at depth 18 (65 536).  Repeats at
    # growing depth let the brackets be checked for nesting.
    for i in range(80):
        fam = _family(rng, i, Fraction(1, 16))
        depths = (12, 13, 18) if i == 0 else (12, 13) if i < 27 else (12,)
        ops.extend(_measure_op(*fam, depth) for depth in depths)
    # 8192 breakpoints at the two wider radii.
    ops.append(_measure_op(*_family(rng, 0, Fraction(1, 8)), 14))
    ops.append(_measure_op(*_family(rng, 3, Fraction(1, 8)), 14))
    ops.append(_measure_op(*_family(rng, 2, Fraction(1, 4)), 13))
    return ops


# Refutation panel: the ROADMAP's 1/3 N=20 and 1/7 N=30, plus bounded
# (pairs) and divergent (one-sided) points.  It is fixed rather than
# seeded because a refute's cost grows with its certificate count, and
# these ops hold the p90 rank.
REFUTE_PANEL = (
    ("1/3", 20), ("1/7", 30), ("2/3", 16), ("1/5", 16), ("2/5", 16), ("3/5", 16),
    ("4/5", 16), ("1/9", 20), ("1/11", 20), ("5/17", 16), ("2/7", 16), ("3/7", 16),
    ("5/7", 16), ("6/7", 16), ("1/15", 20), ("7/15", 20), ("1/31", 20), ("11/31", 20),
)


def _lemma_entry(rng: random.Random, n: int, slot: int) -> tuple[str, str, int]:
    return "lemma", fmt(_periodic_centre(rng, 2 + (n + slot) % 5)), n


def _blowup_entry(rng: random.Random, level: int, k: int) -> tuple[str, str, int]:
    return "blowup", fmt(_dyadic_at_level(rng, level)), 2 * level + 1 + k


def certify_corpus(rng: random.Random, workdir: str) -> tuple[list[dict], dict[str, str]]:
    entries = [_lemma_entry(rng, n, slot) for n in range(2, 41)
               for slot in range(3 if n <= 25 else 2)]
    entries += [_blowup_entry(rng, level, k) for level in range(6) for k in range(0, 4, 2)]
    ops = [{"argv": [kind, "--x", x, "--n", str(n), "--format", "json"]}
           for kind, x, n in entries]
    panel = list(REFUTE_PANEL)
    # ROADMAP's 1/2 N=20, plus a seeded dyadic point: blow-up certificates.
    panel += [("1/2", 20), (fmt(_dyadic_at_level(rng, rng.randrange(1, 6))), 20)]
    ops += [{"argv": ["refute", "--x", x, "--n", str(n), "--format", "json"]}
            for x, n in panel]
    corpus = [_lemma_entry(rng, rng.randrange(2, 41), i) for i in range(16)]
    corpus += [_blowup_entry(rng, rng.randrange(6), rng.randrange(4)) for _ in range(8)]
    path = f"{workdir}/{CORPUS_FILE}"
    ops.append({"argv": ["verify-all", "--corpus", path, "--jobs", "1", "--format", "json"],
                "corpus": [list(e) for e in corpus]})
    text = "".join(f"{kind} {x} {n}\n" for kind, x, n in corpus)
    return ops, {CORPUS_FILE: text}


def graph_sample(rng: random.Random) -> list[dict]:
    ops = []
    # Six samples, the costliest ops; (count - 1) a power of two gives a
    # dyadic step, any other count a non-dyadic one.
    for count, depth in ((2049, 24), (1025, 64), (513, 48), (600, 24), (400, 32), (300, 64)):
        a = Fraction(rng.randrange(0, 8), 16)
        b = a + Fraction(rng.randrange(1, 9), 16)
        ops.append({"argv": ["sample", "--a", fmt(a), "--b", fmt(b), "--count", str(count),
                             "--depth", str(depth)]})
    # 14 deep enclosures at non-dyadic points (dyadic ones collapse to an
    # exact value) hold the p90 rank.
    for _ in range(14):
        ops.append(_enclose_op(_periodic_centre(rng, rng.randrange(2, 7)), 4000))
    for _ in range(30):
        q = rng.choice((3, 5, 7, 9, 11, 13, 15, 17, 21, 31, 64))
        ops.append(_enclose_op(Fraction(rng.randrange(1, q), q), rng.choice((64, 128, 256, 512))))
    for _ in range(22):
        x = _dyadic_at_level(rng, rng.randrange(0, 12))
        ops.append({"argv": ["eval", "--x", fmt(x), "--format", "json"]})
    for command in ("slopes", "classify"):
        for _ in range(18):
            x = _periodic_centre(rng, rng.randrange(2, 9))
            ops.append({"argv": [command, "--x", fmt(x), "--n", str(rng.choice((64, 128, 200))),
                                 "--format", "json"]})
    return ops


def _enclose_op(x: Fraction, depth: int) -> dict:
    return {"argv": ["enclose", "--x", fmt(x), "--depth", str(depth), "--format", "json"]}


def generate(workload: str, seed: int, workdir: str) -> tuple[list[dict], dict[str, str]]:
    """The workload's ops and the files they read (name -> text, under ``workdir``)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "measure-deep":
        return measure_deep(rng), {}
    if workload == "certify-corpus":
        return certify_corpus(rng, workdir)
    if workload == "graph-sample":
        return graph_sample(rng), {}
    raise ValueError(f"unknown workload {workload!r}")
