"""Exactness checks on takagi-lab output, and the independent maths they use.

Every check states a property that any sound engine satisfies (brackets
ordered and inside the window, sides summing to the total, certificates
meeting their requirement, enclosures narrow enough and containing the
true value).  None of them compares against a frozen output, so an
engine that returns tighter brackets still passes.  Every rational is
read back with :func:`rat`, which accepts only exact ``p/q`` strings.

The true values come from code that shares nothing with the product:
:func:`takagi_value` sums the Takagi series in closed form along the
eventually periodic binary orbit of a rational, and :func:`slope_walk`
reads slope sums straight off the binary digits.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


class CheckFailure(Exception):
    """An output violates a property every correct engine satisfies."""


def rat(text) -> Fraction:
    """Parse an exact ``p`` or ``p/q`` string; anything else fails the check."""
    if not isinstance(text, str) or not _RAT.fullmatch(text):
        raise CheckFailure(f"not an exact rational string: {text!r}")
    return Fraction(text)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- independent maths -------------------------------------------------

def takagi_value(x: Fraction) -> Fraction:
    """Exact T(x) = sum_{k>=1} 2^-k d(frac(2^k x)), d(t) = min(t, 1-t).

    The orbit t_k = frac(2^k x) of a rational is eventually periodic:
    once t_k repeats an earlier t_j, every later term is 2^-(k-j) times
    the term one period before, so the tail is a geometric series.
    """
    t = x - (x.numerator // x.denominator)
    seen: dict[Fraction, int] = {}
    terms: list[Fraction] = []
    k = 0
    while True:
        k += 1
        t = 2 * t
        t -= t.numerator // t.denominator
        if t in seen:
            j = seen[t]
            head = sum(terms[: j - 1], Fraction(0))
            cycle = sum(terms[j - 1:], Fraction(0))
            return head + cycle / (1 - Fraction(1, 2 ** (k - j)))
        seen[t] = k
        terms.append(min(t, 1 - t) / 2 ** k)


def binary_digits(x: Fraction, count: int) -> list[int]:
    """The first ``count`` binary digits of frac(x)."""
    t = x - (x.numerator // x.denominator)
    digits = []
    for _ in range(count):
        t = 2 * t
        digit = int(t >= 1)
        t -= digit
        digits.append(digit)
    return digits


def slope_walk(x: Fraction, horizon: int) -> list[int]:
    """G_n'(x) for n = 1..horizon: g_k has slope 1 - 2*(digit k+1)."""
    digits = binary_digits(x, horizon + 1)
    walk, total = [], 0
    for k in range(1, horizon + 1):
        total += 1 - 2 * digits[k]
        walk.append(total)
    return walk


# -- per-command checks -------------------------------------------------

def _params(argv: list[str]) -> dict[str, str]:
    """``--flag value`` pairs after the subcommand."""
    return {argv[i].lstrip("-"): argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _payload(text: str, command: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None
    expect(payload.get("schema") == "takagi-lab/1", "schema is not takagi-lab/1")
    expect(payload.get("command") == command, f"command is not {command}")
    return payload


def _result(text: str, command: str) -> dict:
    return _payload(text, command)["result"]


def _bracket(side: dict, top: Fraction, label: str) -> tuple[Fraction, Fraction]:
    lo, hi = rat(side["lo"]), rat(side["hi"])
    expect(0 <= lo <= hi <= top, f"{label} bracket [{lo}, {hi}] not inside [0, {top}]")
    return lo, hi


def check_measure(p: dict, text: str) -> tuple[Fraction, Fraction]:
    res = _result(text, "measure")
    r = rat(p["r"])
    query = res["query"]
    expect(rat(query["x"]) == rat(p["x"]) and rat(query["r"]) == r
           and rat(query["alpha"]) == rat(p["alpha"])
           and query["direction"] == p["dir"] and query["depth"] == int(p["depth"]),
           "query echo differs from the request")
    lo, hi = _bracket(res["bound"], 2 * r, "total")
    left = _bracket(res["left"], r, "left")
    right = _bracket(res["right"], r, "right")
    expect(left[0] + right[0] == lo and left[1] + right[1] == hi,
           "left + right != bound")
    return lo, hi


def check_lemma_report(rep: dict, x: Fraction, n: int) -> None:
    expect(rat(rep["x"]) == x and rep["n"] == n, "report is for another (x, n)")
    required = rat(rep["bound_required"])
    expect(required == Fraction(1, 2 ** (n + 5)), f"requirement {required} is not 2^-(n+5)")
    expect(rep["status"] == "certified", f"lemma status {rep['status']}")
    expect(rat(rep["bound_certified"]) >= required, "certified bound below requirement")


def check_blowup_report(rep: dict, x: Fraction, n: int) -> None:
    expect(rat(rep["x"]) == x and rep["n"] == n, "report is for another (x, n)")
    required = rat(rep["bound_required"])
    expect(required == Fraction(1, 2 ** (n + 2)), f"requirement {required} is not 2^-(n+2)")
    expect(rep["status"] == "certified", f"blowup status {rep['status']}")
    one, mirror = rat(rep["lo_one_sided"]), rat(rep["lo_mirror"])
    expect(one >= required, "one-sided bound below requirement")
    expect(mirror >= required, "mirror bound below requirement")
    expect(rat(rep["lo_full"]) == one + mirror, "lo_full != lo_one_sided + lo_mirror")


def check_lemma(p: dict, text: str) -> None:
    check_lemma_report(_result(text, "lemma"), rat(p["x"]), int(p["n"]))


def check_blowup(p: dict, text: str) -> None:
    check_blowup_report(_result(text, "blowup"), rat(p["x"]), int(p["n"]))


_MIN_DENSITY = Fraction(1, 64)


def _check_density(cert: dict, label: str) -> None:
    expect(rat(cert["density_lo"]) >= _MIN_DENSITY, f"{label} density below 1/64")


def check_refute(p: dict, text: str) -> None:
    res = _result(text, "refute")
    expect(rat(res["x"]) == rat(p["x"]), "report is for another x")
    expect(res["status"] == "certified", f"refute status {res['status']}")
    expect(res["pairs"] or res["singles"], "certified without any certificate")
    for pair in res["pairs"]:
        le, ge = pair["le"], pair["ge"]
        expect(le["direction"] == "le" and ge["direction"] == "ge", "pair directions")
        expect(rat(ge["alpha"]) - rat(le["alpha"]) == Fraction(1, 5), "pair gap is not 1/5")
        _check_density(le, "LE")
        _check_density(ge, "GE")
    for single in res["singles"]:
        _check_density(single, "single")


def check_verify_all(p: dict, text: str, corpus: list) -> None:
    payload = _payload(text, "verify-all")
    expect(payload.get("certified") is True, "corpus not certified")
    results = payload["results"]
    expect(len(results) == len(corpus), "result count differs from corpus size")
    for i, (res, (kind, x, n)) in enumerate(zip(results, corpus)):
        expect(res["index"] == i and res["kind"] == kind, f"entry {i} out of order")
        expect(res["status"] == "certified", f"entry {i} status {res['status']}")
        report_check = check_lemma_report if kind == "lemma" else check_blowup_report
        report_check(res["report"], rat(x), n)


def check_enclose(p: dict, text: str) -> None:
    res = _result(text, "enclose")
    x, depth = rat(p["x"]), int(p["depth"])
    lo, hi = rat(res["lo"]), rat(res["hi"])
    expect(lo <= hi, f"crossed enclosure [{lo}, {hi}]")
    expect(hi - lo <= Fraction(1, 2 ** (depth + 1)), "enclosure wider than 2^-(depth+1)")
    expect(lo <= takagi_value(x) <= hi, "true value outside the enclosure")


def check_sample(p: dict, text: str) -> None:
    a, b, count, depth = rat(p["a"]), rat(p["b"]), int(p["count"]), int(p["depth"])
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows and rows[0] == ["y", "lo", "hi"], "bad CSV header")
    expect(len(rows) == count + 1, "row count differs from --count")
    step = (b - a) / (count - 1)
    width = Fraction(1, 2 ** (depth + 1))
    for i, row in enumerate(rows[1:]):
        expect(len(row) == 3, f"row {i} has {len(row)} cells")
        y, lo, hi = (rat(cell) for cell in row)
        expect(y == a + i * step, f"row {i} is not at a + i*step")
        expect(lo <= hi, f"row {i} crossed enclosure")
        expect(hi - lo <= width, f"row {i} wider than 2^-(depth+1)")


def check_eval(p: dict, text: str) -> None:
    res = _result(text, "eval")
    expect(rat(res["value"]) == takagi_value(rat(p["x"])), "value differs from the series")


def check_slopes(p: dict, text: str) -> None:
    res = _result(text, "slopes")
    expect(res["values"] == slope_walk(rat(p["x"]), int(p["n"])), "slope sums differ")


def check_classify(p: dict, text: str) -> None:
    res = _result(text, "classify")
    walk = slope_walk(rat(p["x"]), int(p["n"]))
    expect(res["horizon"] == int(p["n"]) and res["seq"]["values"] == walk, "slope sums differ")
    expect(res["running_min"] == min(walk) and res["running_max"] == max(walk),
           "running extrema differ from the slope sums")


CHECKS = {
    "measure": check_measure,
    "lemma": check_lemma,
    "blowup": check_blowup,
    "refute": check_refute,
    "enclose": check_enclose,
    "sample": check_sample,
    "eval": check_eval,
    "slopes": check_slopes,
    "classify": check_classify,
}


def check_op(op: dict, text: str):
    """Check one op's stdout; returns the check's value (a bracket for measure)."""
    argv = op["argv"]
    if argv[0] == "verify-all":
        return check_verify_all(_params(argv), text, op["corpus"])
    return CHECKS[argv[0]](_params(argv), text)


def check_nesting(ops: list[dict], brackets: dict[int, tuple[Fraction, Fraction]]) -> dict[int, str]:
    """Brackets of one query at growing depths must nest; returns failures by op index."""
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, op in enumerate(ops):
        if i in brackets:
            p = _params(op["argv"])
            key = (p["x"], p["r"], p["alpha"], p["dir"])
            groups.setdefault(key, []).append((int(p["depth"]), i))
    failures = {}
    for members in groups.values():
        members.sort()
        for (_, shallow), (_, deep) in zip(members, members[1:]):
            (lo0, hi0), (lo1, hi1) = brackets[shallow], brackets[deep]
            if not lo0 <= lo1 <= hi1 <= hi0:
                failures[deep] = f"bracket does not nest inside op {shallow}'s"
    return failures
