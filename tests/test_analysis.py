import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from oracles import (full_query_blowup_check, full_query_verify_lemma, reference_classify,
                     reference_scales, reference_to_jsonable)
from takagi_lab import analysis, cli, measure
from takagi_lab.exactnum import is_dyadic, parse_rat
from takagi_lab.analysis import (
    CASE_BOUNDED,
    CASE_DIVERGENT,
    CASE_DYADIC,
    INSUFFICIENT_HORIZON,
    DensityCertificate,
    blowup_check,
    certificate,
    classify,
    refute,
    verify_lemma,
)
from takagi_lab.measure import (
    CERTIFIED,
    UNDECIDED,
    BreakpointLimitError,
    Dir,
    QuotientQuery,
    quotient_set_bounds,
)
from takagi_lab.takagi import slope, slope_seq, slope_sum


class TestVerifyLemma:
    def test_rising_case(self):
        report = verify_lemma(F(1, 3), 2)
        assert report.sign == 1
        assert report.direction is Dir.LE
        assert report.alpha == F(-3, 5)  # slope sum -1 plus the 2/5 margin
        assert report.bound_required == F(1, 128)
        assert report.status == CERTIFIED
        assert report.bound_certified >= F(1, 128)

    def test_falling_case(self):
        report = verify_lemma(F(1, 3), 3)
        assert report.sign == -1
        assert report.direction is Dir.GE
        assert report.alpha == F(-2, 5)
        assert report.bound_required == F(1, 256)
        assert report.status == CERTIFIED

    def test_first_scale(self):
        report = verify_lemma(F(1, 5), 1)
        assert report.bound_required == F(1, 64)
        assert report.sign == 1 and report.alpha == F(2, 5)
        assert report.status == CERTIFIED

    def test_dyadic_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma(F(3, 8), 2)

    def test_short_bound_gives_undecided(self, short_over_budget):
        # the query, over a 3-cell cap, comes back with a bound short of 2**-7
        short_over_budget(3)
        report = verify_lemma(F(1, 3), 2)
        assert report.status == "undecided"
        assert (report.bound_certified, report.depth_used) == (0, 10)

    def test_over_budget_error_names_the_query_depth(self, monkeypatch):
        assert verify_lemma(F(1, 3), 2).depth_used == 10
        # the one query (depth n + 8 = 10) is over the cell budget: the call
        # raises, naming the query
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        with pytest.raises(BreakpointLimitError,
                           match=r"^depth-10 query at x=1/3 needs more than 3 cells$"):
            verify_lemma(F(1, 3), 2)
        # scale 6 runs its twin's query, 1/6 at n = 3: depth 11, not 14
        with pytest.raises(BreakpointLimitError,
                           match=r"^depth-11 query at x=1/6 needs more than 3 cells$"):
            verify_lemma(F(1, 3), 6)


class TestClassify:
    def test_alternating_digits(self):
        report = classify(F(1, 3), 20)
        assert (report.running_min, report.running_max) == (-1, 0)
        assert report.case_hint == CASE_BOUNDED
        assert report.min_hits == tuple(range(1, 21, 2))

    def test_dyadic_short_circuit(self):
        report = classify(F(1, 2), 50)
        assert report.case_hint == CASE_DYADIC
        assert report.seq.values == ()

    def test_period_three_drifts(self):
        report = classify(F(1, 7), 30)
        assert report.case_hint == CASE_DIVERGENT
        assert report.running_min == 0
        assert report.running_max == 10  # drift +1 per three digits

    def test_seq_matches_takagi_module(self):
        report = classify(F(3, 7), 25)
        assert report.seq.values == slope_seq(F(3, 7), 25).values

    def test_case_and_scales_match_the_reference(self):
        # the extremum loop and the per-case scale selectors that classify
        # and refute used before one scale list served every case
        rng = random.Random(13)
        seen = Counter()
        for _ in range(3000):
            q = rng.randrange(1, 10**6 + 1)
            kind = rng.randrange(5)
            if kind == 0:  # integers
                x = F(rng.randrange(-9, 10))
            elif kind == 1:  # dyadic, of either sign
                x = F(rng.randrange(-(1 << 12), 1 << 12), 1 << rng.randrange(13))
            elif kind == 2:  # even, non-dyadic denominators
                odd = 2 * rng.randrange(1, 500) + 1
                x = F(rng.randrange(-q, 3 * q), odd << rng.randrange(1, 12))
            elif kind == 3:  # negative
                x = F(-rng.randrange(1, 3 * q), q)
            else:
                x = F(rng.randrange(0, 3 * q), q)
            N = rng.randrange(1, 90)
            report = classify(x, N)
            expected = reference_classify(x, N)
            assert reference_to_jsonable(report) == reference_to_jsonable(expected), (x, N)
            scales = analysis._scales(report)
            assert scales == reference_scales(report), (x, N)
            seen[report.case_hint, bool(scales)] += 1
        assert {case for case, _ in seen} == {CASE_BOUNDED, CASE_DIVERGENT, CASE_DYADIC}
        assert seen[CASE_BOUNDED, True] and seen[CASE_DIVERGENT, True]
        assert seen[CASE_BOUNDED, False] and seen[CASE_DIVERGENT, False]


class TestBlowup:
    def test_half_level_point(self):
        report = blowup_check(F(1, 2), 3)
        assert report.status == CERTIFIED
        assert report.threshold == 3
        assert report.lo_one_sided >= F(1, 32)  # required quarter-ball
        assert report.lo_one_sided == F(1, 16)  # the whole right half
        assert report.lo_full == F(1, 8)  # the whole punctured ball

    def test_deeper_point(self):
        report = blowup_check(F(3, 4), 4)
        assert report.base_level == 1 and report.threshold == 2
        assert report.status == CERTIFIED
        assert report.lo_one_sided >= F(1, 64)
        assert report.lo_full == F(1, 16)

    def test_integer_point_uses_clamped_level(self):
        # at integers only n distance terms move, so the supported
        # threshold is n, and with it the full ball still certifies
        report = blowup_check(F(0), 2)
        assert report.base_level == 0 and report.threshold == 2
        assert report.status == CERTIFIED
        assert report.lo_full == F(1, 4)

    def test_centre_is_coerced(self):
        # an int centre reports, and serializes, as the rational it is
        report = blowup_check(0, 2)
        assert type(report.x) is F
        assert json.loads(cli._json(report))["x"] == "0"

    def test_runs_no_query(self, no_query):
        # the report is in closed form, so neither a 3-cell budget nor a
        # certify_lower that raises reaches it, at the first scale or above
        for n in (3, 9, 4000):
            report = blowup_check(F(3, 4), n)
            assert report.status == CERTIFIED
            assert report.lo_one_sided == report.lo_mirror == report.radius == F(1, 1 << (n + 1))
            assert (report.lo_full, report.depth_used) == (F(1, 1 << n), n + 4)

    def test_precondition(self):
        with pytest.raises(ValueError):
            blowup_check(F(1, 2), 0)
        with pytest.raises(ValueError):
            blowup_check(F(3, 4), 2)


class TestOneDepthSuffices:
    """Each lemma runs one query and a blow-up none; these pin why one depth suffices."""

    def test_lemma_certifies_seven_levels_below_its_depth(self):
        rng = random.Random(9)
        checked = 0
        while checked < 200:
            x = F(rng.randrange(1, 10**6), rng.randrange(3, 10**6))
            if is_dyadic(x):
                continue
            n = rng.randrange(1, 61)
            report = verify_lemma(x, n)
            assert (report.status, report.depth_used) == (CERTIFIED, n + 8), (x, n)
            shallow = quotient_set_bounds(QuotientQuery(
                x, F(1, 1 << n), report.alpha, report.direction, n + 1))
            assert shallow.lo >= report.bound_required, (x, n)
            checked += 1

    def test_blowup_halves_are_exact_at_every_scale(self):
        # the closed form equals the two full-depth queries it replaces, at
        # the first three scales of every dyadic of level <= 10 in [0, 1]
        # (2 049 points), of seeded centres of levels 0-20 shifted below 0
        # and above 1, and of integers, whose level is clamped to 0
        rng = random.Random(19)
        centres = [F(k, 1 << 11) for k in range((1 << 11) + 1)]
        centres += [F(m) for m in range(-3, 5)]
        for level in range(21):
            odd = range(1, 1 << (level + 1), 2)
            for k in rng.sample(odd, min(len(odd), 8)):
                centres += [m + F(k, 1 << (level + 1)) for m in (-2, 1)]
        for x in centres:
            first = analysis._first_blowup_scale(x)
            for n in range(first, first + 3):
                report = blowup_check(x, n)
                assert report == full_query_blowup_check(x, n), (x, n)
                assert report.lo_one_sided == report.lo_mirror == report.radius, (x, n)


class TestCertificate:
    def test_density_constant(self):
        cert = certificate(F(1, 3), 2)
        assert cert.direction is Dir.LE
        assert cert.r == F(1, 4)
        assert cert.density_lo >= F(1, 64)

    def test_mirrored_direction(self):
        cert = certificate(F(1, 3), 3)
        assert cert.direction is Dir.GE
        assert cert.density_lo >= F(1, 64)


class TestRefute:
    def test_bounded_oscillation_pairs(self):
        evidence = refute(F(1, 3), 20)
        assert evidence.status == CERTIFIED
        assert evidence.case_hint == CASE_BOUNDED
        assert len(evidence.pairs) >= 5
        for pair in evidence.pairs:
            assert pair.gap() == F(1, 5)
            assert pair.le.alpha == F(-3, 5) and pair.ge.alpha == F(-2, 5)
            assert pair.le.density_lo >= F(1, 64)
            assert pair.ge.density_lo >= F(1, 64)
            assert pair.le.r * 2 == pair.ge.r

    def test_dyadic_blowup_certificates(self):
        evidence = refute(F(1, 2), 20)  # any positive horizon: none is used at a dyadic point
        assert evidence.status == CERTIFIED
        assert evidence.case_hint == CASE_DYADIC
        # one blow-up at the first scale n = 1; the detail states every n
        (cert,) = evidence.singles
        assert (cert.r, cert.alpha, cert.direction) == (F(1, 4), F(1), Dir.GE)
        assert cert.density_lo == F(1, 2)
        assert evidence.detail == "thresholds n - 0 for every n >= 1"

    def test_dyadic_status_follows_the_certificates(self, no_query):
        # the one blow-up has density 1/2 in closed form, so a dyadic refute
        # certifies with no measure query, under any cell budget
        for x, detail in ((F(1, 2), "thresholds n - 0 for every n >= 1"),
                          (F(-3, 8), "thresholds n - 4 for every n >= 5"),
                          (F(2), "thresholds n - 0 for every n >= 1")):
            evidence = refute(x, 5)
            assert (evidence.status, evidence.detail) == (CERTIFIED, detail), x
            (cert,) = evidence.singles
            assert cert.density_lo == F(1, 2)

    def test_divergent_single_sided(self):
        evidence = refute(F(1, 7), 30)
        assert evidence.status == CERTIFIED
        assert evidence.case_hint == CASE_DIVERGENT
        assert len(evidence.singles) >= 3
        assert all(cert.direction is Dir.GE for cert in evidence.singles)
        thresholds = [cert.alpha for cert in evidence.singles]
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] - thresholds[0] >= 2
        assert all(cert.density_lo >= F(1, 64) for cert in evidence.singles)

    def test_insufficient_horizon(self):
        evidence = refute(F(1, 3), 1)
        assert evidence.status == INSUFFICIENT_HORIZON
        assert evidence.pairs == ()

    # budget_bits: a certificate query over 2**budget_bits cells comes back
    # short of its target; 2 cells stop every query
    @pytest.mark.parametrize("x, horizon, budget_bits, expected", [
        (F(1, 3), 12, 64, (CASE_BOUNDED, CERTIFIED,
                           "6 certificate pairs at thresholds -3/5 (LE) / -2/5 (GE)")),
        (F(1, 3), 12, 1, (CASE_BOUNDED, UNDECIDED,
                          "qualifying indices [2, 4, 6, 8, 10, 12] did not certify")),
        (F(6, 11), 6, 64, (CASE_BOUNDED, INSUFFICIENT_HORIZON,
                           "no qualifying minimum revisit below the horizon")),
        (F(1, 7), 30, 64, (CASE_DIVERGENT, CERTIFIED,
                           "10 one-sided certificates at growing thresholds")),
        (F(1, 7), 30, 1, (CASE_DIVERGENT, UNDECIDED,
                          "qualifying indices [2, 5, 8, 11, 14, 17, 20, 23, 26, 29]"
                          " did not certify")),
        (F(1, 7), 2, 64, (CASE_DIVERGENT, INSUFFICIENT_HORIZON,
                          "no record-and-reversal index below the horizon")),
        (F(1, 2), 5, 64, (CASE_DYADIC, CERTIFIED, "thresholds n - 0 for every n >= 1")),
        # a blow-up runs no query, so no cell budget stops it
        (F(1, 2), 5, 1, (CASE_DYADIC, CERTIFIED, "thresholds n - 0 for every n >= 1")),
        # all 30 revisits, indices 2..60: the lemma's query runs at depth n + 8
        (F(1, 3), 60, 64, (CASE_BOUNDED, CERTIFIED,
                           "30 certificate pairs at thresholds -3/5 (LE) / -2/5 (GE)")),
        # mixed outcomes: some scales certify and others do not; scales 4..12
        # share their twins' queries, which fit where scale 2's does not
        (F(1, 3), 12, 6, (CASE_BOUNDED, CERTIFIED,
                          "5 certificate pairs at thresholds -3/5 (LE) / -2/5 (GE)")),
        (F(1, 7), 30, 7, (CASE_DIVERGENT, CERTIFIED,
                          "1 one-sided certificates at growing thresholds")),
        (F(3, 4), 5, 3, (CASE_DYADIC, CERTIFIED, "thresholds n - 2 for every n >= 3")),
    ])
    def test_status_and_detail(self, short_over_budget, x, horizon, budget_bits, expected):
        short_over_budget(1 << budget_bits)
        evidence = refute(x, horizon)
        assert (evidence.case_hint, evidence.status, evidence.detail) == expected

    def test_each_query_runs_once_per_call(self, monkeypatch):
        calls = []
        real = analysis.certify_lower

        def counted(*args, **kwargs):
            calls.append((*args, kwargs["depth"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "certify_lower", counted)
        # 60 lemmas (n = 1..60) share four twin queries; the blow-up runs none
        for x, queries in ((F(1, 3), 4), (F(1, 2), 0)):
            runs = []
            for _ in range(2):  # no result outlives a call: the second runs them all again
                calls.clear()
                refute(x, 60)
                runs.append(list(calls))
            assert runs[0] == runs[1]
            assert len(set(runs[0])) == len(runs[0]) == queries

    def test_no_call_reads_another_calls_table(self, monkeypatch):
        # refute(1/3, 12) queries the twin of (1/3, 2) first; a certificate(1/3, 2)
        # made inside its second query runs that query again, with its own table
        real = analysis.certify_lower
        calls, nested = [], []

        def reentrant(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                before = len(calls)
                nested.append(certificate(F(1, 3), 2))
                nested.append(len(calls) - before)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "certify_lower", reentrant)
        refute(F(1, 3), 12)
        monkeypatch.setattr(analysis, "certify_lower", real)
        cert, queries = nested
        assert queries == 1
        assert cert == certificate(F(1, 3), 2)

    def test_each_certificate_is_the_public_one(self):
        # refute reads signs, thresholds and twin keys from x's integers; each
        # certificate it emits is the one certificate(x, n) makes alone, with
        # the sign and threshold of takagi's slope functions, at centres of
        # every sign with odd and even denominators
        rng = random.Random(28)
        seen = Counter()
        while seen["centres"] < 150:
            q = rng.randrange(3, 400, 2) << rng.randrange(4)
            x = F(rng.randrange(-3 * q, 3 * q), q)
            if is_dyadic(x):
                continue
            evidence = refute(x, rng.randrange(1, 50))
            certificates = [c for pair in evidence.pairs for c in (pair.le, pair.ge)]
            for cert in certificates + list(evidence.singles):
                n = cert.r.denominator.bit_length() - 1  # r = 2**-n
                assert cert == certificate(x, n), (x, n)
                sign = slope(n, x)
                assert cert.direction is (Dir.LE if sign == 1 else Dir.GE)
                assert cert.alpha == slope_sum(x, n - 1) + sign * F(2, 5)
                seen[cert.direction] += 1
            seen["centres"] += 1
            seen[evidence.case_hint] += 1
            seen["even q"] += x.denominator % 2 == 0
        assert seen[Dir.LE] and seen[Dir.GE] and seen["even q"]
        assert seen[CASE_BOUNDED] and seen[CASE_DIVERGENT]


class TestTwins:
    """Each certificate's bracket equals the full-depth query it replaces."""

    def test_lemma_twin_equals_the_full_query(self):
        rng = random.Random(15)
        seen = Counter()
        for _ in range(500):
            n = rng.randrange(1, 61)
            while True:  # u = a/q in (0, 1), not dyadic
                q = rng.randrange(3, 10**12)
                u = F(rng.randrange(1, q), q)
                if not is_dyadic(u):
                    break
            left = u < F(1, 2)  # the window holds the cell end j, else j + 1
            kind = rng.randrange(4)
            if kind == 0 and n >= 3:  # e <= n - 3: a twin below n
                e = rng.randrange(n - 2)
                end = (2 * rng.randrange(-50, 50) + 1) << e
            elif kind == 1:  # an integer end
                end = rng.randrange(-3, 4) << (n - 1)
            elif kind == 2 and n >= 2:  # a half-integer end: e = n - 2
                end = (2 * rng.randrange(-3, 3) + 1) << (n - 2)
            else:
                end = rng.randrange(-(1 << (n + 1)), 2 << n)
            j = end if left else end - 1
            x = (j + u) / (1 << (n - 1))
            *_, tn = analysis._lemma_twin(x, n)
            report = verify_lemma(x, n)
            assert report == full_query_verify_lemma(x, n), (x, n)
            seen["twin" if tn < n else "itself"] += 1
            if end % (1 << (n - 1)) == 0:
                seen["integer end"] += 1
            elif n >= 2 and end % (1 << (n - 2)) == 0:
                seen["half-integer end"] += 1
            seen[report.sign, left] += 1
            seen["below 0" if x < 0 else "above 1" if x > 1 else "in (0, 1)"] += 1
            if tn < n:
                seen["e", tn - 3] += 1
        assert seen["twin"] and seen["itself"]
        assert seen["integer end"] and seen["half-integer end"]
        assert all(seen[sign, left] for sign in (1, -1) for left in (True, False))
        assert seen["below 0"] and seen["above 1"] and seen["in (0, 1)"]
        assert all(seen["e", e] for e in range(10))

    def test_refute_reads_each_certificate_from_its_twin(self):
        # every certificate of a refute call, read from the call's table, is
        # the one certificate(x, n) computes alone and the full query's
        # bracket over the window; near an integer the twin is x itself at
        # both scales of a pair (-1/12: n = 2 and 3), so a table key without
        # the twin's scale would hand the second scale the first's entry
        rng = random.Random(22)
        centres = [(F(13, 12), 40), (F(-1, 12), 40), (F(11, 12), 40), (F(-13, 12), 30),
                   (F(-1, 3072), 40), (F(1572865, 1572864), 30), (F(-1, 1572864), 30)]
        while len(centres) < 19:
            x = F(rng.randrange(-10**4, 10**4), rng.randrange(3, 10**4))
            if not is_dyadic(x):
                centres.append((x, rng.randrange(8, 41)))
        seen = Counter()
        for x, horizon in centres:
            evidence = refute(x, horizon)
            certificates = [c for pair in evidence.pairs for c in (pair.le, pair.ge)]
            certificates += evidence.singles
            scales = [c.r.denominator.bit_length() - 1 for c in certificates]  # r = 2**-n
            itself = sum(analysis._lemma_twin(x, n)[2] == n for n in scales)
            # every scale certified, so no wrong density could drop one unseen
            assert len(evidence.pairs) + len(evidence.singles) == len(
                analysis._scales(classify(x, horizon))), x
            for cert, n in zip(certificates, scales):
                assert cert == certificate(x, n), (x, n)
                report = full_query_verify_lemma(x, n)
                assert cert == DensityCertificate(
                    x=x, r=F(1, 1 << n), alpha=report.alpha, direction=report.direction,
                    density_lo=report.bound_certified * (1 << (n - 1))), (x, n)
            seen[evidence.case_hint] += bool(certificates)
            seen["below 0"] += x < 0
            seen["x is its twin at two scales"] += itself >= 2
        assert seen[CASE_BOUNDED] and seen[CASE_DIVERGENT] and seen["below 0"]
        assert seen["x is its twin at two scales"] >= 3

    @pytest.mark.parametrize("x", [F(0), F(1), F(1, 2), F(13, 64), F(-3, 8), F(5, 4)])
    def test_blowup_equals_the_full_queries(self, x):
        first = analysis._first_blowup_scale(x)
        for n in range(first, first + 9):
            assert blowup_check(x, n) == full_query_blowup_check(x, n), (x, n)


class TestSerialization:
    def test_reports_round_trip_exactly(self):
        report = verify_lemma(F(1, 3), 2)
        parsed = json.loads(cli._json(report))
        assert parse_rat(parsed["alpha"]) == report.alpha
        assert parse_rat(parsed["bound_certified"]) == report.bound_certified
        assert parse_rat(parsed["bound_required"]) == report.bound_required
        assert parsed["status"] == CERTIFIED
        assert parsed["direction"] == "le"

    def test_no_floats_anywhere(self):
        evidence = refute(F(1, 3), 8)

        def check(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for value in node.values():
                    check(value)
            elif isinstance(node, list):
                for value in node:
                    check(value)

        check(json.loads(cli._json(evidence)))


def _cli_argvs(rng: random.Random) -> list[list[str]]:
    """Seeded ``--format json`` argvs, one or more per kind of report the CLI prints."""
    def rational():
        den = rng.randrange(3, 60, 2)
        num = rng.choice([k for k in range(-2 * den, 2 * den) if k % den])  # never dyadic
        return f"{num}/{den}"

    def dyadic():
        return f"{rng.randrange(-16, 17)}/{1 << rng.randrange(0, 5)}"

    argvs = [["eval", "--x", dyadic()], ["eval", "--x", dyadic(), "--classical"],
             ["enclose", "--x", rational(), "--depth", str(rng.randrange(4, 40))],
             ["slopes", "--x", rational(), "--n", "40"],
             ["neighbors", "--x", rational(), "--n", "6"],
             ["measure", "--x", rational(), "--r", f"1/{1 << rng.randrange(1, 5)}",
              "--alpha", rational(), "--dir", rng.choice(["ge", "le"]), "--depth", "10"],
             ["classify", "--x", rational(), "--n", "60"],
             ["classify", "--x", "5/8", "--n", "10"],  # dyadic
             ["verify-all"]]
    argvs += [["lemma", "--x", rational(), "--n", str(rng.randrange(1, 9))] for _ in range(3)]
    for _ in range(3):
        x = dyadic()
        first = analysis._first_blowup_scale(parse_rat(x))
        argvs.append(["blowup", "--x", x, "--n", str(first + rng.randrange(3))])
    # each refute case: bounded, divergent (by the horizon heuristic), dyadic,
    # insufficient horizon, and one seeded centre
    argvs += [["refute", "--x", x, "--n", n] for x, n in
              (("1/3", "20"), ("3/19", "30"), ("3/8", "20"), ("1/3", "1"), (rational(), "30"))]
    return [argv + ["--format", "json"] for argv in argvs]


class TestSerializerReference:
    """The CLI's writers against the serializer they replaced (``oracles.reference_to_jsonable``)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_report_the_cli_prints(self, capsys, monkeypatch, seed):
        # the CLI writes each report straight from its records: its bytes are
        # json.dumps of the reference tree
        payloads, outputs = [], []
        real = cli._json

        def recording(node, pad="\n"):  # keeps the whole payload, not its parts
            if pad == "\n":
                payloads.append(node)
            return real(node, pad)

        monkeypatch.setattr(cli, "_json", recording)
        argvs = _cli_argvs(random.Random(seed))
        for argv in argvs:
            assert cli.run(argv) in (0, 2), argv
            outputs.append(capsys.readouterr().out)
        assert len(payloads) == len(argvs)
        monkeypatch.undo()
        for payload, out in zip(payloads, outputs):  # no argv asks for --approx
            assert out == json.dumps(reference_to_jsonable(payload), indent=2) + "\n"

    @pytest.mark.parametrize("node", [1.5, {1, 2}, object(), [F(1, 2), {"x": 0.5}],
                                      QuotientQuery, Dir])
    def test_other_types_raise_the_same_error(self, node):
        # the JSON and the text writer refuse what the reference refuses, with its message
        with pytest.raises(TypeError) as old:
            reference_to_jsonable(node)
        assert str(old.value).startswith("cannot serialize ")
        for write in (cli._json, cli._text_lines):
            with pytest.raises(TypeError) as new:
                write(node)
            assert str(new.value) == str(old.value)
