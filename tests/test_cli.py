import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (reference_run, reference_sample_rows, reference_text_lines,
                     reference_to_jsonable)
from takagi_lab import analysis, cli, measure
from takagi_lab.cli import run, sample_rows
from takagi_lab.exactnum import parse_rat
from takagi_lab.takagi import Enclosure, SlopeSeq


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_dyadic_value(self, capsys):
        code, out, _ = invoke(capsys, "eval", "--x", "1/4")
        assert code == 0 and out.strip() == "1/4"

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "eval", "--x", "5/8", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "takagi-lab/1"
        assert parse_rat(payload["result"]["value"]) == F(1, 4)  # g_1 + g_2 = 1/8 + 1/8

    def test_non_dyadic_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "eval", "--x", "1/3")
        assert code == 1 and "enclose" in err

    def test_decimal_rejected(self, capsys):
        code, _, err = invoke(capsys, "eval", "--x", "0.25")
        assert code == 1 and "exact rational" in err

    def test_ignores_bad_depth_cap_env(self, capsys, monkeypatch):
        # eval has no depth cap, so it must not read TAKAGI_DEPTH_CAP
        monkeypatch.setenv("TAKAGI_DEPTH_CAP", "abc")
        assert invoke(capsys, "eval", "--x", "1/4") == (0, "1/4\n", "")


class TestEnclose:
    def test_brackets(self, capsys):
        code, out, _ = invoke(capsys, "enclose", "--x", "1/3", "--depth", "8")
        assert code == 0
        lo_text, hi_text = out.strip().strip("[]").split(", ")
        lo, hi = parse_rat(lo_text), parse_rat(hi_text)
        assert lo <= F(1, 3) <= hi
        assert hi - lo == F(1, 512)

    def test_too_long_to_print_is_one_line(self, capsys):
        # the bracket's denominator 2**15001 has more digits than str() may write
        code, out, err = invoke(capsys, "enclose", "--x", "1/3", "--depth", "15000")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "too many to print" in err and "set_int_max_str_digits" not in err


class TestUnprintableFailsFast:
    """Output that provably cannot print fails before any work is done."""

    @staticmethod
    def never(*args, **kwargs):
        raise AssertionError("computed an output that cannot be printed")

    @pytest.mark.parametrize("argv, patched", [
        # one end of a non-dyadic enclosure has a multiple of 2**(depth+1) below it
        (["enclose", "--x", "1/3", "--depth", "1000000"], (cli, "takagi_enclosure")),
        (["enclose", "--x", "1/3", "--depth", "15000", "--format", "json"],
         (cli, "takagi_enclosure")),
        # a non-dyadic step puts a non-dyadic point on the grid
        (["sample", "--a", "0", "--b", "1", "--count", "4", "--depth", "1000000"],
         (cli, "_enclosure_nums")),
        # the reports print 2**-(n+5) and 2**-(n+2)
        (["lemma", "--x", "1/3", "--n", "15000"], (analysis, "verify_lemma")),
        (["blowup", "--x", "1/2", "--n", "15000"], (analysis, "blowup_check")),
        # a refute report prints 2**-n at its largest qualifying scale n, or
        # at its one blow-up's n + 1 = 2*7199 + 2 here
        (["refute", "--x", "1/3", "--n", "15000"], (analysis, "_certificate")),
        (["refute", "--x", "1/7", "--n", "15000", "--format", "json"],
         (analysis, "_certificate")),
        (["refute", "--x", f"1/{1 << 7200}"], (analysis, "blowup_check")),
        # one of x_n and y_n has denominator 2**n
        (["neighbors", "--x", "1/3", "--n", "30000000"], (cli, "dyadic_neighbors")),
    ], ids=["enclose", "enclose-json", "sample", "lemma", "blowup", "refute-pairs",
            "refute-singles", "refute-dyadic", "neighbors"])
    def test_one_line_and_nothing_computed(self, capsys, monkeypatch, argv, patched):
        monkeypatch.setattr(*patched, self.never)
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "too many to print" in err

    def test_corpus_entry_fails_at_parse_time_in_json(self, capsys, monkeypatch, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 2\nlemma 1/3 15000\n")
        monkeypatch.setattr(analysis, "verify_lemma", self.never)
        code, out, err = invoke(capsys, "verify-all", "--corpus", str(corpus),
                                "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("error: corpus line 2: ") and "too many to print" in err

    def test_printable_output_still_runs(self, capsys, monkeypatch, tmp_path):
        # dyadic sample points collapse at any depth, and text-mode verify-all
        # prints statuses, not the reports
        code, out, _ = invoke(capsys, "sample", "--a", "0", "--b", "1", "--count", "3",
                              "--depth", "1000000")
        assert (code, out) == (0, "y,lo,hi\n0,0,0\n1/2,0,0\n1,0,0\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 15000\n")
        monkeypatch.setattr(analysis, "verify_lemma",
                            lambda x, n: analysis.LemmaReport(
                                x, n, 1, measure.Dir.LE, F(0), F(0), F(0), 0, "certified"))
        code, out, _ = invoke(capsys, "verify-all", "--corpus", str(corpus))
        assert code == 0 and out.endswith("all certified (1 entries)\n")

    def test_refute_is_rejected_only_past_the_limit(self, capsys, monkeypatch):
        # at the smallest limit, 640 digits, 2**2126 prints and 2**2127 does not
        def fake(x, n, table):  # the 1/3 pairs pass their direction and gap checks
            direction = measure.Dir.LE if n % 2 == 0 else measure.Dir.GE
            return analysis.DensityCertificate(x, F(1, 1 << n), F(-n, 5), direction, F(1, 32))

        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # the blow-up prints radius 2**-2126 here, 2**-2128 at 1/2**1064
            code, out, _ = invoke(capsys, "refute", "--x", f"1/{1 << 1063}")
            assert code == 0 and f"1/{1 << 2126}" in out
            monkeypatch.setattr(analysis, "blowup_check", self.never)
            assert invoke(capsys, "refute", "--x", f"1/{1 << 1064}")[0] == 1
            # the largest qualifying scale at 1/3 is the largest even n <= N
            monkeypatch.setattr(analysis, "_certificate", fake)
            code, out, _ = invoke(capsys, "refute", "--x", "1/3", "--n", "2127")
            assert code == 0 and f"1/{1 << 2126}" in out
            monkeypatch.setattr(analysis, "_certificate", self.never)
            code, _, err = invoke(capsys, "refute", "--x", "1/3", "--n", "2128")
            assert code == 1 and "too many to print" in err
        finally:
            sys.set_int_max_str_digits(old)

    def test_no_limit_prints(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = invoke(capsys, "enclose", "--x", "1/3", "--depth", "15000")
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0 and len(out) > 2 * 4300


class TestSlopesAndNeighbors:
    def test_slopes_text(self, capsys):
        code, out, _ = invoke(capsys, "slopes", "--x", "1/3", "--n", "4")
        assert code == 0 and out.split() == ["-1", "0", "-1", "0"]

    def test_neighbors(self, capsys):
        code, out, _ = invoke(capsys, "neighbors", "--x", "5/7", "--n", "3")
        assert code == 0 and out.split() == ["5/8", "3/4"]

    def test_neighbors_on_grid_error(self, capsys):
        code, _, err = invoke(capsys, "neighbors", "--x", "1/4", "--n", "2")
        assert code == 1 and "grid" in err


class TestMeasure:
    def test_blowup_instance(self, capsys):
        code, out, _ = invoke(
            capsys, "measure", "--x", "1/2", "--r", "1/16", "--alpha", "3",
            "--dir", "ge", "--depth", "12", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        bound = payload["result"]["bound"]
        assert parse_rat(bound["lo"]) == F(1, 16)
        assert parse_rat(bound["hi"]) == F(1, 16)
        assert parse_rat(payload["result"]["right"]["lo"]) == F(1, 16)

    def test_negative_rational_threshold(self, capsys):
        # argparse must not eat -3/5 as a flag
        code, out, _ = invoke(
            capsys, "measure", "--x", "1/3", "--r", "1/4", "--alpha", "-3/5",
            "--dir", "le", "--depth", "16", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert parse_rat(payload["result"]["bound"]["lo"]) >= F(1, 128)

    def test_cell_budget_exhausted_is_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        code, out, err = invoke(
            capsys, "measure", "--x", "1/3", "--r", "1/8", "--alpha", "1/2",
            "--dir", "ge", "--depth", "20",
        )
        assert code == 1 and out == ""
        assert err == "error: depth-20 query at x=1/3 needs more than 3 cells\n"

    def test_window_over_cell_budget_fails_fast(self, capsys):
        # 2**25 level-0 cells in the window: over the default budget before any walk
        code, out, err = invoke(
            capsys, "measure", "--x", "0", "--r", "8388608", "--alpha", "0",
            "--dir", "ge", "--depth", "1",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "cells" in err

    def test_depth_over_the_bound_fails_fast(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran a query past the depth bound")

        monkeypatch.setattr(measure, "quotient_set_sides", never)
        argv = ["measure", "--x", "1/3", "--r", "1/2", "--alpha", "1/2", "--dir", "ge"]
        for depth in (cli.MEASURE_DEPTH_MAX + 1, 100000):
            code, out, err = invoke(capsys, *argv, "--depth", str(depth))
            assert code == 1 and out == ""
            assert err == f"error: --depth must be at most 1024, got {depth}\n"

    def test_depth_at_the_bound_runs(self, capsys, monkeypatch):
        seen = []

        def sides(query):
            seen.append(query.depth)
            return Enclosure(F(0), F(0)), Enclosure(F(0), F(0))

        monkeypatch.setattr(measure, "quotient_set_sides", sides)
        code, _, _ = invoke(capsys, "measure", "--x", "1/3", "--r", "1/2", "--alpha", "1/2",
                            "--dir", "ge", "--depth", str(cli.MEASURE_DEPTH_MAX))
        assert code == 0 and seen == [1024]

    def test_non_dyadic_radius_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "measure", "--x", "1/2", "--r", "1/3", "--alpha", "1",
            "--dir", "ge", "--depth", "6",
        )
        assert code == 1 and "dyadic" in err


class TestLemma:
    def test_certified_json(self, capsys):
        code, out, _ = invoke(
            capsys, "lemma", "--x", "1/3", "--n", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        result = payload["result"]
        assert result["status"] == "certified"
        assert parse_rat(result["alpha"]) == F(-3, 5)
        assert parse_rat(result["bound_certified"]) >= parse_rat(result["bound_required"])

    def test_undecided_exit_code(self, capsys, short_over_budget):
        short_over_budget(3)  # the query comes back short of its target
        code, out, _ = invoke(
            capsys, "lemma", "--x", "1/3", "--n", "2", "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["result"]["status"] == "undecided"

    def test_over_budget_query_is_an_error(self, capsys, monkeypatch):
        # a query over the cell budget is an error, not a report
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        code, out, err = invoke(capsys, "lemma", "--x", "1/3", "--n", "2",
                                "--format", "json")
        assert (code, out) == (1, "")
        assert err == "error: depth-10 query at x=1/3 needs more than 3 cells\n"

    def test_large_scale_certifies(self, capsys):
        # the lemma's query runs at depth n + 8 = 65: no cap applies at any n
        code, out, _ = invoke(capsys, "lemma", "--x", "1/3", "--n", "57",
                              "--format", "json")
        result = json.loads(out)["result"]
        assert code == 0
        assert (result["status"], result["depth_used"]) == ("certified", 65)

    # the query depth follows from n: TAKAGI_DEPTH_CAP is not read

    @pytest.mark.parametrize("value", ["abc", "", "4.5"])
    def test_bad_depth_cap_env_is_one_line(self, capsys, monkeypatch, value):
        argv = ("lemma", "--x", "1/3", "--n", "2")
        expected = invoke(capsys, *argv)
        assert expected[0] == 0 and expected[2] == ""
        monkeypatch.setenv("TAKAGI_DEPTH_CAP", value)
        assert invoke(capsys, *argv) == expected

    def test_depth_cap_env(self, capsys, monkeypatch):
        argv = ("lemma", "--x", "1/3", "--n", "2")
        expected = invoke(capsys, *argv)
        monkeypatch.setenv("TAKAGI_DEPTH_CAP", "4")
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        assert (code, out, err) == expected


class TestOtherReports:
    def test_blowup(self, capsys):
        code, out, _ = invoke(capsys, "blowup", "--x", "1/2", "--n", "3",
                              "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert parse_rat(payload["result"]["lo_full"]) == F(1, 8)

    def test_classify(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--x", "1/3", "--n", "20",
                              "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["case_hint"] == "bounded-oscillation"

    def test_refute(self, capsys):
        code, out, _ = invoke(capsys, "refute", "--x", "1/3", "--n", "12",
                              "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["result"]["pairs"]) >= 3

    def test_refute_dyadic_certified(self, capsys, short_over_budget):
        # a 2-cell budget that leaves every query short: the one blow-up at
        # n = 1 runs none, so its whole half-ball is still certified
        short_over_budget(2)
        code, out, _ = invoke(capsys, "refute", "--x", "1/2", "--n", "5",
                              "--format", "json")
        result = json.loads(out)["result"]
        assert (code, result["status"]) == (0, "certified")
        assert result["singles"][0]["density_lo"] == "1/2"
        assert result["detail"] == "thresholds n - 0 for every n >= 1"

    # a blow-up runs no query, so a 3-cell budget and a certify_lower that
    # raises leave it certified
    @pytest.mark.parametrize("argv", [
        ["blowup", "--x", "3/4", "--n", "4"],
        ["refute", "--x", "3/4", "--n", "5"],
    ], ids=["blowup", "refute-dyadic"])
    def test_dyadic_certifies_with_no_query(self, capsys, no_query, argv):
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["status"] == "certified"

    # each names the query its certificate runs (a lemma at its own scale:
    # TestLemma); nothing is printed on stdout
    @pytest.mark.parametrize("argv, query", [
        (["lemma", "--x", "1/3", "--n", "6", "--format", "json"], "depth-11 query at x=1/6"),
        (["refute", "--x", "1/3", "--n", "12", "--format", "json"], "depth-10 query at x=1/3"),
    ], ids=["lemma-twin", "refute"])
    def test_over_budget_is_one_line(self, capsys, monkeypatch, argv, query):
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        assert invoke(capsys, *argv) == (1, "", f"error: {query} needs more than 3 cells\n")

    def test_invariant_failure_is_one_line(self, capsys, monkeypatch):
        def wrong_direction(x, n, table):
            return analysis.DensityCertificate(
                x=F(x), r=F(1, 1 << n), alpha=F(0), direction=measure.Dir.GE,
                density_lo=F(1),
            )

        monkeypatch.setattr(analysis, "_certificate", wrong_direction)
        code, out, err = invoke(capsys, "refute", "--x", "1/3", "--n", "6")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "unexpected certificate directions" in err

    @pytest.mark.parametrize("command", ["classify", "refute"])
    @pytest.mark.parametrize("x", ["1/2", "1/3"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_horizon_must_be_positive(self, capsys, command, x, n):
        # at a dyadic point as at any other
        code, out, err = invoke(capsys, command, "--x", x, "--n", n)
        assert (code, out, err) == (1, "", "error: horizon must be positive\n")

    def test_refute_insufficient_horizon(self, capsys):
        code, out, _ = invoke(capsys, "refute", "--x", "1/3", "--n", "1",
                              "--format", "json")
        assert code == 2
        assert json.loads(out)["result"]["status"] == "insufficient-horizon"


class TestSample:
    def test_exact_rows(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--a", "0", "--b", "1",
                              "--count", "3", "--depth", "8")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "y,lo,hi"
        assert lines[1:] == ["0,0,0", "1/2,0,0", "1,0,0"]

    def test_monotone_grid_and_collapse(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--a", "1/4", "--b", "1/2",
                              "--count", "5", "--depth", "20")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ys = [parse_rat(row[0]) for row in rows]
        assert ys == sorted(ys)
        for row in rows:
            assert row[1] == row[2]  # all grid points dyadic here

    def test_approx_column(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--a", "0", "--b", "1/2",
                              "--count", "2", "--depth", "6", "--approx")
        lines = out.strip().splitlines()
        assert lines[0] == "y,lo,hi,approx"
        assert len(lines[1].split(",")) == 4

    def test_sample_rows_non_dyadic_grid(self):
        rows = list(sample_rows(F(0), F(1), 4, 12))
        assert rows[1][0] == "1/3"
        assert parse_rat(rows[1][2]) - parse_rat(rows[1][1]) == F(1, 1 << 13)

    @pytest.mark.parametrize("a, b, count, depth", [
        (F(0), F(1), 257, 24),            # dyadic step
        (F(-3, 4), F(1, 8), 61, 40),      # non-dyadic step over a negative range
        (F(1, 4), F(3, 2), 600, 64),      # non-dyadic step, 599 in most denominators
        (F(-5), F(-9, 2), 7, 3),          # integer end, shallow depth
        (F(3, 16), F(7, 16), 1025, 48),
        (F(1, 1024), F(1), 2, 8),         # dyadic step 1023/1024: 1023 > 10 walk steps
        (F(0), F(3), 4, 5),               # integer grid: step 1 on the level-0 grid
        (F(-1, 2), F(1, 2), 3, 1),        # step 1/2 on the level-1 grid, walked
        (F(0), F(1, 1 << 2000), 9, 3),    # a walk on the level-2003 grid
    ])
    def test_rows_equal_the_per_point_reference(self, a, b, count, depth):
        for approx in (False, True):
            for classical in (False, True):
                assert list(sample_rows(a, b, count, depth, approx=approx,
                                        classical=classical)) \
                    == reference_sample_rows(a, b, count, depth, approx=approx,
                                             classical=classical)

    def test_rows_equal_the_reference_on_seeded_grids(self):
        rng = random.Random(21)
        for _ in range(60):
            a = F(rng.randrange(-64, 64), 1 << rng.randrange(0, 6))
            b = a + F(rng.randrange(1, 64), 1 << rng.randrange(0, 6))
            count, depth = rng.randrange(2, 40), rng.randrange(1, 80)
            approx, classical = rng.random() < 0.5, rng.random() < 0.5
            assert list(sample_rows(a, b, count, depth, approx=approx, classical=classical)) \
                == reference_sample_rows(a, b, count, depth, approx=approx,
                                         classical=classical)

    def test_rows_equal_the_reference_across_grid_levels(self):
        # a and b - a at independent levels, so that the step s/2**m has s on
        # both sides of the level m: walked when s <= m, by Horner's rule else
        rng = random.Random(30)
        for _ in range(200):
            a = F(rng.randrange(-40, 40), 1 << rng.randrange(0, 13))
            width = F(rng.randrange(1, 40), 1 << rng.randrange(0, 13))
            count = rng.choice(((1 << rng.randrange(0, 7)) + 1, rng.randrange(2, 70)))
            depth, approx, classical = rng.randrange(1, 70), rng.random() < 0.5, rng.random() < 0.5
            assert list(sample_rows(a, a + width, count, depth, approx=approx,
                                    classical=classical)) \
                == reference_sample_rows(a, a + width, count, depth, approx=approx,
                                         classical=classical)

    def test_rows_stream_until_one_cannot_print(self, capsys):
        # each row prints as it is computed: y_0 = 2**-14280 prints (4299
        # digits), y_1 has denominator 2**14295, past the 4300-digit limit
        code, out, err = invoke(capsys, "sample", "--a", f"1/{1 << 14280}",
                                "--b", f"1/{1 << 14279}", "--count", "32769")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 2
        assert lines[0] == "y,lo,hi" and lines[1].startswith(f"1/{1 << 14280},")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "too many to print" in err

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_rejected(self, capsys, depth):
        # the depth is checked with the other arguments, before the header
        code, out, err = invoke(capsys, "sample", "--a", "0", "--b", "1", "--count", "4",
                                "--depth", depth)
        assert (code, out, err) == (1, "", "error: enclosure depth must be positive\n")

    def test_format_flag_rejected(self, capsys):
        # sample always writes CSV; a --format it would ignore is a usage error
        code, out, err = invoke(capsys, "sample", "--a", "0", "--b", "1",
                                "--count", "3", "--format", "json")
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "--format" in err
        assert err.startswith("usage: takagi-lab sample")


class TestVerifyAll:
    def test_built_in_corpus(self, capsys):
        # 6 centres x 4 lemmas, then 4 blow-ups from the first scale 2*n0 + 1
        # of each of the 5 dyadic centres: n = 5..8 at 5/8
        code, out, _ = invoke(capsys, "verify-all")
        assert code == 0 and out.endswith("all certified (44 entries)\n")
        assert [line.split()[1:5] for line in out.splitlines() if " 5/8 " in line] == [
            ["blowup", "x=", "5/8", f"n={n}"] for n in range(5, 9)]

    def test_corpus_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "# kind x n\n"
            "lemma 1/3 2\n"
            "lemma 1/5 3\n"
            "blowup 1/2 3\n"
            "blowup 3/4 4\n"
        )
        code, out, _ = invoke(capsys, "verify-all", "--corpus", str(corpus),
                              "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["certified"] is True
        assert [r["index"] for r in payload["results"]] == [0, 1, 2, 3]

    def test_jobs_one_matches_default(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 2\nlemma 2/3 2\nblowup 1/2 2\nblowup 0 1\n")
        plain = invoke(capsys, "verify-all", "--corpus", str(corpus), "--format", "json")
        assert plain[0] == 0
        assert invoke(capsys, "verify-all", "--corpus", str(corpus),
                      "--jobs", "1", "--format", "json") == plain

    def test_failure_exit_code(self, capsys, tmp_path, short_over_budget):
        short_over_budget(3)  # the entry's query comes back short of its target
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 2\n")
        code, out, _ = invoke(capsys, "verify-all", "--corpus", str(corpus),
                              "--format", "json")
        assert code == 2
        assert json.loads(out)["certified"] is False

    def test_blowup_entries_run_no_query(self, capsys, tmp_path, no_query):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("blowup 0 1\nblowup -3/8 7\nblowup 5/4 4000\n")
        code, out, _ = invoke(capsys, "verify-all", "--corpus", str(corpus))
        assert (code, out.splitlines()[-1]) == (0, "all certified (3 entries)")

    def test_over_budget_entry_names_its_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 2\n")
        for fmt in ("text", "json"):
            code, out, err = invoke(capsys, "verify-all", "--corpus", str(corpus),
                                    "--format", fmt)
            assert (code, out) == (1, "")
            assert err == ("error: corpus line 1: depth-10 query at x=1/3 "
                           "needs more than 3 cells\n")

    def test_text_summary_line(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 2\nblowup 1/2 3\n")
        code, out, _ = invoke(capsys, "verify-all", "--corpus", str(corpus))
        assert code == 0
        assert out.splitlines()[-1] == "all certified (2 entries)"

    def test_missing_corpus_is_one_line(self, capsys, tmp_path):
        missing = str(tmp_path / "no-such-corpus.txt")
        code, out, err = invoke(capsys, "verify-all", "--corpus", missing)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and missing in err

    @pytest.mark.parametrize("text", ["", "# kind x n\n\n   # nothing else\n"],
                             ids=["empty", "comments-only"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_corpus_without_entries_is_an_error(self, capsys, tmp_path, text, fmt):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        assert invoke(capsys, "verify-all", "--corpus", str(corpus), "--format", fmt) == (
            1, "", f"error: corpus {corpus} has no entries\n")

    def test_malformed_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3\n")
        code, _, err = invoke(capsys, "verify-all", "--corpus", str(corpus))
        assert code == 1 and "corpus line" in err

    @pytest.mark.parametrize("line, message", [
        ("lemma 1/3 abc", "invalid literal for int()"),
        ("lemma 0.5 3", "not an exact rational"),
        ("blowup 1/3 3", "is not dyadic"),
        ("lemma 1/2 3", "the one-scale estimate needs a non-dyadic centre"),
    ])
    def test_bad_entry_names_its_line(self, capsys, tmp_path, monkeypatch, line, message):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"# kind x n\n{line}\nlemma 1/5 3\n")
        ran = []
        verify_lemma = analysis.verify_lemma
        monkeypatch.setattr(analysis, "verify_lemma",
                            lambda x, *a, **k: ran.append(x) or verify_lemma(x, *a, **k))
        code, out, err = invoke(capsys, "verify-all", "--corpus", str(corpus))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: corpus line 2: ")
        assert message in err
        # a line that does not parse stops the run before any entry runs
        assert ran == ([F(1, 2)] if line == "lemma 1/2 3" else [])

    # the scale parses, then overflows a shift inside the check
    @pytest.mark.parametrize("line", [f"lemma 1/3 {10**30}", f"blowup 1/2 {10**30}"])
    def test_overflowing_entry_names_its_line(self, capsys, tmp_path, line):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"lemma 1/5 3\n{line}\n")
        code, out, err = invoke(capsys, "verify-all", "--corpus", str(corpus))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: corpus line 2: ")


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3", "2", "4"])
    def test_below_one_rejected(self, capsys, tmp_path, jobs):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("lemma 1/3 2\n")
        code, out, err = invoke(capsys, "verify-all", "--corpus", str(corpus),
                                "--jobs", jobs)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--jobs" in err


class TestMachineOutputExactness:
    @pytest.mark.parametrize("argv", [
        ("lemma", "--x", "1/3", "--n", "2"),
        ("measure", "--x", "1/2", "--r", "1/16", "--alpha", "3",
         "--dir", "ge", "--depth", "10"),
        ("refute", "--x", "1/3", "--n", "8"),
        ("classify", "--x", "1/5", "--n", "16"),
        ("blowup", "--x", "1/4", "--n", "4"),
        ("enclose", "--x", "3/7", "--depth", "24"),
    ])
    def test_json_contains_no_floats(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        json.loads(out, parse_float=lambda s: pytest.fail(f"float in output: {s}"))

    @pytest.mark.parametrize("argv, stdout", [
        (("lemma", "--x", "1/3", "--n", "2"),
         "x: 1/3\nn: 2\nsign: 1\ndirection: le\nalpha: -3/5\nbound_required: 1/128\n"
         "bound_certified: 18065/78848\ndepth_used: 10\nstatus: certified\n"),
        (("neighbors", "--x", "5/7", "--n", "3", "--format", "json"),
         '{\n  "schema": "takagi-lab/1",\n  "command": "neighbors",\n  "result": {\n'
         '    "x_n": "5/8",\n    "y_n": "3/4"\n  }\n}\n'),
        (("eval", "--x", "5/8", "--format", "json", "--approx"),
         '{\n  "schema": "takagi-lab/1",\n  "command": "eval",\n  "result": {\n'
         '    "x": "5/8",\n    "value": "1/4"\n  },\n  "approx": {\n    "value": 0.25\n'
         '  }\n}\n'),
        (("enclose", "--x", "1/3", "--depth", "8", "--format", "json", "--approx"),
         '{\n  "schema": "takagi-lab/1",\n  "command": "enclose",\n  "result": {\n'
         '    "x": "1/3",\n    "depth": 8,\n    "lo": "85/256",\n    "hi": "171/512"\n'
         '  },\n  "approx": {\n    "mid": 0.3330078125\n  }\n}\n'),
        # reports whose x and radius fields are dyadic, and CSV rows from dyadic ends
        (("blowup", "--x", "3/8", "--n", "5", "--format", "json"),
         '{\n  "schema": "takagi-lab/1",\n  "command": "blowup",\n  "result": {\n'
         '    "x": "3/8",\n    "n": 5,\n    "base_level": 2,\n    "threshold": 1,\n'
         '    "radius": "1/64",\n    "bound_required": "1/128",\n    "lo_one_sided": "1/64",\n'
         '    "lo_mirror": "1/64",\n    "lo_full": "1/32",\n    "depth_used": 9,\n'
         '    "status": "certified"\n  }\n}\n'),
        (("sample", "--a", "1/4", "--b", "1/2", "--count", "3", "--depth", "6"),
         "y,lo,hi\n1/4,1/4,1/4\n3/8,1/4,1/4\n1/2,0,0\n"),
        # --approx in text mode: a suffix on enclose, trailing lines on measure
        (("enclose", "--x", "1/3", "--depth", "8", "--approx"),
         "[85/256, 171/512]  (~0.3330078125)\n"),
        (("measure", "--x", "1/3", "--r", "1/4", "--alpha", "0", "--dir", "ge",
          "--depth", "4", "--approx"),
         "query.x: 1/3\nquery.r: 1/4\nquery.alpha: 0\nquery.direction: ge\nquery.depth: 4\n"
         "bound.lo: 17/192\nbound.hi: 53/192\nleft.lo: 17/192\nleft.hi: 1/4\nright.lo: 0\n"
         "right.hi: 5/192\napprox.lo: 0.08854166666666667\napprox.hi: 0.2760416666666667\n"),
    ])
    def test_exact_stdout(self, capsys, argv, stdout):
        assert invoke(capsys, *argv) == (0, stdout, "")


# strings with quotes, backslashes, control characters and non-ASCII text
_json_text = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\u00e9\u2028\U0001d11e'), st.characters()))
_json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70),
              st.floats(allow_nan=False, allow_infinity=False),  # -0.0 and subnormals too
              _json_text),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_json_text, children, max_size=4)),
    max_leaves=24,
)


def _approx(tree):
    """``tree`` with each float marked as an ``--approx`` value, the one float the writer takes."""
    if type(tree) is float:
        return cli._Approx(tree)
    if type(tree) is list:
        return [_approx(item) for item in tree]
    if type(tree) is dict:
        return {key: _approx(value) for key, value in tree.items()}
    return tree


# report records, each field of its own type: negative and huge rationals,
# empty tuples, both directions and arbitrary text
_fractions = st.fractions() | st.builds(F, st.integers(-(2**300), 2**300), st.integers(1, 2**300))
_ints = st.integers(-(2**70), 2**70)
_text = st.text(max_size=6)
_dirs = st.sampled_from(measure.Dir)
_int_tuples = st.lists(_ints, max_size=6).map(tuple)
_certs = st.builds(analysis.DensityCertificate, _fractions, _fractions, _fractions, _dirs,
                   _fractions)
_pairs = st.builds(analysis.CertificatePair, _ints, _certs, _certs)
_slope_seqs = st.builds(SlopeSeq, _fractions, _int_tuples, _ints)
_records = st.one_of(
    st.builds(lambda a, b: Enclosure(min(a, b), max(a, b)), _fractions, _fractions),
    st.builds(measure.QuotientQuery, _fractions,
              st.builds(lambda k, m: F(2 * k + 1, 1 << m), st.integers(0, 99), st.integers(0, 99)),
              _fractions, _dirs, st.integers(1, 2**70)),
    _slope_seqs,
    _certs,
    _pairs,
    st.builds(analysis.ClassificationReport, _fractions, _ints, _slope_seqs, _ints, _ints,
              _int_tuples, _text),
    st.builds(analysis.RefutationEvidence, _fractions, _ints, _text,
              st.lists(_pairs, max_size=3).map(tuple), st.lists(_certs, max_size=3).map(tuple),
              _text, _text),
    st.builds(analysis.LemmaReport, _fractions, _ints, _ints, _dirs, _fractions, _fractions,
              _fractions, _ints, _text),
    st.builds(analysis.BlowupReport, _fractions, _ints, _ints, _ints, _fractions, _fractions,
              _fractions, _fractions, _fractions, _ints, _text),
)
# what handlers pass: records alone, in lists, and in dicts beside None and bools
_report_data = st.recursive(
    _records | st.none() | st.booleans() | _dirs,
    lambda children: (st.lists(children, max_size=3)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_text, children, max_size=3)),
    max_leaves=6,
)


class TestJsonWriter:
    """``cli._json`` against ``json.dumps(indent=2)`` of the reference tree, the bytes it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(_json_trees)
    @example({"": [], "a": {}, "b": [[], {}], "c": [-0.0, 5e-324, 1e308, -1.5, 0.1]})
    @example([2**64 + 1, -(2**64) - 1, -7, 0, True, False, None,
              'quote " backslash \\ nul \x00 tab \t \u00e9 \U0001d11e'])
    def test_equals_json_dumps(self, node):
        # a float is written only as an --approx value; in report data it raises
        assert cli._json(_approx(node)) == json.dumps(node, indent=2)
        try:
            expected = json.dumps(reference_to_jsonable(node), indent=2)
        except TypeError:
            with pytest.raises(TypeError, match="^cannot serialize float exactly$"):
                cli._json(node)
        else:
            assert cli._json(node) == expected

    @settings(deadline=None, max_examples=300)
    @given(_report_data)
    @example((analysis.RefutationEvidence(F(-1, 3), 0, "", (), (), "", ""), [], {}, ()))
    @example({"none": None, "yes": True, "no": False, "d": measure.Dir.GE, "big": F(-(10**300), 7)})
    def test_records_equal_the_reference(self, data):
        assert cli._json(data) == json.dumps(reference_to_jsonable(data), indent=2)

    ARGVS = (
        ["eval", "--x", "5/8"], ["eval", "--x", "1/4", "--classical", "--approx"],
        ["enclose", "--x", "1/3", "--depth", "40", "--approx"],
        ["slopes", "--x", "1/7", "--n", "40"], ["neighbors", "--x", "-5/7", "--n", "3"],
        ["measure", "--x", "1/3", "--r", "1/8", "--alpha", "-2/5", "--dir", "le", "--depth", "8",
         "--approx"],
        ["lemma", "--x", "13/12", "--n", "5"], ["blowup", "--x", "-3/8", "--n", "6"],
        ["classify", "--x", "1/2", "--n", "3"], ["classify", "--x", "3/19", "--n", "30"],
        ["refute", "--x", "1/3", "--n", "1"], ["refute", "--x", "1/3", "--n", "12"],
        ["refute", "--x", "1/7", "--n", "30"], ["refute", "--x", "3/8", "--n", "5"],
        ["verify-all"],
    )

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv))
    def test_every_report_as_json_dumps_wrote_it(self, capsys, monkeypatch, argv):
        payloads = []
        real = cli._json

        def recording(node, pad="\n"):  # keeps the whole payload, not its parts
            if pad == "\n":
                payloads.append(node)
            return real(node, pad)

        monkeypatch.setattr(cli, "_json", recording)
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code in (0, 2)
        (payload,) = payloads
        # the report data as the reference tree, the approx block as it is
        tree = {key: value if key == "approx" else reference_to_jsonable(value)
                for key, value in payload.items()}
        assert out == json.dumps(tree, indent=2) + "\n"
        assert all(type(value) is cli._Approx for value in payload.get("approx", {}).values())

    @pytest.mark.parametrize("node", [F(1, 2), (1, 2), {1, 2}, {"a": [1, (2,)]}, [{"b": F(1)}]],
                             ids=repr)
    def test_other_types_raise_type_error(self, node):
        # a type the reference refuses raises its TypeError, alone or anywhere in
        # report data; whatever it accepts is written as the reference tree
        try:
            expected = json.dumps(reference_to_jsonable(node), indent=2)
        except TypeError as exc:
            with pytest.raises(TypeError, match=f"^{exc}$"):
                cli._json(node)
        else:
            assert cli._json(node) == expected
        for leaf in (1.5, {3}, object(), F(1, 3) + 0j):
            with pytest.raises(TypeError, match=f"^cannot serialize {type(leaf).__name__} exactly$"):
                cli._json([{"x": leaf}, node])
        with pytest.raises(TypeError):  # a report's keys are str; json.dumps would quote an int
            cli._json([{1: "one"}, node])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_refused(self, value):
        # json.dumps would write NaN / Infinity, which is not JSON; only an
        # --approx value can be a float, and in report data any float raises
        with pytest.raises(ValueError, match="has no JSON form"):
            cli._emit_json("enclose", {"x": F(1, 3)}, {"mid": value})
        for node in (value, [value], {"approx": {"mid": value}}):
            with pytest.raises(TypeError, match="^cannot serialize float exactly$"):
                cli._json(node)

    @pytest.mark.parametrize("where", ["record", "record as text", "handler dict"])
    def test_a_float_in_report_data_raises(self, capsys, monkeypatch, where):
        # the --approx block is built from floats; a float anywhere else is
        # no exact value and raises, in JSON and in text, before a line is printed
        if where.startswith("record"):
            monkeypatch.setattr(analysis, "blowup_check", lambda x, n: analysis.BlowupReport(
                F(1, 2), n, 0, n, F(1, 8), F(1, 16), F(1, 8), F(1, 8), 0.25, n + 4, "certified"))
            fmt = "text" if where == "record as text" else "json"
            argv = ["blowup", "--x", "1/2", "--n", "2", "--format", fmt]
        else:
            monkeypatch.setattr(cli, "takagi_exact", lambda x, classical: 0.25)
            argv = ["eval", "--x", "1/4", "--approx", "--format", "json"]
        with pytest.raises(TypeError, match="^cannot serialize float exactly$"):
            cli.run(argv)
        assert capsys.readouterr().out == ""


class TestTextRenderer:
    """``cli._text_lines`` against the renderer it replaced, which printed the reference tree."""

    @settings(deadline=None, max_examples=300)
    @given(_report_data)
    @example(F(-7, 3))
    @example(measure.Dir.LE)
    @example(None)
    @example(((), [analysis.RefutationEvidence(F(1, 3), 1, "", (), (), "", "")], {"": ()}))
    @example({"none": None, "yes": True, "no": False, "d": {"": measure.Dir.GE}, "big": F(2**70)})
    def test_records_equal_the_reference(self, data):
        assert cli._text_lines(data) == reference_text_lines(data)


class TestParserReuse:
    MEASURE_USAGE = (
        "usage: takagi-lab measure [-h] [--format {text,json}] [--approx] --x X --r R\n"
        "                          --alpha ALPHA --dir {ge,le} --depth DEPTH\n"
        "error: the following arguments are required: --r\n"
    )

    def test_one_parser_serves_consecutive_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli._build_parser.cache_clear()
        assert invoke(capsys, "measure", "--x", "1/3", "--alpha", "0", "--dir", "ge",
                      "--depth", "4") == (1, "", self.MEASURE_USAGE)
        assert invoke(capsys, "eval", "--x", "1/4", "--approx") == (0, "1/4  (~0.25)\n", "")
        assert invoke(capsys, "eval", "--x", "1/4") == (0, "1/4\n", "")
        assert invoke(capsys, "slopes", "--x", "1/3", "--n", "4") == (0, "-1 0 -1 0\n", "")
        assert cli._build_parser.cache_info().misses == 1


class TestUsage:
    EVAL_USAGE = ("usage: takagi-lab eval [-h] [--format {text,json}] [--approx] --x X\n"
                  "                       [--classical]\n")

    @staticmethod
    def outcome(capsys, runner, argv):
        """``(exit code, stdout, stderr)`` of one run; ``-h`` exits with its code."""
        try:
            code = runner(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # a named subcommand parses its own arguments, as the top-level parser
    # handed them on (oracles.reference_run)
    @pytest.mark.parametrize("argv, expected", [
        (["eval", "--", "--x", "1/2"],
         (1, "", EVAL_USAGE + "error: the following arguments are required: --x\n")),
        (["eval", "--x=1/2", "--form", "json"],
         (0, '{\n  "schema": "takagi-lab/1",\n  "command": "eval",\n  "result": {\n'
             '    "x": "1/2",\n    "value": "0"\n  }\n}\n', "")),
        (["eval", "--x", "1/2", "--bogus"],
         (1, "", EVAL_USAGE + "error: unrecognized arguments: --bogus\n")),
    ], ids=["dash-dash", "equals-and-abbreviation", "unknown-flag"])
    def test_subcommand_argv(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.outcome(capsys, run, argv) == expected
        assert self.outcome(capsys, reference_run, argv) == expected

    def test_option_before_the_command(self, capsys, monkeypatch):
        # the top-level parser reads it: "json" is then the command
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--format", "json", "eval", "--x", "1/2"]
        code, out, err = self.outcome(capsys, run, argv)
        assert (code, out, err) == self.outcome(capsys, reference_run, argv)
        usage = cli._build_parser()[0].format_usage()
        assert (code, out) == (1, "")
        assert err.startswith(usage + "error: argument command: invalid choice: 'json' ")
        assert err.count("\n") == usage.count("\n") + 1

    @pytest.mark.parametrize("argv", [["-h"], ["measure", "-h"]], ids=["top-level", "measure"])
    def test_help(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        parser, commands = cli._build_parser()
        helped = commands[argv[0]] if argv[0] in commands else parser
        expected = (0, helped.format_help(), "")
        assert self.outcome(capsys, run, argv) == expected
        assert self.outcome(capsys, reference_run, argv) == expected
        assert expected[1].startswith(f"usage: {helped.prog} [-h]")

    def test_no_command(self, capsys):
        assert invoke(capsys, )[0] == 1

    # a library caller can pass what no command line yields
    @pytest.mark.parametrize("argv, item", [
        (["eval", "--x", 5], "5"),
        (["eval", b"--x", "1/4"], "b'--x'"),
        (["eval", "--x", None], "None"),
        ([5], "5"),
    ], ids=["int-value", "bytes-flag", "none-value", "int-command"])
    def test_non_str_item_is_one_line(self, capsys, argv, item):
        assert invoke(capsys, *argv) == (1, "", f"error: argument {item} is not a string\n")

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 1

    def test_missing_argument(self, capsys):
        code, _, err = invoke(capsys, "lemma", "--x", "1/3")
        assert code == 1

    def test_horizon_has_one_spelling(self, capsys):
        code, out, err = invoke(capsys, "classify", "--x", "1/3", "--N", "4")
        assert code == 1 and out == ""
        assert err.startswith("usage: takagi-lab classify") and err.count("error:") == 1

    def test_direction_is_lower_case(self, capsys):
        code, out, err = invoke(capsys, "measure", "--x", "1/3", "--r", "1/8",
                                "--alpha", "1/2", "--dir", "GE", "--depth", "4")
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "invalid choice: 'GE'" in err

    # 2**70 and 10**20 pass sys.maxsize: a shift by either overflows at once,
    # where a loop over it would never end
    @pytest.mark.parametrize("argv", [
        ["measure", "--x", "1/3", "--r", "1/8", "--alpha", "1/2", "--dir", "ge",
         "--depth", str(1 << 70)],
        ["neighbors", "--x", "1/3", "--n", str(1 << 70)],
        ["lemma", "--x", "1/3", "--n", str(1 << 70)],
        ["blowup", "--x", "1/2", "--n", str(1 << 70)],
        ["slopes", "--x", "1/3", "--n", str(10**20)],
        ["classify", "--x", "1/3", "--n", str(10**20)],
        ["refute", "--x", "1/3", "--n", str(10**20)],
    ])
    def test_huge_integer_is_one_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        def exhausted(x, n):
            raise MemoryError  # as an allocation past the process's limit does

        monkeypatch.setattr(cli, "slope_seq", exhausted)
        code, out, err = invoke(capsys, "slopes", "--x", "1/3", "--n", "8")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    # no command takes a depth cap: the certifying ones set their query depth
    # from n, and measure runs at its given --depth
    @pytest.mark.parametrize("argv", [
        ["lemma", "--x", "1/3", "--n", "2"],
        ["blowup", "--x", "1/2", "--n", "3"],
        ["refute", "--x", "1/3", "--n", "4"],
        ["verify-all"],
        ["measure", "--x", "1/3", "--r", "1/8", "--alpha", "1/2", "--dir", "ge",
         "--depth", "6"],
    ], ids=lambda argv: argv[0])
    def test_depth_cap_is_not_a_flag(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--depth-cap", "4")
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "--depth-cap" in err


# option values for the argv property below that no flag's type or choices
# accept, or that look like a flag
_ODD_VALUES = (st.sampled_from(["-0.5", "ten", "", "-", "GE", "1.5", "--x", "-h"])
               | st.text(alphabet="-=0123456789/abx ", max_size=4))


@st.composite
def _subcommand_argvs(draw):
    """A subcommand's argv: its flags, the required ones first most of the time,
    each spelled in full or else abbreviated or as ``--flag=value``, with a value
    its type and choices accept or else an odd one, and now and then a junk
    token (help, ``--``, an unknown flag, a positional) among them."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = cli._COMMANDS[name][2]
    required = sorted(flag for flag, spec in flags.items() if spec[3])
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4))
    if draw(st.integers(0, 3)):
        chosen = draw(st.permutations(required)) + chosen
    argv = [name]
    for flag in chosen:
        _, kind, _, _, choices, _ = flags[flag]
        if draw(st.integers(0, 9)) == 0:
            value = draw(_ODD_VALUES)
        elif choices:
            value = draw(st.sampled_from(choices))
        elif kind is int:
            value = str(draw(st.integers(-2, 8)))
        else:
            value = draw(st.sampled_from(["0", "1", "1/2", "1/3", "-3/5", "1/8"]))
        spelling = draw(st.integers(0, 39))
        if spelling == 0:  # abbreviated
            flag = flag[:draw(st.integers(min(3, len(flag)), len(flag)))]
        if spelling == 1:
            argv.append(f"{flag}={value}")
        elif kind is bool:
            argv.append(flag)
        else:
            argv += [flag, value]
    if draw(st.integers(0, 3)) == 0:
        junk = st.sampled_from(["-h", "--help", "--", "--bogus", "extra"]) | _ODD_VALUES
        argv.insert(draw(st.integers(1, len(argv))), draw(junk))
    return argv


class TestPlainArgs:
    """A plain subcommand argv is read from the argv table, without argparse;
    any other goes to argparse built from the table, and both give the same
    namespace."""

    @staticmethod
    def outcome(runner, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = runner(list(argv))
            except SystemExit as exc:  # -h
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @settings(deadline=None, max_examples=300)
    @given(_subcommand_argvs())
    @example(["measure", "--depth", "4", "--x", "1/3", "--alpha", "-1", "--r", "1/8",
              "--dir", "le", "--x", "-3/5", "--approx", "--approx"])
    @example(["sample", "--a", "0", "--b", "1/2", "--count", "3", "--classical"])
    @example(["eval", "--x", ""])
    def test_same_namespace_and_outcome_as_argparse(self, argv):
        plain = cli._plain_args(argv[0], argv[1:])
        if plain is not None:
            args, extras = cli._build_parser()[1][argv[0]].parse_known_args(argv[1:])
            assert (vars(args), extras) == (vars(plain), [])
        assert self.outcome(run, argv) == self.outcome(reference_run, argv)

    def test_readme_examples_skip_argparse(self, monkeypatch, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert len(examples) == 11 and all(words[0] == "takagi-lab" for words in examples)

        (tmp_path / "corpus.txt").write_text("lemma 1/3 2\nblowup 1/2 3\n")
        monkeypatch.chdir(tmp_path)
        cli._build_parser.cache_clear()
        for words in examples:
            argv = words[1:words.index(">")] if ">" in words else words[1:]
            assert self.outcome(run, argv)[0] == 0, argv
        assert cli._build_parser.cache_info().misses == 0  # no argparse parser was built

    def test_tables_hold_every_flag_as_a_plain_store(self):
        # the plain parse reads one value per typed flag and none per bare flag,
        # takes a default as it is (argparse would run a str default through its
        # type) and converts a value only by type; argparse is built to match
        commands = cli._build_parser()[1]
        assert commands.keys() == cli._COMMANDS.keys()
        for name, (handler, _, flags) in cli._COMMANDS.items():
            assert callable(handler)
            dests = [dest for dest, *_ in flags.values()]
            assert len(set(dests)) == len(dests) and "command" not in dests
            for dest, kind, default, required, choices, _ in flags.values():
                assert kind in (None, int, bool)
                if kind is bool:
                    assert (default, required, choices) == (False, False, None)
                else:
                    assert kind is None or not isinstance(default, str)
                    assert choices is None or all(type(c) is (kind or str) for c in choices)
            built = [action for action in commands[name]._actions if action.dest != "help"]
            assert all(action.nargs in (0, None) for action in built)
            assert [(action.option_strings, action.dest, bool if action.nargs == 0
                     else action.type, action.default, action.required, action.choices,
                     action.help) for action in built] == [
                ([flag], *spec) for flag, spec in flags.items()]
        # a spec that several subcommands take is written once: equal specs are one object
        specs = [spec for _, _, flags in cli._COMMANDS.values() for spec in flags.values()]
        assert len({id(spec) for spec in specs}) == len(set(specs))


class TestOptimizedInterpreter:
    @staticmethod
    def launch(argv, *flags):
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, *flags, "-m", "takagi_lab.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80",
                                   "PYTHONDONTWRITEBYTECODE": "1"})

    @pytest.mark.parametrize("argv", [["-h"], ["eval", "-h"]], ids=" ".join)
    def test_help_without_docstrings(self, argv):
        # -OO strips docstrings; the help text does not come from one
        plain, optimized = self.launch(argv), self.launch(argv, "-OO")
        assert (optimized.returncode, optimized.stderr) == (0, "")
        assert optimized.stdout == plain.stdout
        assert ("Command-line front end." in plain.stdout) == (argv == ["-h"])

    def test_usage_error_without_docstrings(self):
        proc = self.launch(["eval", "--bogus"], "-OO")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("usage: takagi-lab eval ")
        assert proc.stderr.count("error:") == 1
        assert proc.stderr.splitlines()[-1].startswith("error: ")


class TestImportCost:
    def test_no_process_pool_imported(self):
        # every launch imports the CLI; a process pool would pull in
        # multiprocessing, and dataclasses and pathlib pull in inspect and
        # more; the JSON writer needs only the C string escaper of _json.
        # Under -S no site hook preloads a module, so sys.modules holds what
        # the import itself needed.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, takagi_lab.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', "
                "'dataclasses', 'inspect', 'pathlib', 'json') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout == "[]\n"

    def test_plain_run_leaves_argparse_unloaded(self):
        # a plain argv is read from the argv table: no parser is built and
        # argparse is not imported; a usage error still builds the parsers
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import contextlib, io, sys\n"
                "from takagi_lab import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.run(['eval', '--x', '1/4', '--format', 'json'])\n"
                "print(code, 'argparse' in sys.modules, cli._build_parser.cache_info().misses)\n"
                "print(cli.run(['eval', '--x']))\n")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"})
        assert proc.stdout == "0 False 0\n1\n"
        expected = "error: argument --x: expected one argument\n"
        assert proc.stderr == TestUsage.EVAL_USAGE + expected
