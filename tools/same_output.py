"""Byte-identity gate: do the benchmark ops print the same on REV as on this tree?

Usage: python tools/same_output.py REV

Exports REV with ``git archive`` into a temporary directory, generates
every op of the three benchmark workloads for seeds 1-3 with
``bench/workloads.generate`` (writing the corpus files they read), adds
the text-mode ops of ``TEXT_OPS``, the deep ops of ``DEEP_OPS``, the
measure walks of ``WALK_OPS``, the refute and classify edge cases of
``REFUTE_OPS``, the twin edge cases of ``TWIN_OPS``, the long slope walks
of ``SLOPE_OPS``, the period-closed partial sums of ``ORBIT_OPS``, the
JSON writer's paths of ``JSON_OPS``, the failing ops of ``ERROR_OPS``,
the argument parsing cases of ``USAGE_OPS``, the dyadic blow-ups and
refutes of ``DYADIC_OPS`` and the sample grids of ``SAMPLE_OPS``, and runs
each op through ``takagi_lab.cli.run`` in-process, once in a fresh
interpreter per tree: 1 256 ops in all.
Prints every op whose (exit code, stdout, stderr) differs between REV
and the working tree, and exits 1 if any does; an op that exits through
``SystemExit`` (``-h``) records its code as the exit code.  Nothing under ``bench/``
is changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)

# Text-mode output, which no benchmark op asks for: the README's CLI
# examples (``sample`` to stdout, ``verify-all`` on its built-in corpus),
# the text rendering of ``--approx``, and ``enclose`` at its default depth.
TEXT_OPS = (
    ["eval", "--x", "1/4"],
    ["enclose", "--x", "1/3", "--depth", "40"],
    ["slopes", "--x", "1/3", "--n", "8"],
    ["neighbors", "--x", "5/7", "--n", "3"],
    ["measure", "--x", "1/2", "--r", "1/16", "--alpha", "3", "--dir", "ge", "--depth", "12"],
    ["lemma", "--x", "1/3", "--n", "2", "--format", "json"],
    ["blowup", "--x", "1/2", "--n", "3"],
    ["classify", "--x", "1/7", "--n", "30"],
    ["refute", "--x", "1/3", "--n", "20"],
    ["sample", "--a", "0", "--b", "1", "--count", "257", "--depth", "24"],
    ["verify-all"],
    ["measure", "--x", "1/2", "--r", "1/16", "--alpha", "3", "--dir", "ge", "--depth", "12",
     "--approx"],
    ["enclose", "--x", "1/3", "--depth", "40", "--approx"],
    ["enclose", "--x", "1/3"],
)

# Past every benchmark op (depth 48 at most, blow-ups to n = 14): each
# depth-200 measure query visits about 140 000 cells and sums its crossings
# over 21 denominators per band, the refute certifies 100 pairs, the
# blow-ups (one dyadic centre negative) report depths 124 and 204, and the
# lemma runs one query at depth 308.
DEEP_OPS = (
    ["measure", "--x", "1/3", "--r", "1/2", "--alpha", "1/2", "--dir", "ge", "--depth", "200"],
    ["measure", "--x", "1/3", "--r", "1/2", "--alpha", "1/2", "--dir", "le", "--depth", "200"],
    ["refute", "--x", "1/3", "--n", "200", "--format", "json"],
    ["blowup", "--x", "3/8", "--n", "120", "--format", "json"],
    ["blowup", "--x", "-5/4", "--n", "200", "--format", "json"],
    ["lemma", "--x", "5/7", "--n", "300", "--format", "json"],
)

# Measure queries past the benchmark's mix, each one walk over its window:
# integer thresholds (alpha = -1 LE and alpha = 0 GE), whose cells grow about
# as 2**(depth/2); a dyadic centre on the level-n grid with r = 3/8; a
# negative centre; and a window narrower than one level-n cell.
WALK_OPS = (
    ["measure", "--x", "1/3", "--r", "1/4", "--alpha", "-1", "--dir", "le", "--depth", "24",
     "--format", "json"],
    ["measure", "--x", "1/3", "--r", "1/4", "--alpha", "-1", "--dir", "le", "--depth", "28",
     "--format", "json"],
    ["measure", "--x", "1/3", "--r", "1/4", "--alpha", "0", "--dir", "ge", "--depth", "24",
     "--format", "json"],
    ["measure", "--x", "1/3", "--r", "1/4", "--alpha", "0", "--dir", "ge", "--depth", "28",
     "--format", "json"],
    ["measure", "--x", "1365/8192", "--r", "3/8", "--alpha", "1/3", "--dir", "le", "--depth", "12",
     "--format", "json"],
    ["measure", "--x", "-5/7", "--r", "1/8", "--alpha", "-2/5", "--dir", "ge", "--depth", "16",
     "--format", "json"],
    ["measure", "--x", "2/7", "--r", "1/131072", "--alpha", "-6", "--dir", "ge", "--depth", "14",
     "--format", "json"],
)

# Refute and classify edge cases: the horizon heuristic's verdict at 3/19
# (divergent, two singles, although its slope sums are bounded), centres
# below 0 and above 1, an integer centre (the clamped blow-up level),
# each text-mode insufficient-horizon detail, and dyadic refutes at a
# negative centre, at 0, at level 9 and in text mode.
REFUTE_OPS = (
    ["refute", "--x", "3/19", "--n", "30", "--format", "json"],
    ["classify", "--x", "3/19", "--n", "30", "--format", "json"],
    ["refute", "--x", "-5/7", "--n", "30", "--format", "json"],
    ["refute", "--x", "13/12", "--n", "40", "--format", "json"],
    ["refute", "--x", "5", "--n", "3", "--format", "json"],
    ["refute", "--x", "6/11", "--n", "6"],
    ["refute", "--x", "1/7", "--n", "2"],
    ["refute", "--x", "1/3", "--n", "1"],
    ["refute", "--x", "-3/8", "--n", "5", "--format", "json"],
    ["refute", "--x", "0", "--n", "1", "--format", "json"],
    ["refute", "--x", "357/1024", "--n", "20", "--format", "json"],
    ["refute", "--x", "5/4", "--n", "20"],
)

# Certificates whose twin reduction meets an edge case: lemmas at a centre
# below 0, above 1 and next to an integer on either side (the cell end is
# 1 or 0, so the lemma runs as itself), a lemma at n = 300 below 0, a
# divergent refute over 200 scales, and blow-ups past their first scale:
# at 3/8 under refute, whose detail states every scale, and at -3/8.
TWIN_OPS = (
    ["lemma", "--x", "-5/7", "--n", "40", "--format", "json"],
    ["lemma", "--x", "13/12", "--n", "30", "--format", "json"],
    ["lemma", "--x", "1572865/1572864", "--n", "20", "--format", "json"],
    ["lemma", "--x", "-1/1572864", "--n", "20", "--format", "json"],
    ["lemma", "--x", "-3/11", "--n", "300"],
    ["refute", "--x", "1/7", "--n", "200", "--format", "json"],
    ["refute", "--x", "3/8", "--n", "20", "--format", "json"],
    ["blowup", "--x", "-3/8", "--n", "40", "--format", "json"],
)

# Slope walks past every benchmark op (horizon 200 at most): a long walk below
# 0, a text walk above 1, the long bounded walk at 3/19 and a prime
# denominator near 10**12 under classify.
SLOPE_OPS = (
    ["slopes", "--x", "-5/7", "--n", "3000", "--format", "json"],
    ["slopes", "--x", "13/12", "--n", "400"],
    ["classify", "--x", "3/19", "--n", "2000", "--format", "json"],
    ["classify", "--x", "1/999999999989", "--n", "300", "--format", "json"],
)

# The partial sums closed after one binary period: a pre-period and a period
# (5/24 = 0.0011(01)*), a prime denominator near 10**12 whose period exceeds
# the depth, the classical variant past many periods, a classical sample
# with decimals on a non-dyadic step over a negative range, and each loop of
# the Horner step at benchmark scale: a dyadic step (the pre-period loop
# only), a step whose odd part 599 has period 299 > depth (no return), a deep
# classical sample with decimals and a deep dyadic classical value.  Then the
# edges of the classical variant as twice the series at x/2: even and odd
# integers, a negative dyadic, a half-integer (exact), a centre at depth 1, a
# negative pre-periodic centre and one past many periods.
ORBIT_OPS = (
    ["enclose", "--x", "5/24", "--depth", "4000", "--format", "json"],
    ["enclose", "--x", "1/999999999989", "--depth", "300", "--format", "json"],
    ["enclose", "--x", "-7/12", "--depth", "3000", "--classical", "--approx"],
    ["sample", "--a", "-3/4", "--b", "1/8", "--count", "61", "--depth", "40", "--classical",
     "--approx"],
    ["sample", "--a", "1/4", "--b", "3/4", "--count", "2049", "--depth", "24"],
    ["sample", "--a", "1/8", "--b", "1/4", "--count", "600", "--depth", "24"],
    ["sample", "--a", "1/8", "--b", "5/8", "--count", "300", "--depth", "64", "--classical",
     "--approx"],
    ["eval", "--x", "12345/32768", "--classical"],
    ["eval", "--x", "2", "--classical"],
    ["eval", "--x", "3", "--approx", "--classical"],
    ["eval", "--x", "-5/4", "--format", "json", "--classical"],
    ["enclose", "--x", "-4", "--classical"],
    ["enclose", "--x", "1/2", "--classical"],
    ["enclose", "--x", "1/3", "--depth", "1", "--classical"],
    ["enclose", "--x", "-7/6", "--depth", "5", "--format", "json", "--classical"],
    ["enclose", "--x", "5/24", "--depth", "4001", "--classical"],
)

# JSON output that no benchmark op prints: floats under ``"approx"``, the
# built-in corpus, an empty ``values`` list (a dyadic classify), empty
# ``pairs`` and ``singles`` (an insufficient horizon), a handler's dict of
# negative rationals and an enclosure whose ``lo`` and ``hi`` are one value.
JSON_OPS = (
    ["eval", "--x", "1/4", "--approx", "--format", "json"],
    ["neighbors", "--x", "-5/7", "--n", "3", "--format", "json"],
    ["enclose", "--x", "3/8", "--format", "json"],
    ["enclose", "--x", "1/3", "--depth", "40", "--approx", "--format", "json"],
    ["measure", "--x", "1/2", "--r", "1/16", "--alpha", "3", "--dir", "ge", "--depth", "12",
     "--approx", "--format", "json"],
    ["verify-all", "--format", "json"],
    ["classify", "--x", "1/2", "--n", "3", "--format", "json"],
    ["refute", "--x", "1/3", "--n", "1", "--format", "json"],
)

# Error paths: dyadic input refused or out of domain, exact outputs too
# long to print (which fail with the same message before or after the work),
# and a corpus file that does not exist.
ERROR_OPS = (
    ["measure", "--x", "1/2", "--r", "1/3", "--alpha", "1", "--dir", "ge", "--depth", "6"],
    ["measure", "--x", "1/3", "--r", "3/10", "--alpha", "0", "--dir", "le", "--depth", "4",
     "--format", "json"],
    ["measure", "--x", "1/3", "--r", "0", "--alpha", "0", "--dir", "ge", "--depth", "4"],
    ["blowup", "--x", "1/3", "--n", "3"],
    ["blowup", "--x", "-5/6", "--n", "4", "--format", "json"],
    ["blowup", "--x", "3/4", "--n", "2"],
    ["eval", "--x", "1/3"],
    ["eval", "--x", "2/3", "--format", "json"],
    ["neighbors", "--x", "1/4", "--n", "2"],
    ["neighbors", "--x", "3", "--n", "0", "--format", "json"],
    ["neighbors", "--x", "1/3", "--n", "20000"],
    ["sample", "--a", "1/3", "--b", "1", "--count", "3"],
    ["sample", "--a", "0", "--b", "2/3", "--count", "3"],
    ["sample", "--a", "1", "--b", "0", "--count", "3"],
    ["sample", "--a", "1/2", "--b", "1/2", "--count", "2"],
    ["sample", "--a", "0", "--b", "1", "--count", "3", "--depth", "0"],
    ["sample", "--a", "0", "--b", "1", "--count", "4", "--depth", "-3"],
    ["enclose", "--x", "1/3", "--depth", "15000"],
    ["lemma", "--x", "1/3", "--n", "15000"],
    ["slopes", "--x", "3/8", "--n", "5"],
    ["slopes", "--x", "1/3", "--n", "0"],
    ["verify-all", "--corpus", "no-such-corpus.txt"],
)

# Argument parsing: no command, an unknown command, options before the
# command, ``--`` after a command and before it, ``=`` and abbreviated flags
# (an ambiguous one too), flags a subcommand does not take, a stray
# positional, a negative rational as a value, and help at the top level
# and after a command (printed to stdout with exit code 0).  Then the edge of
# the plain argv that a subcommand's flag table reads: a repeated flag, which
# keeps its last value; a value that looks like a flag; a negative value
# that is not a rational; a value that fails its type or choices; a flag with
# no value; an empty value; and help after flags.  Last, the help of every
# other subcommand, so each help text is pinned.
USAGE_OPS = (
    [],
    ["frobnicate", "--x", "1/2"],
    ["--format", "json", "eval", "--x", "1/2"],
    ["eval", "--", "--x", "1/2"],
    ["--", "eval", "--x", "1/2"],
    ["eval", "--x=1/2", "--form", "json"],
    ["measure", "--x", "1/3", "--r", "1/8", "--alpha", "1/2", "--d", "ge", "--depth", "6"],
    ["sample", "--a", "0", "--b", "1", "--count", "3", "--format", "json"],
    ["eval", "--x", "1/2", "--bogus"],
    ["classify", "--x", "1/3", "--n", "4", "extra"],
    ["enclose", "--x", "-3/5", "--depth", "8", "--app"],
    ["-h"],
    ["measure", "-h"],
    ["eval"],
    ["eval", "--x", "1/2", "--x", "1/4"],
    ["eval", "--x", "1/4", "--approx", "--approx"],
    ["eval", "--x", "--format", "json"],
    ["measure", "--x", "1/3", "--r", "1/8", "--alpha", "-0.5", "--dir", "ge", "--depth", "6"],
    ["enclose", "--x", "1/3", "--depth", "ten"],
    ["measure", "--x", "1/3", "--r", "1/8", "--alpha", "1/2", "--dir", "up", "--depth", "6"],
    ["eval", "--format", "json", "--x"],
    ["eval", "--x", ""],
    ["eval", "--x", "1/4", "--format", "json", "-h"],
    *([command, "-h"] for command in ("eval", "enclose", "slopes", "neighbors", "lemma",
                                       "blowup", "classify", "refute", "sample", "verify-all")),
)

# Dyadic centres, each with its first blow-up scale 2*level + 1: integers
# (level clamped to 0), centres below 0 and above 1, and one centre of each
# level 0-10 (1/3's binary digits to that level).
_DYADIC_CENTRES = ([("0", 1), ("1", 1), ("-2", 1), ("-5/8", 5), ("13/8", 5)]
                   + [(f"{(2 << level) // 3 | 1}/{2 << level}", 2 * level + 1)
                      for level in range(11)])

# Blow-ups at each centre's first scale and five above, a refute at each
# centre, a blow-up at scale 4000, and both in text mode.
DYADIC_OPS = tuple(
    [["blowup", "--x", x, "--n", str(n), "--format", "json"]
     for x, first in _DYADIC_CENTRES for n in (first, first + 5)]
    + [["refute", "--x", x, "--n", "5", "--format", "json"] for x, _ in _DYADIC_CENTRES]
    + [["blowup", "--x", "5/8", "--n", "4000", "--format", "json"],
       ["blowup", "--x", "3/8", "--n", "10"],
       ["refute", "--x", "-5/8", "--n", "3"]])

# Sample grids on both sides of the walk rule (a dyadic step s/2**m is walked
# when s <= m): a step 1023/1024 (s > m), the integer grid (m = 0, never
# walked) with the classical term and decimals, a walk on the level-1 grid, a
# walk on the level-2003 grid and a classical walk over a negative range.
# Then classical grids: walks across 0 on the level-1 grid, with decimals on
# the level-2 grid and across 0 on the level-3 grid, Horner's rule on the
# integers (even numerators, so (p, 2q) is not reduced) and a non-dyadic step.
SAMPLE_OPS = (
    ["sample", "--a", "1/1024", "--b", "1", "--count", "2", "--depth", "8"],
    ["sample", "--a", "0", "--b", "3", "--count", "4", "--depth", "5", "--classical", "--approx"],
    ["sample", "--a", "-1/2", "--b", "1/2", "--count", "3", "--depth", "1"],
    ["sample", "--a", "0", "--b", f"1/{1 << 2000}", "--count", "9", "--depth", "3"],
    ["sample", "--a", "-7/4", "--b", "-5/16", "--count", "47", "--depth", "16", "--classical"],
    ["sample", "--a", "-1", "--b", "1", "--count", "5", "--depth", "3", "--classical"],
    ["sample", "--a", "0", "--b", "2", "--count", "3", "--depth", "2", "--classical"],
    ["sample", "--a", "1/2", "--b", "1", "--count", "3", "--depth", "2", "--approx",
     "--classical"],
    ["sample", "--a", "-3/8", "--b", "5/8", "--count", "9", "--depth", "4", "--classical"],
    ["sample", "--a", "0", "--b", "1", "--count", "7", "--depth", "9", "--classical"],
)

# Runs in a child interpreter with one tree's src/ on PYTHONPATH: reads a
# JSON list of argvs on stdin, writes [code, stdout, stderr] for each.
RUNNER = """
import contextlib, io, json, sys
from takagi_lab import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:  # -h prints its help and exits 0
        code = exc.code
    except Exception as exc:  # the traceback would name the tree, so keep the message
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def generate_ops(workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for every op, corpus files written under workdir."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, generate

    ops = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            opdir = workdir / f"{workload}-{seed}"
            opdir.mkdir()
            op_list, files = generate(workload, seed, str(opdir))
            for name, text in files.items():
                (opdir / name).write_text(text, encoding="utf-8")
            ops.extend((f"{workload} seed {seed} op {i}", op["argv"])
                       for i, op in enumerate(op_list))
    ops.extend((f"text op {i}", list(argv)) for i, argv in enumerate(TEXT_OPS))
    ops.extend((f"deep op {i}", list(argv)) for i, argv in enumerate(DEEP_OPS))
    ops.extend((f"walk op {i}", list(argv)) for i, argv in enumerate(WALK_OPS))
    ops.extend((f"refute op {i}", list(argv)) for i, argv in enumerate(REFUTE_OPS))
    ops.extend((f"twin op {i}", list(argv)) for i, argv in enumerate(TWIN_OPS))
    ops.extend((f"slope op {i}", list(argv)) for i, argv in enumerate(SLOPE_OPS))
    ops.extend((f"orbit op {i}", list(argv)) for i, argv in enumerate(ORBIT_OPS))
    ops.extend((f"json op {i}", list(argv)) for i, argv in enumerate(JSON_OPS))
    ops.extend((f"error op {i}", list(argv)) for i, argv in enumerate(ERROR_OPS))
    ops.extend((f"usage op {i}", list(argv)) for i, argv in enumerate(USAGE_OPS))
    ops.extend((f"dyadic op {i}", list(argv)) for i, argv in enumerate(DYADIC_OPS))
    ops.extend((f"sample op {i}", list(argv)) for i, argv in enumerate(SAMPLE_OPS))
    return ops


def run_tree(tree: Path, argvs: list[list[str]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, check=True)
    payload = json.loads(proc.stdout)
    if not Path(payload["module"]).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"{tree} ran takagi_lab from {payload['module']}")
    return payload["results"]


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        workdir = Path(tmp) / "work"
        workdir.mkdir()
        ops = generate_ops(workdir)
        argvs = [argv for _, argv in ops]
        before, after = run_tree(base, argvs), run_tree(ROOT, argvs)
    differing = 0
    for (label, argv), old, new in zip(ops, before, after):
        if old != new:
            differing += 1
            parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                     if a != b]
            print(f"{label}: {', '.join(parts)} differ: "
                  f"takagi-lab {' '.join(argv)}")
    print(f"{len(ops) - differing} of {len(ops)} ops identical to {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1]))
