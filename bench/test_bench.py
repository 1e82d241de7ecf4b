"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from takagi_lab import cli  # noqa: E402

ENV_PATH = f"{SRC}:{BENCH}"


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = workloads.generate(workload, 7, str(tmp_path))
    assert first == workloads.generate(workload, 7, str(tmp_path))
    assert first != workloads.generate(workload, 8, str(tmp_path))
    assert len(first[0]) >= 100


def test_series_values_are_exact():
    assert checks.takagi_value(Fraction(1, 3)) == Fraction(1, 3)
    assert checks.takagi_value(Fraction(1, 5)) == Fraction(1, 3)
    assert checks.takagi_value(Fraction(1, 7)) == Fraction(15, 49)
    assert checks.takagi_value(Fraction(1, 4)) == Fraction(1, 4)
    assert checks.slope_walk(Fraction(1, 3), 4) == [-1, 0, -1, 0]


def _edit_json(path: tuple, change):
    """Return a mutator that rewrites one field of the JSON result."""
    def mutate(text: str) -> str:
        payload = json.loads(text)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return json.dumps(payload)
    return mutate


def _shift(delta):
    return lambda value: workloads.fmt(Fraction(value) + delta)


MEASURE = ["measure", "--x", "1/3", "--r", "1/16", "--alpha", "1/2", "--dir", "ge",
           "--depth", "6", "--format", "json"]
LEMMA = ["lemma", "--x", "1/3", "--n", "3", "--format", "json"]
BLOWUP = ["blowup", "--x", "1/2", "--n", "3", "--format", "json"]
REFUTE = ["refute", "--x", "1/3", "--n", "8", "--format", "json"]
ENCLOSE = ["enclose", "--x", "1/7", "--depth", "20", "--format", "json"]


def _cross(text: str) -> str:
    payload = json.loads(text)
    bound = payload["result"]["bound"]
    bound["lo"], bound["hi"] = bound["hi"], bound["lo"]
    return json.dumps(payload)


def _widen_row(text: str) -> str:
    lines = text.splitlines()
    y, lo, hi = lines[3].split(",")
    lines[3] = f"{y},{workloads.fmt(Fraction(lo) - Fraction(1, 2 ** 20))},{hi}"
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "measure crossed bracket": (MEASURE, _cross),
    "measure sides do not sum": (MEASURE, _edit_json(("result", "left", "lo"),
                                                     _shift(Fraction(1, 2 ** 30)))),
    "measure float leaks in": (MEASURE, _edit_json(("result", "bound", "lo"), lambda v: "0.0")),
    "lemma below requirement": (LEMMA, _edit_json(("result", "bound_certified"),
                                                  lambda v: "1/512")),
    "lemma undecided": (LEMMA, _edit_json(("result", "status"), lambda v: "undecided")),
    "blowup mirror below requirement": (BLOWUP, _edit_json(("result", "lo_mirror"),
                                                          lambda v: "1/64")),
    "refute density below 1/64": (REFUTE, _edit_json(("result", "pairs", 0, "le", "density_lo"),
                                                     lambda v: "1/65")),
    "refute 1/5 gap broken": (REFUTE, _edit_json(("result", "pairs", 0, "ge", "alpha"),
                                                 _shift(Fraction(1, 100)))),
    "enclose widened": (ENCLOSE, _edit_json(("result", "lo"), _shift(-Fraction(1, 2 ** 21)))),
    "enclose misses the value": (ENCLOSE, _edit_json(("result", "lo"), _shift(Fraction(1, 2 ** 21)))),
    "sample row widened": (["sample", "--a", "0", "--b", "1/2", "--count", "7", "--depth", "12"],
                           _widen_row),
    "eval wrong value": (["eval", "--x", "3/8", "--format", "json"],
                         _edit_json(("result", "value"), _shift(Fraction(1, 1024)))),
    "slopes wrong walk": (["slopes", "--x", "1/3", "--n", "6", "--format", "json"],
                          _edit_json(("result", "values"), lambda v: [-x for x in v])),
    "classify wrong extremum": (["classify", "--x", "1/7", "--n", "12", "--format", "json"],
                                _edit_json(("result", "running_max"), lambda v: v + 1)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checks_accept_real_output_and_reject_corruption(name):
    argv, corrupt = CORRUPTIONS[name]
    op = {"argv": argv}
    text = cli_output(argv)
    checks.check_op(op, text)
    with pytest.raises(checks.CheckFailure):
        checks.check_op(op, corrupt(text))


def test_verify_all_rejects_an_undecided_entry(tmp_path):
    corpus = [["lemma", "1/3", 2], ["blowup", "1/2", 3]]
    path = tmp_path / "corpus.txt"
    path.write_text("lemma 1/3 2\nblowup 1/2 3\n")
    op = {"argv": ["verify-all", "--corpus", str(path), "--jobs", "1", "--format", "json"],
          "corpus": corpus}
    text = cli_output(op["argv"])
    checks.check_op(op, text)
    payload = json.loads(text)
    payload["results"][1]["report"]["lo_one_sided"] = "0"
    with pytest.raises(checks.CheckFailure):
        checks.check_op(op, json.dumps(payload))


def test_nesting_rejects_a_deeper_bracket_that_widens():
    ops = [{"argv": MEASURE}, {"argv": MEASURE[:-3] + ["8", "--format", "json"]}]
    brackets = {i: checks.check_op(op, cli_output(op["argv"])) for i, op in enumerate(ops)}
    assert checks.check_nesting(ops, brackets) == {}
    lo, hi = brackets[1]
    brackets[1] = (lo, brackets[0][1] + 1)
    assert 1 in checks.check_nesting(ops, brackets)


def test_rescaling_cancels_a_uniform_slowdown():
    def records(slowdown):
        return [{"start": i * 0.05 * slowdown, "seconds": 0.01 * (i + 1) * slowdown,
                 "probe": probe.PROBE_REF_S * slowdown} for i in range(4)]
    expected = [0.01 * (i + 1) for i in range(4)]
    for slowdown in (1, 2):
        scaled = [t for _, t in probe.rescaled(records(slowdown), [])]
        assert scaled == pytest.approx(expected)
    # a long op takes its speed from the timer probes inside it, less their time
    op = {"start": 0.0, "seconds": 1.0 + 3 * 0.001, "probe": probe.PROBE_REF_S}
    inside = [(0.2 * k, 0.2 * k + 0.001, 2 * probe.PROBE_REF_S) for k in (1, 2, 3)]
    assert probe.rescaled([op], inside) == [(pytest.approx(1.0), pytest.approx(0.5))]


def test_missing_functions_are_reported_absent():
    tracer = tracing.Tracer(layers={"plf": ("no_such_function",), "gone": ("f",)})
    tracer.install()
    assert tracer.absent == ["plf.no_such_function", "gone.f"]
    assert set(tracer.metrics(1)) == set(tracing.metric_units())


def test_wrappers_reach_module_local_bindings():
    code = (
        "import contextlib, io, json\n"
        "from takagi_lab import cli\n"
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.run(['lemma', '--x', '1/3', '--n', '3', '--format', 'json'])\n"
        "print(json.dumps(t.metrics(1)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": ENV_PATH}, check=True)
    m = json.loads(out.stdout)
    # measure imported build_Gn by name; its calls must still be seen
    assert m["plf.build_Gn.calls"] == 1
    assert m["measure.certify_lower.calls"] == 1
    assert m["measure.rungs_per_certify"] == 1.0
    assert m["measure.certified_ratio"] == 1.0
    assert m["plf.breakpoints"] > 0
    assert m["cli.run.calls"] == 1


def test_graph_sample_trace_bypasses_plf_and_measure():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "graph-sample", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=BENCH.parent)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(tracing.metric_units()) | {"trace.overhead_s"}
    for name, value in metrics.items():
        if name.startswith(("plf.", "measure.")):
            assert value == 0, name
    assert metrics["takagi.G.calls"] > 0 and metrics["cli.run.calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "graph-sample",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
