"""Stdlib-only benchmark of the takagi-lab command line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's ``takagi-lab`` argument lists (see
``workloads.py``).  One fresh single-threaded interpreter, with ``src/``
on its path, runs them through ``takagi_lab.cli.run`` in passes for
about S seconds, at least one pass (``worker.py``).  Every output
is then checked for exactness (``checks.py``); an op fails on a
non-zero exit code, an escaped exception or a failed check.
Separately, fresh interpreters are timed from launch until
``takagi_lab.cli`` is imported.

Times are reported at a reference CPU speed (``probe.py``): a fixed
probe runs before every op, inside long ops and around every
interpreter launch, and each time is rescaled by the reference probe
time over the probe time measured around it.  The raw figures are in
the metadata line.  An op's latency is then its fastest pass.
``wall_s`` is the sum of these latencies, one pass over the op list;
``op_p50_s`` and ``op_p90_s`` are their median and p90 over the
workload's ops (at least 100, so at least ten lie above the p90).
``peak_rss_mb`` is the worker's ``ru_maxrss`` and ``ok_ratio`` the
share of op runs that did not fail.

The last line of stdout is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries run metadata.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run spends half its time untraced and half with per-layer wrappers
installed (``tracing.py``), and reports the per-layer figures per pass
plus ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads
from probe import PROBE_REF_S, probe, rescaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 8
# Leaves room under a 180 s limit for set-up timing and the checks.
WORKER_DEADLINE_S = 160.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same seed runs the same dict and set layouts
    env.pop("TAKAGI_DEPTH_CAP", None)  # every op runs at the default cap
    return env


def time_setup(launches: int) -> list[tuple[float, float]]:
    """(raw, rescaled) seconds from launching an interpreter until takagi_lab.cli is imported."""
    code = "import sys, takagi_lab.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(launches):
        before = probe()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise SystemExit("error: importing takagi_lab.cli failed")
        speed = (before + probe()) / 2
        times.append((elapsed, elapsed * PROBE_REF_S / speed))
    return times


def read_records(path: Path) -> tuple[list[dict], dict]:
    with path.open(encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    if not lines or "summary" not in lines[-1]:
        raise SystemExit("error: worker wrote no summary")
    return lines[:-1], lines[-1]["summary"]


def verify(ops: list[dict], records: list[dict]) -> tuple[int, list[str]]:
    """Count failed records; each distinct output of an op is checked once."""
    verdicts: dict[tuple[int, str], str | None] = {}
    brackets = {}
    for rec in records:
        if "stdout" not in rec:
            continue
        index = rec["op"]
        try:
            value = checks.check_op(ops[index], rec["stdout"])
            verdicts[index, rec["digest"]] = None
            if ops[index]["argv"][0] == "measure":
                brackets.setdefault(index, value)
        except (checks.CheckFailure, LookupError, TypeError, ValueError) as exc:
            verdicts[index, rec["digest"]] = f"{type(exc).__name__}: {exc}"
    nesting = checks.check_nesting(ops, brackets)
    failed, messages = 0, []
    for rec in records:
        index = rec["op"]
        if rec["code"] != 0:
            why = f"exit code {rec['code']}: {rec['stderr'].strip()[-300:]}"
        else:
            why = verdicts[index, rec["digest"]] or nesting.get(index)
        if why:
            failed += 1
            if len(messages) < 5:
                messages.append(f"op {index} {' '.join(ops[index]['argv'])}: {why}")
    return failed, messages


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


def fastest(records: list[dict], values: list[float]) -> list[float]:
    """Each op's smallest value over its records, in op order."""
    best: dict[int, float] = {}
    for rec, value in zip(records, values):
        best[rec["op"]] = min(value, best.get(rec["op"], value))
    return [best[i] for i in sorted(best)]


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {"wall_s": sum(latencies), "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10)[8]}


def end_to_end(untraced: list[dict], summary: dict, setup: list, failed: int,
               attempted: int) -> tuple[dict, dict]:
    """The gated metrics, and their raw counterparts for the metadata."""
    times = rescaled(untraced, summary["timer_probes"])
    metrics = {name: (value, "s") for name, value in
               latency_metrics(fastest(untraced, [t for _, t in times])).items()}
    metrics["peak_rss_mb"] = (summary["maxrss_kb"] / 1024, "MB")
    metrics["setup_s"] = (statistics.median(t for _, t in setup), "s")
    metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    raw = latency_metrics(fastest(untraced, [t for t, _ in times]))
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    return metrics, raw


def per_layer(untraced: list[dict], traced: list[dict], summary: dict) -> dict:
    units = tracing.metric_units()
    out = {name: (summary["trace"][name], unit) for name, unit in units.items()}
    passes = [sum(fastest(recs, [t for _, t in rescaled(recs, summary["timer_probes"])]))
              for recs in (untraced, traced)]
    out["trace.overhead_s"] = (passes[1] - passes[0], "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (SRC / "takagi_lab" / "cli.py").is_file():
        print(f"error: no takagi_lab sources under {SRC}", file=sys.stderr)
        return 1
    started = time.perf_counter()

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        work_dir = Path(work)
        ops, files = workloads.generate(args.workload, args.seed, str(work_dir))
        for name, text in files.items():
            (work_dir / name).write_text(text, encoding="utf-8")
        ops_path, records_path = work_dir / "ops.json", work_dir / "records.jsonl"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")

        setup_times = []
        if args.trace == 0:
            time_setup(1)  # fills the bytecode cache, which users pay once
            setup_times = time_setup(SETUP_LAUNCHES)
        try:
            worker = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(ops_path), str(records_path),
                 str(args.seconds), str(args.trace)],
                env=child_env(), cwd=ROOT,
                timeout=WORKER_DEADLINE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("error: the worker overran its deadline", file=sys.stderr)
            return 1
        if worker.returncode != 0:
            print(f"error: the worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        records, summary = read_records(records_path)
        if args.trace == 0:
            # half before and half after the worker, so one slow moment of
            # a shared host does not set the median
            setup_times += time_setup(SETUP_LAUNCHES)

    failed, messages = verify(ops, records)
    walls = summary["walls"]
    untraced = [rec for rec in records if rec["pass"] < len(walls)]
    raw = {}
    if args.trace == 0:
        metrics, raw = end_to_end(untraced, summary, setup_times, failed, len(records))
    else:
        traced = [rec for rec in records if rec["pass"] >= len(walls)]
        metrics = per_layer(untraced, traced, summary)
    meta = dict(metadata(), workload=args.workload, seed=args.seed, op_samples=len(ops),
                passes=len(walls), pass_walls=walls,
                traced_passes=len(summary.get("traced_walls", ())),
                probe_median_s=statistics.median(rec["probe"] for rec in untraced),
                raw=raw, absent=summary.get("absent", []), failures=messages)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
