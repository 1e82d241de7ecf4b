"""One workload run in a fresh, single-threaded interpreter.

Usage: worker.py OPS_JSON RECORDS_JSONL SECONDS TRACE

Runs every op of OPS_JSON through ``takagi_lab.cli.run`` in passes,
at least one, until the next pass would overrun SECONDS.  An op that
takes over an eighth of SECONDS runs in the first pass only, so that
the other ops fit in more passes.  With TRACE=1
the time is split: untraced passes first, then passes with the
per-layer wrappers installed.  Each op appends one JSON line to
RECORDS_JSONL: pass, op index, exit code, latency, output digest, and
the output text the first time that digest is seen for the op, and the
time of the CPU probe run right before the op (see ``probe.py``).  The
last line is a summary with pass wall times, peak RSS, trace figures and
the timer probes taken inside ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from takagi_lab import cli

from probe import TimerProbe, probe
from tracing import Tracer


def run_passes(ops, log, seconds: float, first_pass: int, sent: set) -> list[float]:
    walls: list[float] = []
    once: set[int] = set()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        dropped = 0.0  # time of ops that will not run again
        for index, op in enumerate(ops):
            if index in once:
                continue
            out, err = io.StringIO(), io.StringIO()
            probe_s = probe()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(op["argv"])
            except Exception:  # an escaped exception is a failed op, not a failed run
                code = None
                err.write(traceback.format_exc())
            latency = time.perf_counter() - t0
            if latency > seconds / 8:
                once.add(index)
                dropped += latency
            text = out.getvalue()
            digest = hashlib.sha256(text.encode()).hexdigest()
            record = {"pass": first_pass + len(walls), "op": index, "code": code,
                      "start": t0, "seconds": latency, "probe": probe_s, "digest": digest,
                      "stderr": err.getvalue()}
            if (index, digest) not in sent:
                sent.add((index, digest))
                record["stdout"] = text
            log.write(json.dumps(record) + "\n")
        walls.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + walls[-1] - dropped > seconds:
            return walls


def main(ops_path: str, records_path: str, seconds: str, trace: str) -> None:
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    budget = float(seconds)
    traced = trace == "1"
    sent: set = set()
    summary: dict = {}
    with open(records_path, "w", encoding="utf-8") as log, TimerProbe() as timer:
        walls = run_passes(ops, log, budget / 2 if traced else budget, 0, sent)
        summary["walls"] = walls
        summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if traced:
            tracer = Tracer()
            tracer.install()
            traced_walls = run_passes(ops, log, budget / 2, len(walls), sent)
            summary["traced_walls"] = traced_walls
            summary["trace"] = tracer.metrics(len(traced_walls))
            summary["absent"] = tracer.absent
        summary["timer_probes"] = timer.samples
        log.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
