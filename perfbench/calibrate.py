"""Timings at a fixed reference speed.

The speed of a shared machine drifts.  On the 2-core machine the benchmark
was built on, the same job ran up to 50% slower for stretches of tens of
seconds to many minutes, and the run-to-run spread of the timings as
measured was 0.2-0.35 (interquartile range over median): too wide for any
bound a regression check can use.  So timings are reported as the time
they would take at a fixed reference speed, measured with a reference
workload that does the kind of work the program does (tuple hashing, dict
updates) and never imports it, so that a change to the program cannot move
it.  The figures as measured are reported beside the scaled ones.

- A cold job or a set-up probe is a fresh interpreter, so it is bracketed
  by two runs of PROCESS_CODE in fresh interpreters, and scaled by
  NOMINAL_PROCESS_S / (mean of the two).  Each reference run is the "after"
  of one interval and the "before" of the next.  Over five minutes of
  alternating references and cold jobs this cut the spread of eight-job
  blocks from 0.22 to 0.04.
- The warm ``queries`` worker runs the same reference, in a fresh
  interpreter, before every BLOCK calls and once at the end, and all its
  calls are scaled by NOMINAL_PROCESS_S / (median of those runs).  One
  factor for the whole pass keeps the order of the latencies, so the tail
  is not picked from blocks whose reference happened to run fast.  (An
  in-process loop was tried first; its times were bimodal within one run,
  3.0 or 5.2 ms, and it made the spread worse.)
"""

import subprocess
import time

NOMINAL_PROCESS_S = 0.1

PROCESS_CODE = """\
d = {}
for i in range(40000):
    k = (i % 97, (i * 7) % 13, i % 5)
    d[k] = d.get(k, 0) + sum(k)
    d[tuple(x * 3 % 11 for x in k)] = i
"""


def process_s(cmd_prefix):
    """Seconds for one run of PROCESS_CODE in a fresh interpreter, started
    with ``cmd_prefix`` (the interpreter) and reaped before returning."""
    t0 = time.perf_counter()
    subprocess.run([*cmd_prefix, "-c", PROCESS_CODE], check=True)
    return time.perf_counter() - t0


def scaled(seconds, ref_before, ref_after):
    """``seconds`` at the reference speed, between two reference runs."""
    return seconds * 2 * NOMINAL_PROCESS_S / (ref_before + ref_after)
