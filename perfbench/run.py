"""The semiprime-lab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Load comes from this one process, one job at a time (a closed
loop, no threads): each job of a cold workload is a fresh
``python3 -m semiprime_lab.cli`` process, and ``queries`` is one warm
worker process (perfbench/serve.py).  Every job's exit code and stdout are
checked against perfbench/expected.json and the paper's answers.

--trace 0 times whole rounds until --seconds have passed and at least
MIN_JOBS jobs ran, and reports the end-to-end metrics, with every timing
at the reference speed of perfbench/calibrate.py.  --trace 1 runs one
round untraced, then the same round with the tracer installed
(perfbench/tracer.py), and reports the per-layer metrics of that round.

Human-readable lines, machine facts and per-metric quartiles come first;
the last line of stdout is the JSON result.  The exit code is 0 when every
job was correct, 1 when any was not, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
PY = sys.executable
WORKLOADS = ("search-tables", "search-branching", "lattice-verify", "queries")
SETUP_PROBES = 4  # before the jobs, and again after them
RUN_LIMIT_S = 170  # the whole run, set-up included


class RunError(Exception):
    """The run could not be made (missing sources, a hung job)."""


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_check():
    """The program must come from this checkout's src/, not from elsewhere."""
    cli = SRC / "semiprime_lab" / "cli.py"
    if not cli.is_file():
        raise RunError(f"no program sources at {cli.relative_to(ROOT)}")
    r = subprocess.run([PY, "-c", "import semiprime_lab.cli as c; print(c.__file__)"],
                       env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    if r.returncode != 0 or Path(r.stdout.strip()).resolve() != cli.resolve():
        raise RunError(f"semiprime_lab.cli does not import from src/: {r.stderr.strip()[-300:]}")


@contextlib.contextmanager
def _time_limit(deadline, what):
    """Raise RunError if the block is still running at ``deadline``."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
    try:
        yield
    except _Alarm:
        raise RunError(f"{what}: still running at the run's time limit") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_process(cmd, deadline):
    """Run one process to completion; returns (wall s, rc, max RSS kB, stdout, stderr).

    Output goes through files and the child is reaped with wait4, which
    gives its own peak RSS."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "job.stdout", "w+b") as fo, open(OUT / "job.stderr", "w+b") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=_env(), cwd=ROOT)
        try:
            with _time_limit(deadline, " ".join(cmd[-12:])):
                _, status, usage = os.wait4(proc.pid, 0)
        except RunError:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return (wall, proc.returncode, usage.ru_maxrss, fo.read().decode(),
                fe.read().decode(errors="replace"))


class Bracket:
    """Scales timed intervals to the reference speed: each interval lies
    between two runs of the process reference (see calibrate.py)."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.timeline = []  # ["ref", s] and ["interval", s], in order
        self.last = self._reference()

    def _reference(self):
        with _time_limit(self.deadline, "reference run"):
            wall = calibrate.process_s([PY])
        self.timeline.append(["ref", wall])
        return wall

    def refs(self):
        return [s for kind, s in self.timeline if kind == "ref"]

    def close(self, seconds):
        """``seconds`` of the interval that just ended, at reference speed."""
        self.timeline.append(["interval", seconds])
        before, self.last = self.last, self._reference()
        return calibrate.scaled(seconds, before, self.last)


def setup_probe(workload, deadline):
    """Seconds from a fresh interpreter to the first job being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([PY, str(HERE / "serve.py"), "probe", workload],
                            stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        with _time_limit(deadline, "set-up probe"):
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
    except RunError:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if line.strip() != b"ready" or rc != 0:
        raise RunError(f"set-up probe failed with exit code {rc}")
    return dt


def setup_samples(workload, bracket):
    """SETUP_PROBES probes: {"wall_s": at reference speed, "raw_s": as measured}."""
    samples = []
    for _ in range(SETUP_PROBES):
        raw = setup_probe(workload, bracket.deadline)
        samples.append({"wall_s": bracket.close(raw), "raw_s": raw})
    return samples


# ---- cold workloads ---------------------------------------------------------

def cold_jobs(workload, seed, seconds, trace, tiny, expected, bracket):
    deadline = bracket.deadline
    rng = random.Random(seed)
    fam = workloads.family(workload, tiny)
    done, traced, dumps = [], [], []
    start = time.perf_counter()
    while not done or (not trace and (len(done) < workloads.MIN_JOBS
                                      or time.perf_counter() - start < seconds)):
        jobs = workloads.cold_round(rng, fam)
        for job in jobs:
            raw, rc, rss, out, err = run_process([PY, "-m", "semiprime_lab.cli", *job["argv"]], deadline)
            done.append({"key": job["key"], "wall_s": bracket.close(raw), "raw_s": raw, "rss_kb": rss,
                         "digest": check.text_digest(out),
                         "error": check.cold_job(job, rc, out, err, expected)})
    if trace:
        path = OUT / "trace.json"
        for i, (job, plain) in enumerate(zip(jobs, done)):
            cmd = [PY, str(HERE / "traced_cli.py"), str(path), str(i), *job["argv"]]
            raw, rc, rss, out, err = run_process(cmd, deadline)
            wall = bracket.close(raw)
            error = check.cold_job(job, rc, out, err, expected)
            if error is None and check.text_digest(out) != plain["digest"]:
                error = "traced stdout differs from untraced"
            traced.append({"key": job["key"], "wall_s": wall, "stdout_bytes": len(out), "error": error})
            with open(path) as fh:
                dumps.append(json.load(fh))
    return done, traced, dumps


# ---- queries ----------------------------------------------------------------

def query_jobs(seed, seconds, trace, tiny, deadline):
    cmd = [PY, str(HERE / "serve.py"), "queries", str(seed), str(seconds),
           "1" if tiny else "0", "1" if trace else "0"]
    wall, rc, rss, out, err = run_process(cmd, deadline)
    if rc != 0:
        raise RunError(f"queries worker exited with {rc}: {err.strip()[-500:]}")
    served = json.loads(out.splitlines()[-1])
    # The calls are too short to bracket one by one: scale the whole pass by
    # the median of the reference runs made during it (see calibrate.py).
    scale = calibrate.NOMINAL_PROCESS_S / statistics.median(served["refs"])
    done = [{"wall_s": t * scale, "raw_s": t, "rss_kb": rss, "error": e}
            for rnd in served["rounds"] for t, e, _ in rnd]
    traced = []
    if trace:
        scale = calibrate.NOMINAL_PROCESS_S / statistics.median(served["traced_refs"])
        traced = [{"wall_s": t * scale, "error": e, "stdout_bytes": n} for t, e, n in served["traced"]]
    dumps = [served["dump"]] if trace else []
    return done, traced, dumps, [len(rnd) for rnd in served["rounds"]], served["refs"]


# ---- metrics ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        raise RunError(f"{len(xs)} jobs: too few for a percentile with ten samples beyond it")
    return xs[k], 100.0 * (k + 1) / len(xs)


def timings(setup, walls, batches):
    """Set-up and job timings.  The tail is taken in each batch of jobs and
    the median over batches is reported."""
    tails = [tail(b) for b in batches]
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(walls) / sum(walls),
        "job_ms.p50": 1000 * statistics.median(walls),
        "job_ms.tail": 1000 * statistics.median(t for t, _ in tails),
    }, tails[0][1]


def end_to_end(setup, done, round_sizes, refs, per_round_tail):
    """Timings at reference speed; the same figures as measured go to the
    report, with the reference times.  A queries round (the whole pool) has
    enough calls for a tail of its own, and the median over rounds keeps
    one stall of the machine from setting the run's tail; a cold run is
    one batch."""
    bounds = [0]
    for n in round_sizes:
        bounds.append(bounds[-1] + n)
    rounds = [done[a:b] for a, b in zip(bounds, bounds[1:])]
    batches = rounds if per_round_tail else [done]
    walls = [j["wall_s"] for j in done]
    metrics, pct = timings([s["wall_s"] for s in setup], walls,
                           [[j["wall_s"] for j in b] for b in batches])
    metrics["peak_rss_mb"] = max(j["rss_kb"] for j in done) / 1024
    notes = {
        "job_ms.tail": f"p{pct:.1f} of {len(batches[0])} jobs, median of {len(batches)} batch(es)",
        "failed_frac": sum(j["error"] is not None for j in done) / len(done),
        "as_measured": timings([s["raw_s"] for s in setup], [j["raw_s"] for j in done],
                               [[j["raw_s"] for j in b] for b in batches])[0],
        "quartiles": {
            "reference_s": quartiles(refs),
            "setup_s": quartiles([s["wall_s"] for s in setup]),
            "jobs_per_s (per round)": quartiles([len(r) / sum(j["wall_s"] for j in r) for r in rounds]),
            "job_ms": [1000 * x for x in quartiles(walls)],
            "rss_mb (per job)": [x / 1024 for x in quartiles([j["rss_kb"] for j in done])],
        },
    }
    return metrics, notes


def per_layer(done, traced, dumps):
    merged = tracer.merge(dumps)
    stdout_bytes = sum(j.get("stdout_bytes", 0) for j in traced)
    metrics = tracer.layer_metrics(merged, stdout_bytes)
    metrics["trace.untraced_jobs_per_s"] = len(traced) / sum(j["wall_s"] for j in done[:len(traced)])
    metrics["trace.traced_jobs_per_s"] = len(traced) / sum(j["wall_s"] for j in traced)
    return metrics


def write_spans(name, dumps):
    with open(OUT / f"spans-{name}.jsonl", "w") as fh:
        for job, span, t0, t1, parent in (s for d in dumps for s in d["spans"]):
            fh.write(json.dumps({"job": job, "name": span, "start": t0, "end": t1,
                                 "parent": parent}) + "\n")


def facts(start, load_before):
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "semiprime_lab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "run_s": time.monotonic() - start,
        "peak_rss_note": "ru_maxrss of the job processes only (wait4)",
    }


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result dict for the last line, report dict)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    load_before = os.getloadavg()
    source_check()
    OUT.mkdir(exist_ok=True)
    expected = check.load_expected()
    setup_probe(workload, deadline)  # untimed: leaves the bytecode caches written
    bracket = Bracket(deadline)
    setup = [] if trace else setup_samples(workload, bracket)
    if workload == "queries":
        done, traced, dumps, round_sizes, refs = query_jobs(seed, seconds, trace, tiny, deadline)
    else:
        done, traced, dumps = cold_jobs(workload, seed, seconds, trace, tiny, expected, bracket)
        refs = bracket.refs()
        per_round = len(workloads.family(workload, tiny))
        round_sizes = [per_round] * (len(done) // per_round)
    if not trace:
        setup += setup_samples(workload, Bracket(deadline))
    attempted = done + traced
    failures = [j["error"] for j in attempted if j["error"] is not None]
    report = {"workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
              "failures": failures[:20]}
    if trace:
        metrics = per_layer(done, traced, dumps)
        write_spans(f"{workload}-seed{seed}", dumps)
    else:
        metrics, notes = end_to_end(setup, done, round_sizes, refs, workload == "queries")
        report.update(notes)
        report["timeline"] = bracket.timeline
    report["facts"] = facts(start, load_before)
    result = {"correct": not failures, "attempted": len(attempted), "failed": len(failures),
              "metrics": metrics}
    return result, report


def with_units(metrics, named):
    """The metrics named in BENCHMARK.json, in its order, with their units."""
    missing = [m["name"] for m in named if m["name"] not in metrics]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in named}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            named = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        result["metrics"] = with_units(result["metrics"], named)
    except (RunError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':48s} {report['failed_frac']:.6g} share")
        print(f"job_ms.tail is {report['job_ms.tail']}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print("report " + json.dumps({k: v for k, v in report.items() if k not in ("failures", "timeline")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
