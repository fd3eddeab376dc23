"""One warm process serving the ``queries`` workload, and the set-up probe.

    python3 perfbench/serve.py probe <workload>
        import semiprime_lab.cli (and, for queries, build the rings), print
        "ready" and exit: the set-up every CLI call pays.
    python3 perfbench/serve.py queries <seed> <seconds> <tiny> <trace>
        serve the seeded call stream in a closed loop, one call at a time,
        and print one JSON summary.

Needs ``PYTHONPATH`` to point at the source tree.  The module imports the
program only inside functions, so the probe measures the program's own
import.
"""

from __future__ import annotations

import sys

RING_GENS = ((2, 5), (2, 7), (2, 9), (3, 4, 5))
PRIMES = (2, 3, 5, 7, 97)
BLOCK = 600  # calls between two runs of the reference


def build_rings():
    from semiprime_lab.ideals import Ring
    from semiprime_lab.semigroup import from_generators
    from semiprime_lab.series import PrimeField

    return {(g, p): Ring(from_generators(g), PrimeField(p)) for g in RING_GENS for p in PRIMES}


def probe(workload):
    import semiprime_lab.cli  # noqa: F401

    if workload == "queries":
        build_rings()
    print("ready", flush=True)


def answer(rings, entry):
    """Output text of one pool entry; exceptions propagate to the caller."""
    import contextlib
    import io

    from semiprime_lab import cli, ideals

    if entry[0] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(entry[1]))
        return f"{rc}\n{out.getvalue()}"
    _, fn, gens, p, first, second = entry
    ring = rings[(tuple(gens), p)]

    def ideal(texts):
        return ideals.ideal_from_generators(ring, [ring.parse(t) for t in texts])

    I = ideal(first)
    if fn == "min_generators":
        return str(ideals.min_generators(I))
    result = getattr(ideals, fn)(I, ideal(second))
    if isinstance(result, bool):
        return str(result)
    return f"{result.kind}|{result.order}|{result.window}"


def _serve_round(rings, entries, order, digests, refs):
    """[latency s, error or None, output bytes] for each call, in order.
    Runs the reference (see calibrate.py) before every BLOCK calls and
    appends its times to ``refs``."""
    import time

    from calibrate import process_s
    from check import text_digest

    calls = []
    for n, i in enumerate(order):
        if n % BLOCK == 0:
            refs.append(process_s([sys.executable]))
        t0 = time.perf_counter()
        try:
            text = answer(rings, entries[i])
        except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
            calls.append([time.perf_counter() - t0, f"pool[{i}]: {type(exc).__name__}: {exc}", 0])
            continue
        dt = time.perf_counter() - t0
        error = None
        if text_digest(text) != digests[i]:
            error = f"pool[{i}]: output digest differs from the recorded one"
        calls.append([dt, error, len(text.encode())])
    return calls


def serve(seed, seconds, tiny, trace):
    """Untraced: whole rounds until ``seconds`` have passed.  Traced: one
    untraced round, then the same round again with the tracer installed."""
    import json
    import random
    import time

    import workloads
    from calibrate import process_s
    from check import load_expected

    rings = build_rings()
    entries = workloads.pool(tiny)
    expected = load_expected()["queries"]
    if workloads.pool_digest(workloads.pool()) != expected["pool_sha256"]:
        raise SystemExit("the query pool differs from the recorded one; rerun perfbench/record.py")
    rng = random.Random(seed)
    rounds, refs = [], []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        order = workloads.query_round(rng, len(entries))
        rounds.append(_serve_round(rings, entries, order, expected["digests"], refs))
    refs.append(process_s([sys.executable]))
    served = {"rounds": rounds, "refs": refs}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        served["traced_refs"] = []
        served["traced"] = _serve_round(rings, entries, order, expected["digests"], served["traced_refs"])
        served["traced_refs"].append(process_s([sys.executable]))
        served["dump"] = tracer.dump()
    print(json.dumps(served))


def main(argv):
    if argv[0] == "probe":
        probe(argv[1])
    else:
        _, seed, seconds, tiny, trace = argv
        serve(int(seed), float(seconds), tiny == "1", trace == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
