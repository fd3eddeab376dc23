"""Run one CLI job in a fresh interpreter with the tracer installed.

    python3 perfbench/traced_cli.py <trace-file> <job-id> <cli args...>

Behaves like ``python3 -m semiprime_lab.cli <cli args...>`` (same stdout,
stderr and exit code) and writes the trace to <trace-file>, even when the
job raises.
"""

import json
import sys

from tracer import Tracer


def main():
    path, job, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.job = job
    from semiprime_lab import cli

    try:
        return cli.main(argv)
    finally:
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
