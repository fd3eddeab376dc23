"""Record the expected exit code and stdout digest of every job.

    python3 perfbench/record.py

Runs each cold job once (full and tiny families) and each query of the
pool once, checks the paper's answers, and rewrites perfbench/expected.json.
Rerun it only in a change that means to alter the program's output.
"""

import json
import subprocess
import sys
import time

import check
import serve
import workloads
from run import PY, ROOT, _env


def record_cold():
    cold = {}
    for fam in [*workloads.COLD.values(), *workloads.TINY.values()]:
        for cmd, opts, paper in fam:
            argv = workloads.key(cmd, opts).split()
            t0 = time.perf_counter()
            r = subprocess.run([PY, "-m", "semiprime_lab.cli", *argv], env=_env(), cwd=ROOT,
                               capture_output=True, text=True)
            wrong = check.paper_answer(paper, r.stdout, argv) if r.returncode == 0 else r.stderr
            print(f"{time.perf_counter() - t0:7.2f}s rc={r.returncode} {' '.join(argv)}"
                  + (f"  PAPER CHECK FAILED: {wrong}" if wrong else ""), flush=True)
            if wrong:
                raise SystemExit(1)
            cold[workloads.key(cmd, opts)] = {"rc": r.returncode, "digest": check.text_digest(r.stdout)}
    return cold


def record_queries():
    sys.path.insert(0, str(ROOT / "src"))
    rings = serve.build_rings()
    entries = workloads.pool()
    digests = [check.text_digest(serve.answer(rings, e)) for e in entries]
    return {"pool_sha256": workloads.pool_digest(entries), "digests": digests}


def main():
    expected = {"cold": record_cold(), "queries": record_queries()}
    with open(check.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print(f"wrote {check.EXPECTED.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
