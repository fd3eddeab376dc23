"""Correctness of each job: the recorded exit code and stdout digest, plus
the paper's answers where a job has one."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"

# stderr of a job that failed in a way the exit code may not show
FAILURE_MARKERS = ("Traceback", "BudgetExceeded", "InfeasibleEnumeration")


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fc_345(out, argv):
    """Some operation equals fc_345 on the window: it moves exactly the
    non-principal ideals other than the order filter, each to the order
    filter (t^n, t^n+1, t^n+2) of its order n.  Over F_q each order n >= 3
    has q^2 + q such ideals (RREF windows of dimension 2), and every order
    3..max_order lies in <3,4,5>."""
    q = int(argv[argv.index("--p") + 1])
    top = int(argv[argv.index("--max-order") + 1])
    want = (q * q + q) * (top - 2)
    for op in out["operations"]:
        entries = op["non_identity_entries"]
        if len(entries) != want:
            continue
        ok = True
        for e in entries:
            m = re.match(r"\(t\^(\d+)[+,]", e["input"])
            n = int(m.group(1)) if m else -1
            if "," not in e["input"] or e["output"] != f"(t^{n}, t^{n + 1}, t^{n + 2})":
                ok = False
                break
        if ok:
            return True
    return False


def paper_answer(check, stdout, argv):
    """None if the job's output agrees with the paper, else the reason."""
    if check is None:
        return None
    out = json.loads(stdout)
    if check == "identity_only":
        ops = out["operations"]
        if len(ops) == 1 and ops[0]["is_identity"]:
            return None
        return "expected the identity as the only prime operation"
    if check == "fc_345":
        if _fc_345(out, argv):
            return None
        return "no operation equals fc_345 on the window"
    if check == "certified":
        if out["outcome"] == "certified_identity_only" and out["verified"]:
            return None
        return "expected certified_identity_only on the DVR chain"
    if check in ("verify_pass", "verify_fail"):
        if out["passed"] == (check == "verify_pass"):
            return None
        return f"expected passed={check == 'verify_pass'}"
    raise ValueError(f"unknown check {check!r}")


def cold_job(job, rc, stdout, stderr, expected):
    """None if the job is correct, else the reason."""
    want = expected["cold"].get(job["key"])
    if want is None:
        return "no recorded output for this job"
    marker = next((m for m in FAILURE_MARKERS if m in stderr), None)
    if marker:
        return f"{marker} on stderr"
    if rc != want["rc"]:
        return f"exit code {rc}, recorded {want['rc']}"
    if text_digest(stdout) != want["digest"]:
        return "stdout digest differs from the recorded one"
    try:
        return paper_answer(job["check"], stdout, job["argv"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
