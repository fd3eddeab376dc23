"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_emits_every_named_metric(workload, trace):
    result, report = run.run_workload(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= (2 if trace else workloads.MIN_JOBS)
    named = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.with_units(result["metrics"], named)
    assert [m["name"] for m in named] == list(metrics)
    for m in named:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float | int)
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())


def test_wrong_expected_digest_counts_as_failure(monkeypatch):
    expected = copy.deepcopy(check.load_expected())
    cmd, opts, _ = workloads.TINY["search-tables"][0]
    expected["cold"][workloads.key(cmd, opts)]["digest"] = "0" * 16
    monkeypatch.setattr(check, "load_expected", lambda: expected)
    result, report = run.run_workload("search-tables", seed=3, seconds=0, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2  # one of the two jobs in every round
    assert all("digest" in f for f in report["failures"])


def test_paper_answer_rejects_a_wrong_operation_count():
    stdout = json.dumps({"operations": [{"is_identity": True}, {"is_identity": False}]})
    assert check.paper_answer("identity_only", stdout, []) is not None


def test_traced_stdout_matches_untraced():
    deadline = run.time.monotonic() + 120
    path = run.OUT / "trace-selftest.json"
    for cmd, opts, _ in workloads.TINY["lattice-verify"] + workloads.TINY["search-branching"]:
        argv = workloads.key(cmd, opts).split()
        plain = run.run_process([run.PY, "-m", "semiprime_lab.cli", *argv], deadline)
        traced = run.run_process([run.PY, str(HERE / "traced_cli.py"), str(path), "0", *argv], deadline)
        assert plain[1] == traced[1] == 0
        assert check.text_digest(plain[3]) == check.text_digest(traced[3])
        dump = json.loads(path.read_text())
        assert dump["recs"]["cli.main"][0] == 1
