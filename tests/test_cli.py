import argparse
import hashlib
import json
import tracemalloc

import pytest

from semiprime_lab.cli import _axiom_set, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    return payload


def test_semigroup_json(capsys):
    payload = run_json(capsys, "semigroup", "--gens", "2,5")
    assert payload["generators"] == [2, 5]
    assert payload["gaps"] == [1, 3]
    assert payload["frobenius"] == 3
    assert payload["conductor"] == 4


def test_semigroup_not_coprime_exit_code(capsys):
    code, out, err = run(capsys, "semigroup", "--gens", "2,4")
    assert code == 1
    assert "NotCoprime" in err


def test_oversized_enumeration_keeps_its_guard_line(capsys):
    # The estimate counts every RREF matrix on the support mask (pivot
    # pattern x free entries), so this window is refused before any work.
    code, out, err = run(capsys, "search", "--gens", "3,7", "--p", "2", "--max-order", "14")
    assert code == 1
    assert out == ""
    assert err == "InfeasibleEnumeration: 1455580435096 candidate matrices exceed budget 2000000\n"


@pytest.mark.parametrize("argv, line", [
    (("ideals", "enumerate", "--gens", "2,5", "--p", "2", "--max-order", "100000000"),
     "InfeasibleEnumeration: 5099999858 candidate matrices exceed budget 2000000"),
    (("ideals", "enumerate", "--gens", "1", "--p", "2", "--max-order", "3000000", "--json"),
     "InfeasibleEnumeration: 3000000 candidate matrices exceed budget 2000000"),
    (("demo-fractional", "--dvr", "--D", "20000", "--candidate", "identity"),
     "BudgetExceeded: search window of 40001 elements has 800060001 pairs, "
     "more than the budget of 5000000 nodes"),
    (("lattice", "--gens", "1", "--p", "2", "--max-order", "100000"),
     "BudgetExceeded: lattice of 100001 elements has 5000150001 pairs, "
     "more than the budget of 5000000 nodes"),
    (("verify", "--op", "identity", "--gens", "1", "--p", "2", "--max-order", "20000"),
     "BudgetExceeded: verify window of 20002 elements has 200050003 pairs, "
     "more than the budget of 5000000 nodes"),
], ids=["enumerate_2_5", "enumerate_dvr", "demo_fractional_identity", "lattice", "verify"])
def test_oversized_window_ends_with_one_line(capsys, argv, line):
    # each is refused before its per-order lists, its all-pairs loop, its
    # containment rows or its pair axioms
    assert run(capsys, *argv) == (1, "", line + "\n")


def test_canon_text_output(capsys):
    code, out, _ = run(capsys, "canon", "--gens", "2,5", "--p", "2",
                       "--elem", "t^4+t^5+t^6+t^7")
    assert code == 0
    assert "(t^4+t^5)" in out
    assert "PRINCIPAL(4; 1, 0)" in out


def test_canon_unit_input_is_domain_error(capsys):
    code, out, err = run(capsys, "canon", "--gens", "2,5", "--p", "2", "--elem", "1+t^2")
    assert code == 1
    assert "UnitInput" in err


def test_ideals_enumerate_json(capsys):
    payload = run_json(capsys, "ideals", "enumerate", "--gens", "2,5", "--p", "2",
                       "--max-order", "2", "--json")
    assert payload["count"] == 4
    labels = [rec["label"] for rec in payload["ideals"]]
    assert labels == ["R", "(t^2)", "(t^2, t^5)", "(t^2+t^5)"]


def test_ideals_classify_json(capsys):
    payload = run_json(capsys, "ideals", "classify", "--gens", "2,5", "--p", "2",
                       "--ideal", "t^4+t^5, t^7", "--json")
    assert payload["shape"] == "TWO_GEN_A(4; 1)"
    assert payload["min_generators"] == 2


def test_lattice_deterministic_and_file_output(tmp_path, capsys):
    code, first, _ = run(capsys, "lattice", "--gens", "2,5", "--p", "2", "--max-order", "5")
    assert code == 0 and first.startswith("digraph")
    out_file = tmp_path / "lat.dot"
    code, _, _ = run(capsys, "lattice", "--gens", "2,5", "--p", "2", "--max-order", "5",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == first


def test_lattice_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "lat.dot"
    code, out, err = run(capsys, "lattice", "--gens", "2,5", "--p", "2", "--max-order", "4",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"semiprime-lab: error: cannot write --out {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("argv, elements", [
    ("lattice --gens 2,5 --p 2 --max-order 6", 25),
    ("verify --op identity --gens 2,5 --p 2 --max-order 6", 26),
], ids=["lattice", "verify"])
def test_window_with_as_many_pairs_as_the_budget_is_served(capsys, monkeypatch, argv,
                                                            elements):
    pairs = elements * (elements + 1) // 2
    monkeypatch.setenv("SEMIPRIME_LAB_BUDGET", str(pairs))
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "") and out
    monkeypatch.setenv("SEMIPRIME_LAB_BUDGET", str(pairs - 1))
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.endswith(f"of {elements} elements has {pairs} pairs, "
                        f"more than the budget of {pairs - 1} nodes\n")


def test_verify_fc_345(capsys):
    payload = run_json(capsys, "verify", "--op", "fc_345", "--gens", "3,4,5", "--p", "2",
                       "--max-order", "5", "--axioms", "1-5", "--expect-pass")
    assert payload["passed"] is True
    assert payload["axioms"]["4"]["skipped"] == 0


@pytest.mark.parametrize("argv, digest", [
    ("verify --op integral_closure --gens 2,5 --p 2 --max-order 8",
     "24f76623473612069d90920c1fa1316158604297b54e574eabfa9ba2a636c139"),
    ("verify --op dvr_g_m --m 1 --gens 1 --p 2 --max-order 5",
     "1b932381c0f446ba598f0bd598328ac08e1421283538719ca7b2f20b3ec541da"),
    ("verify --op fc_345 --gens 3,4,5 --p 2 --max-order 6 --no-include-zero",
     "4c72d4194c6aeaf67d5ec9f8346974db18c940ae628703e25f30975ac75f95d5"),
], ids=["integral_closure", "dvr_g_m", "fc_345"])
def test_verify_stdout_pinned(capsys, argv, digest):
    # every instance count, witness, cited value and detail string is pinned
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_axiom_range_is_bounded_before_it_is_expanded():
    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError):
            _axiom_set("1-1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_reversed_axiom_range_is_refused():
    with pytest.raises(argparse.ArgumentTypeError, match="within 1..8"):
        _axiom_set("1,5-2")
    assert _axiom_set("2-2,1") == [1, 2]


def test_verify_expect_pass_failure(capsys):
    code, out, _ = run(capsys, "verify", "--op", "integral_closure", "--gens", "2,5",
                       "--p", "2", "--max-order", "6", "--axioms", "5", "--expect-pass")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["axioms"]["5"]["witnesses"]


def test_search_expect_identity_only(capsys):
    code, out, _ = run(capsys, "search", "--gens", "2,5", "--p", "2", "--max-order", "8",
                       "--margin", "2", "--json", "--expect-identity-only")
    assert code == 0
    assert json.loads(out)["operation_count"] == 1


def test_search_345_not_identity_only(capsys):
    code, out, _ = run(capsys, "search", "--gens", "3,4,5", "--p", "2", "--max-order", "7",
                       "--margin", "2", "--json", "--expect-identity-only")
    assert code == 1
    assert json.loads(out)["operation_count"] >= 2


def test_demo_fractional_dvr(capsys):
    payload = run_json(capsys, "demo-fractional", "--dvr", "--D", "6",
                       "--candidate", "bounded:m=2")
    assert payload["outcome"] == "witness"
    assert payload["verified"] is True
    assert payload["witness"]["j"] == -1


def test_demo_fractional_element_chain(capsys):
    payload = run_json(capsys, "demo-fractional", "--gens", "2,5", "--p", "2",
                       "--s", "t^2", "--D", "5", "--candidate", "bounded:m=1")
    assert payload["outcome"] == "witness"
    assert payload["chain"]["kind"] == "element"


@pytest.mark.parametrize("argv, digest", [
    ("--dvr --D 5 --candidate identity",
     "c5a3a6fcdd2a722cedf7536b5cf38db6821bd80fb9b9fca4bb5dc622444fb7a5"),
    ("--dvr --D 6 --candidate identity",
     "7859c47df21bef7ec65f3e8b07ed3838ea11e1097deab512abdb0b5a71236cdd"),
    ("--dvr --D 6 --candidate bounded:m=2",
     "e416ecd75f3c2f5c6eb0c3ee6a1fdc2cb393b3abe74ab12e28fc4783c2aec0fb"),
    ("--dvr --D 5 --candidate enlarge:i=-2",
     "adc48e299ab11ee3e7b5392e12ffef50829d6a1879f3f74b5b090dfa3f5ed4d0"),
    ("--gens 2,5 --s t^2 --D 5 --candidate bounded:m=1",
     "b6161b49aaac54f1060b32993fe938b7de7ec0406d50e71da92587584811fd5a"),
    ("--gens 2,5 --s t^2 --D 3 --candidate identity",
     "9f0c30c381f310e782097e0b7578a16cf045513332161b0244424cc45750be6c"),
], ids=["dvr_5_identity", "dvr_6_identity", "dvr_6_bounded", "dvr_5_enlarge",
        "element_5_bounded", "element_3_identity"])
def test_demo_fractional_stdout_pinned(capsys, argv, digest):
    # the chain kind, the witness indices and the R / P^i / s^iR labels are pinned
    code, out, err = run(capsys, "demo-fractional", *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, env, message", [
    ("0", None, "--budget must be at least 1, got 0"),
    ("-1", None, "--budget must be at least 1, got -1"),
    (None, "0", "SEMIPRIME_LAB_BUDGET must be at least 1, got 0"),
    (None, "-1", "SEMIPRIME_LAB_BUDGET must be at least 1, got -1"),
])
def test_budget_below_one_is_a_usage_error(capsys, monkeypatch, flag, env, message):
    argv = ["search", "--gens", "2,5", "--p", "2", "--max-order", "4"]
    if flag is not None:
        argv += ["--budget", flag]
    if env is not None:
        monkeypatch.setenv("SEMIPRIME_LAB_BUDGET", env)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"semiprime-lab: error: {message}\n")


def test_budget_flag_wins_over_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("SEMIPRIME_LAB_BUDGET", "0")
    payload = run_json(capsys, "search", "--gens", "2,5", "--p", "2", "--max-order", "4",
                       "--budget", "1000")
    assert payload["operation_count"] == 1


def test_huge_exponent_is_refused_before_allocating(capsys):
    # a dense coefficient vector up to t^99999999 would take gigabytes
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "canon", "--gens", "2,5", "--p", "2",
                             "--elem", "t^2+t^99999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert (code, out) == (2, "")
    assert err == ("semiprime-lab: error: exponent 99999999 in 't^2+t^99999999' "
                   "exceeds the limit 100000\n")


def test_exponent_at_the_limit_is_accepted(capsys):
    code, out, err = run(capsys, "canon", "--gens", "2,5", "--p", "2", "--elem", "t^2+t^100000")
    assert (code, err) == (0, "")
    assert out.startswith("(t^2)")


def test_search_window_past_the_budget_ends_with_one_line(capsys, monkeypatch):
    # 4,002 elements hold 8,010,003 pairs, more than the default 5M-node budget
    monkeypatch.delenv("SEMIPRIME_LAB_BUDGET", raising=False)
    code, out, err = run(capsys, "search", "--gens", "1", "--p", "2", "--mode", "semiprime",
                         "--max-order", "4000")
    assert (code, out) == (1, "")
    assert err == ("BudgetExceeded: search window of 4002 elements has 8010003 pairs, "
                   "more than the budget of 5000000 nodes\n")


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEMIPRIME_LAB_BUDGET", "10")
    code, out, err = run(capsys, "search", "--gens", "2,5", "--p", "2",
                         "--max-order", "6", "--json")
    assert code == 1
    assert "BudgetExceeded" in err


@pytest.mark.parametrize("argv, count, stats", [
    ("search --gens 3,4,5 --p 2 --max-order 7 --margin 1", 3,
     {"nodes": 1008, "window_candidates": 88, "extension_discarded": 85,
      "skipped_product_instances": 1353}),
    ("search --gens 1 --p 2 --mode semiprime --max-order 4", 10,
     {"nodes": 51, "window_candidates": 10, "extension_discarded": 0,
      "skipped_product_instances": 6}),
    ("search --gens 2,5 --p 2 --max-order 8 --margin 2", 1,
     {"nodes": 64, "window_candidates": 1, "extension_discarded": 0,
      "skipped_product_instances": 644}),
    ("search --gens 2,9 --p 2 --max-order 12 --margin 4", 1,
     {"nodes": 1172, "window_candidates": 1, "extension_discarded": 0,
      "skipped_product_instances": 15469}),
])
def test_search_stats_pinned(capsys, argv, count, stats):
    # node counts depend on the seeds and the branching order.  The <2,9>
    # window holds only the identity, so its order-16 extension window,
    # which the enumeration guard would refuse, is never built.
    payload = run_json(capsys, *argv.split())
    assert payload["operation_count"] == count
    assert payload["stats"] == stats


@pytest.mark.parametrize("argv, budget", [
    ("canon --gens 2,5 --p 4 --elem t^2", None),
    ("canon --gens 2,5 --p 2 --elem t^^3", None),
    ("search --gens 2,5 --p 2 --max-order 4", "abc"),
    ("demo-fractional --gens 2,5 --s 1+t^2 --D 3 --candidate identity", None),
    ("demo-fractional --dvr --D 0 --candidate identity", None),
    ("demo-fractional --dvr --D 100001 --candidate identity", None),
    ("verify --op dvr_f_m --gens 1 --p 2 --max-order 3", None),
    ("demo-fractional --dvr --p 0 --D 3 --candidate identity", None),
    ("ideals classify --gens 2,5 --p 2", None),
    ("demo-fractional --D 3 --candidate identity", None),
    ("demo-fractional --dvr --D 3 --candidate foo:x=1", None),
    ("demo-fractional --dvr --D 3 --candidate bounded:m=x", None),
    ("demo-fractional --dvr --D 3 --candidate bounded:foo", None),
    ("ideals enumerate --gens 2,5 --p 2 --max-order -1", None),
    ("lattice --gens 2,5 --p 2 --max-order -1", None),
    ("verify --op identity --gens 2,5 --p 2 --max-order -2", None),
    ("search --gens 2,5 --p 2 --max-order -3", None),
])
def test_user_input_error_is_one_line(capsys, monkeypatch, argv, budget):
    if budget is not None:
        monkeypatch.setenv("SEMIPRIME_LAB_BUDGET", budget)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("semiprime-lab: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "ideals enumerate --gens 2,5 --p 2 --max-order 0",
    "lattice --gens 2,5 --p 2 --max-order 0",
    "verify --op identity --gens 2,5 --p 2 --max-order 0",
    "search --gens 2,5 --p 2 --max-order 0",
])
def test_order_zero_is_valid(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0
    assert out and err == ""


def test_negative_margin_is_rejected(capsys):
    code, out, err = run(capsys, "search", "--gens", "2,5", "--p", "2", "--max-order", "6",
                         "--margin", "-3")
    assert code == 2
    assert out == ""
    assert err == "semiprime-lab: error: margin must be >= 0\n"


@pytest.mark.parametrize("argv, out_digest, err_digest", [
    ("search --gens 3,4,5 --p 2 --max-order 7 --margin 1 --explain",
     "1f68b4cf818c3888a9504faeb24c1658f439893b62a737ee83c65b9f3feef803",
     "7db3171f2571651153974da370fdb65f41bfc8b433e311511121a3f579666a1b"),
    ("search --gens 1 --p 2 --mode semiprime --max-order 8 --explain",
     "6d5159da8eb8a3060f8dac962b92b600ba10d03c8e6a80a7c2987cbeffe1fe6c",
     "f1dbbcfcdcf014dd829727f44896aa8f8289d70915c33300a6d927ac84159cf3"),
    ("search --gens 2,5 --p 3 --max-order 6 --margin 2 --explain",
     "bd583491dceaae9ce98a0a34af2f56ad589c76b28abbc7c7fd43dddf77215667",
     "cfc30893eba1e935207440c0a63a209d666883a0fd370867ed57891df4764670"),
    ("search --gens 2,5 --p 3 --max-order 6 --margin 0 --explain",
     "7a2d1070740c6d187a1ecc6a192f755f7818ce378fcb00f22dbdebe5b0529efd",
     "4aaeb6ffa7f0d43ebc074821a1f57ebfe29b8b778328a2f896f67d8067464875"),
    ("search --gens 2,7 --p 2 --max-order 12 --margin 0 --explain",
     "daede36b6687bbbb0ac9b3c30faa144eef529f44598300ccc4b23003e79ccda5",
     "b321d0e443a1266d04f1ff6197465bb2bfa44265349ec656da9681e2322c7f7b"),
    ("search --gens 2,7 --p 2 --max-order 12 --margin 4 --explain",
     "0393fe28c170e9ea8d31e6fb871625ab033c22f4a922e1935bd83f812785e5da",
     "b321d0e443a1266d04f1ff6197465bb2bfa44265349ec656da9681e2322c7f7b"),
], ids=["fc_345", "dvr_semiprime", "2_5_f3", "2_5_f3_margin0", "2_7_f2_margin0",
        "2_7_f2_margin4"])
def test_search_explain_pinned(capsys, argv, out_digest, err_digest):
    # prune counts and the order of the first eliminations are pinned
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest
