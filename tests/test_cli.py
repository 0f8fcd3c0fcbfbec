import json

import pytest

from ellnmds import cli, geometry
from ellnmds.cli import main
from ellnmds.curve import EllipticCurve, curve_make
from ellnmds.errors import Budget
from ellnmds.geometry import proj_space_size
from ellnmds.gf import field_of_order
from test_cli_goldens import _load_goldens, run_normalized


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nq1_json(capsys):
    code, out, err = run_cli(capsys, "nq1", "--q", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 13 and doc["nq1"] == 21
    assert doc["tool"]["name"] == "ellnmds"


def test_nq1_rejects_non_prime_power(capsys):
    code, out, err = run_cli(capsys, "nq1", "--q", "12")
    assert code == 1
    assert "NotPrimePower" in err


def test_classify_curve(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k"], doc["d"]) == (6, 3, 3)
    assert doc["label"] == "NMDS"
    assert (doc["s"], doc["sDual"]) == (1, 1)
    assert doc["field"] == {"p": 5, "r": 1, "modulus": [0, 1]}


def test_classify_matrix_file(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("5 2 4\n1 0 2 3\n0 1 4 1\n")
    code, out, err = run_cli(capsys, "classify", "--matrix", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["k"] == 2


@pytest.mark.parametrize("text, message", [
    ("", "ValueError: matrix text is empty"),
    ("\n  \n", "ValueError: matrix text is empty"),
    # one declared row and two given: the second row was dropped, and the
    # [3,1,3] code of the first was classified
    ("5 1 3\n1 2 3\n4 4 4\n", "ValueError: matrix body does not match declared shape"),
])
def test_classify_matrix_refuses_a_malformed_file(tmp_path, capsys, text, message):
    path = tmp_path / "code.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "classify", "--matrix", str(path))
    assert code == 1 and out == ""
    assert message in err


def test_arc_report(capsys):
    code, out, err = run_cli(
        capsys, "arc", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3",
        "--complete", "--max-add", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    profile = doc["secantProfile"]
    assert sum(profile.values()) == 31
    assert doc["complete"] == (doc["addable"] == [])
    assert len(doc["completionAdded"]) == 5
    assert doc["completeAfter"] is True


def test_trisecants_scan_and_point(capsys):
    code, out, _ = run_cli(capsys, "trisecants", "--q", "7", "--curve", "0,0,0,5,1")
    assert code == 0
    doc = json.loads(out)
    assert "min" in doc and "histogram" in doc
    code, out, _ = run_cli(
        capsys, "trisecants", "--q", "7", "--curve", "0,0,0,5,1", "--point", "1,0,3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sumsToQPlus1"] is True


def test_trisecants_rejects_a_point_of_the_wrong_width(capsys):
    code, out, err = run_cli(
        capsys, "trisecants", "--q", "7", "--curve", "0,0,0,5,1", "--point", "1,0"
    )
    assert code == 1 and out == ""
    assert "DimensionMismatch" in err


def test_verify_sample_zero_draws_nothing_and_a_negative_one_is_refused(capsys):
    # --sample 0 once drew the default 100,000 points, and --sample -500
    # reported a spend of -14500 and a CONSISTENT verdict
    argv = ["verify", "--q", "11", "--curve", "0,0,0,1,3", "--k", "6", "--force", "--sample"]
    code, out, err = run_cli(capsys, *argv, "0")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "CONSISTENT"
    assert doc["sampled"] == 0 and doc["budgetSpent"] == 0
    code, out, err = run_cli(capsys, *argv, "-500")
    assert code == 1 and out == ""
    assert "ValueError" in err


def test_verify_exit_codes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--q", "121", "--curve", "0,0,0,1,0", "--k", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "CONSISTENT"
    # hypothesis gate: j = 0 curve refused
    code, out, err = run_cli(
        capsys, "verify", "--q", "121", "--curve", "0,0,0,0,1", "--k", "3"
    )
    assert code == 1 and "HypothesisNotMet" in err


def test_budget_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "arc", "--q", "121", "--curve", "0,0,0,1,0", "--k", "4",
        "--budget", "1000",
    )
    assert code == 3
    assert "budget" in err.lower()


def test_budget_takes_integer_valued_literals(capsys):
    # --budget was read by int(), so the README's own 5e9 exited 1
    argv = ["arc", "--q", "7", "--curve", "0,0,0,0,2", "--k", "4", "--budget"]
    outs = {}
    for literal, value in (("5e9", 5 * 10**9), ("5000000000", 5 * 10**9), ("5E+9", 5 * 10**9),
                           ("1e11", 10**11), ("100000000000", 10**11)):
        code, out, err = run_cli(capsys, *argv, literal)
        assert code == 0 and json.loads(out)["config"]["budget"] == value
        outs.setdefault(value, set()).add(out)
    assert [len(v) for v in outs.values()] == [1, 1]
    for zero in ("0e3", "0e5000"):  # a zero budget refuses the scan
        code, out, err = run_cli(capsys, *argv, zero)
        assert code == 3 and "budget" in err
    code, out, err = run_cli(capsys, *argv, "1e4300")  # 4301 digits, over the cap
    assert code == 1 and "argument --budget" in err
    code, out, err = run_cli(capsys, "classify", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3",
                             "--budget", "2e6")
    assert code == 0 and json.loads(out)["config"]["budget"] == 2 * 10**6


@pytest.mark.parametrize("literal", ["1.5e0", "2.5", "-1", "-1e3", "nan", "inf", "5e9x", ""])
def test_budget_refuses_fractional_and_negative_literals(capsys, literal):
    for argv in (["arc", "--q", "7", "--curve", "0,0,0,0,2", "--k", "4"],
                 ["classify", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3"]):
        code, out, err = run_cli(capsys, *argv, "--budget", literal)
        assert code == 1 and out == ""
        assert "argument --budget" in err


def test_oracle_agreement(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3", "--h", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pathsAgree"] is True


def test_an_oracle_too_large_for_the_budget_is_refused(capsys):
    # the chain search over P^3(F_121) is charged before its 1.79M x 1.79M
    # column indicator exists, so the default budget refuses it cleanly
    code, out, err = run_cli(capsys, "oracle", "--q", "121", "--curve", "0,0,0,1,0",
                             "--k", "4", "--h", "1")
    assert code == cli.EXIT_BUDGET and out == ""
    assert "budget: extendability_chain_search" in err


def test_reports_are_byte_identical(capsys):
    args = ("verify", "--q", "121", "--curve", "0,0,0,1,0", "--k", "3", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_json_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--json-out", str(path), "nq1", "--q", "9"
    )
    assert code == 0
    assert path.read_text().strip() == out.strip()


def test_curve_scan_filters(capsys):
    code, out, _ = run_cli(
        capsys, "curve-scan", "--q", "5", "--j-zero", "--max", "10"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] <= 10
    assert all(c["j"] == 0 for c in doc["curves"])


def test_curve_scan_refuses_a_negative_max_and_reads_zero_as_no_limit(capsys):
    # --max -1 once printed one curve and exited 0
    code, out, err = run_cli(capsys, "curve-scan", "--q", "5", "--max", "-1")
    assert code == 1 and out == ""
    assert "--max must be nonnegative" in err
    _, out, _ = run_cli(capsys, "curve-scan", "--q", "5", "--max", "0")
    _, every, _ = run_cli(capsys, "curve-scan", "--q", "5")
    assert out == every and json.loads(out)["count"] > 1


def test_usage_error_exit_one(capsys):
    code, _, _ = run_cli(capsys, "classify", "--q", "5")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("curve-scan", "--q", "7", "--max", "1"),
    ("build", "--q", "7", "--curve", "0,0,0,5,1", "--k", "3"),
    ("classify", "--q", "7", "--curve", "0,0,0,5,1", "--k", "3"),
    ("trisecants", "--q", "7", "--curve", "0,0,0,5,1"),
    ("arc", "--q", "7", "--curve", "0,0,0,5,1", "--k", "3"),
    ("verify", "--q", "9", "--curve", "0,0,0,1,2", "--k", "3", "--force"),
    ("oracle", "--q", "7", "--curve", "0,0,0,5,1", "--k", "3", "--h", "1"),
])
def test_workers_flag_only_where_it_is_used(capsys, argv):
    # no command runs a thread pool, so none takes a worker count
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--workers", "2")[0] == 1


def test_invariant_violation_is_reported_as_an_error(capsys, monkeypatch):
    import numpy as np

    from ellnmds import code as code_mod

    # codeword sections that disagree with the group-law profile trip the
    # cross-check inside min_distance; a section above k breaks the arc
    argv = ("classify", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3")
    for weights, error in [(lambda code: [code.n], "InvariantViolated: distance paths disagree: "
                                                   "codeword sections [1, 0, 0, 0], group-law"),
                           (lambda code: [1], "ArcPropertyViolated: a hyperplane holds 5 > k")]:
        monkeypatch.setattr(code_mod, "_codeword_weights",
                            lambda code, budget: np.array(weights(code)))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert error in err


@pytest.mark.parametrize("argv", [
    ("arc", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--complete"),
    ("oracle", "--q", "7", "--curve", "0,0,0,5,1", "--k", "3", "--h", "1"),
    ("verify", "--q", "9", "--curve", "0,0,0,1,2", "--k", "3", "--force"),
])
def test_each_point_set_is_scanned_once_and_each_code_enumerated_once(capsys, monkeypatch,
                                                                      argv):
    charges = []

    class RecordingBudget(Budget):
        def charge(self, label, estimate):
            super().charge(label, estimate)
            charges.append((label, int(estimate)))

    monkeypatch.setattr(cli, "Budget", RecordingBudget)
    assert run_cli(capsys, *argv)[0] == 0
    q, k = int(argv[2]), int(argv[6])
    n = curve_make(field_of_order(q), tuple(int(a) for a in argv[4].split(","))).n
    scans = [est for label, est in charges if label == "hyperplane_scan"]
    # the arc's scan once; completion rounds scan sets of n + 1, n + 2, ... points
    assert scans.count(proj_space_size(q, k) * n) == 1
    assert len(scans) == len(set(scans))
    assert [label for label, _ in charges].count("codeword_enumeration") <= 1


@pytest.mark.parametrize("argv, profiles", [
    (["arc", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--complete"], 1),
    (["verify", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--force"], 0),
    (["verify", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--force",
      "--budget", "100000"], 0),
])
def test_a_non_eager_arc_reports_its_golden(monkeypatch, argv, profiles):
    # no arc is scanned: the arc command takes its profile from the group
    # law, and every completion round walks the group law for its full
    # hyperplanes, charged at the scan's estimate
    calls = []
    counts = EllipticCurve.zero_sum_counts

    def no_scan(*args, **kwargs):
        raise AssertionError("secant_scan ran on an arc-led set")

    def counting(self, kmax):
        calls.append(kmax)
        return counts(self, kmax)

    monkeypatch.setattr(geometry, "secant_scan", no_scan)
    monkeypatch.setattr(EllipticCurve, "zero_sum_counts", counting)
    golden = _load_goldens()[" ".join(argv)]
    assert run_normalized(argv, None) == (golden["exit"], golden["stdout"])
    assert len(calls) == profiles


def test_optional_k5_scan_runs_on_exactly_the_unrestricted_spend():
    # the optional whole-space check is the last charge of the verdict, so a
    # budget equal to the unrestricted spend still runs it
    argv = ["verify", "--q", "11", "--curve", "0,0,0,1,4", "--k", "5", "--force",
            "--sample", "200"]
    golden = _load_goldens()[" ".join(argv)]
    want = json.loads(golden["stdout"])
    code, stdout = run_normalized(argv + ["--budget", str(want["budgetSpent"])], None)
    doc = json.loads(stdout)
    assert code == golden["exit"] and "full ambient scan ran" in doc["notes"]
    assert doc["config"].pop("budget") == want["budgetSpent"]
    want["config"].pop("budget")
    assert doc == want


def test_k5_verdict_walks_each_point_set_once(monkeypatch):
    # the candidate rounds and the optional whole-space check read the arc's
    # kept walk, so a budget that admits the check walks the arc once, and
    # the report stays the golden's
    argv = ["verify", "--q", "11", "--curve", "0,0,0,1,4", "--k", "5", "--force",
            "--sample", "200"]
    walked, real = [], geometry.full_hyperplanes_via_subsets
    monkeypatch.setattr(geometry, "full_hyperplanes_via_subsets",
                        lambda ps: walked.append(ps) or real(ps))
    golden = _load_goldens()[" ".join(argv)]
    code, stdout = run_normalized(argv, None)
    assert (code, stdout) == (golden["exit"], golden["stdout"])
    assert "full ambient scan ran" in json.loads(stdout)["notes"]
    assert isinstance(walked[0], geometry.EllipticArc)
    assert [ps.n for ps in walked] == [walked[0].n, walked[0].n + 1, walked[0].n + 2]
