import json

import pytest

from sbar2lab import centralizer
from sbar2lab.cli import main
from sbar2lab.report import SuiteReport, Case, emit_report
from sbar2lab.suites import run_suite


def test_eval_and_phi(capsys):
    assert main(["eval", "p1*p1^-1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["phi", "t(2,1)"]) == 0
    assert "t1^2*t2 (x) 1" in capsys.readouterr().out


def test_eval_error_exit(capsys):
    assert main(["eval", "t1*d1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_ygen(capsys):
    assert main(["ygen", "--alpha", "1,-1"]) == 0
    out = capsys.readouterr().out
    assert "p1*p2^-1" in out
    assert main(["ygen", "--alpha", "1,0", "--pi1", "--lambda", "1,0"]) == 0
    out = capsys.readouterr().out
    assert "[-2, 2]" in out and "[0, 0]" in out


def test_ygen_builds_each_y_once(monkeypatch, capsys):
    builds = []
    build = centralizer.y_terms
    monkeypatch.setattr(centralizer, "y_terms", lambda alpha: builds.append(alpha) or build(alpha))
    assert main(["ygen", "--alpha", "1,0", "--xi", "--pi1", "--lambda", "1,0"]) == 0
    assert builds == [(1, 0)]
    assert capsys.readouterr().out == (
        "-d2 - d2^2 - 2*d2*L(0,0) - d2*L(1,-1) - L(0,0) - L(0,0)^2 - L(1,-1) + L(1,0)\n"
        "-E11 + 2*E12 - E11*E11 + 2*E22*E12\n"
        "  [-2, 2]\n"
        "  [0, 0]\n"
    )


def test_ygen_rejects_a_bad_lambda_before_printing(capsys):
    assert main(["ygen", "--alpha", "1,0", "--xi", "--pi1", "--lambda", "0,1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "highest weight difference must be a nonnegative integer" in out.err


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["ygen", "--alpha", "-1,1", "--pi1", "--lambda", "1,0"], ["ygen", "--alpha=-1,1", "--pi1", "--lambda=1,0"]),
        (
            ["whittaker", "--lambda", "0,0", "--type", "-1,1", "--degree", "1"],
            ["whittaker", "--lambda=0,0", "--type=-1,1", "--degree", "1"],
        ),
        (["freeness", "--lambda", "-1/2,-1/2", "--degree", "1"], ["freeness", "--lambda=-1/2,-1/2", "--degree", "1"]),
    ],
)
def test_a_negative_pair_reads_the_same_after_a_space(spaced, joined, capsys):
    assert main(joined) == 0
    expected = capsys.readouterr().out
    assert main(spaced) == 0
    assert capsys.readouterr().out == expected != ""


def test_a_pair_option_still_needs_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ygen", "--alpha", "--xi"])
    assert exc.value.code == 2
    assert "--alpha: expected one argument" in capsys.readouterr().err


def test_whittaker_and_freeness(capsys):
    assert main(["whittaker", "--lambda", "2,0", "--type", "1,1", "--degree", "3"]) == 0
    assert "dim = 3" in capsys.readouterr().out
    assert main(["freeness", "--lambda", "1,0", "--degree", "3"]) == 0
    assert "rank 20 of 20" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closure", "--lambda", "1,0", "--type", "1,1", "--seed-expr", "v0", "--degree", "2", "--gen-degree", "5"],
         "trusted window is empty"),
        (["freeness", "--lambda", "1,0", "--degree", "-1"], "window is empty"),
        (["whittaker", "--lambda", "1,0", "--type", "1,1", "--degree", "-1"], "slice is empty"),
    ],
)
def test_empty_windows_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["whittaker", "--lambda", "1/0,0", "--type", "1,1", "--degree", "1"], "bad lambda component '1/0'"),
        (["whittaker", "--lambda", "1,0", "--type", "1,2/0", "--degree", "1"], "bad type component '2/0'"),
        (["ygen", "--alpha", "1/0,0"], "bad alpha component '1/0'"),
    ],
)
def test_zero_denominator_is_a_usage_error(argv, message, capsys):
    # Fraction("1/0") raises ZeroDivisionError, not ValueError; it is a bad
    # argument like any other, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_closure_seed_expr(capsys):
    rc = main(
        [
            "closure", "--lambda", "1,0", "--type", "1,1",
            "--seed-expr", "v0 + v1", "--degree", "4", "--gen-degree", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: proper" in out
    rc = main(
        [
            "closure", "--lambda", "1,1", "--type", "1,1",
            "--seed-expr", "random", "--degree", "4", "--gen-degree", "2", "--seed", "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed = 2*v0 + 2*t1*v0 - 2*t1*t2*v0 + t1^2*v0\n" in out
    assert "verdict: full" in out


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "divergence", "--json", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["suite"] == "divergence"
    assert doc["summary"]["fail"] == 0
    assert list(doc) == [
        "schema_version", "suite", "seed", "engine_version", "cases", "summary", "wall_time_ms",
    ]
    assert list(doc["cases"][0]) == ["name", "paper_anchor", "provenance", "status", "witness"]
    names = [c["name"] for c in doc["cases"]]
    assert names == sorted(names)


@pytest.mark.parametrize("suite", ["whittaker-dim", "g-recurrence", "xi-whittaker", "freeness"])
def test_negative_degree_is_rejected(suite):
    with pytest.raises(ValueError, match="nonnegative"):
        run_suite(suite, -3)


def test_verify_negative_degree_exits_2(capsys):
    assert main(["verify", "freeness", "--max-degree", "-3"]) == 2
    assert "max degree must be nonnegative" in capsys.readouterr().err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "unknown"])


def test_reports_deterministic_modulo_wall_time():
    docs = []
    for _ in range(2):
        report = run_suite("y-basis", seed=3)
        doc = report.to_dict()
        doc["wall_time_ms"] = 0
        docs.append(json.dumps(doc, sort_keys=False))
    assert docs[0] == docs[1]


def test_failing_case_yields_nonzero_exit_and_inconclusive_does_not(capsys):
    bad = SuiteReport("demo", 0, "0", [Case("c", "x = y", "axiom-sweep", "fail", {"got": "1"})])
    text = emit_report(bad, "text")
    assert "witness" in text
    assert bad.failures == 1
    soft = SuiteReport("demo", 0, "0", [Case("c", "x = y", "bounded-search", "inconclusive", {})])
    assert soft.failures == 0
    with pytest.raises(ValueError):
        emit_report(soft, "yaml")
