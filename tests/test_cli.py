"""Command-line front end: exit codes, JSON payloads, replayability."""

import json
import sys
import time

import pytest

from lieform import CriteriaDisagreeError, LieAlgebra, extension_defect
from lieform import formations, sweep
from lieform.algebra import MAX_DIM
from lieform.cli import main
from lieform.derivations import derivation_matrix_strings
from lieform.linalg import Subspace
from support import abelian, gf2_rotation_sum, h3, r2

R2_GF3 = {
    "field": "GF(3)",
    "dim": 2,
    "brackets": [{"i": 1, "j": 2, "value": ["0", "1"]}],
}
BAD_JACOBI = {
    "field": "GF(3)",
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "value": ["1", "0", "0"]},
        {"i": 1, "j": 3, "value": ["0", "1", "0"]},
    ],
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    assert out.startswith("ok: ")


def test_validate_jacobi_failure(tmp_path, capsys):
    path = write(tmp_path, "bad.json", BAD_JACOBI)
    code, out, _ = run(capsys, ["validate", "--json", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["triple"] == [1, 2, 3]


def test_missing_file_is_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error" in err


def test_unparseable_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_dim_above_cap_is_exit_2(tmp_path, capsys):
    # one above the cap, never a huge dim: the refusal must come before
    # anything of that size is allocated
    path = write(tmp_path, "big.json", {"field": "GF(2)", "dim": MAX_DIM + 1, "brackets": []})
    code, out, err = run(capsys, ["validate", path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "dim" in err
    path = write(tmp_path, "cap.json", {"field": "GF(2)", "dim": MAX_DIM, "brackets": []})
    assert run(capsys, ["validate", path])[0] == 0


def assert_parse_error(result):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_non_utf8_algebra_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"field": "GF(2)", "dim": 1, "brackets": [], "note": "\xe9"}')
    assert_parse_error(run(capsys, ["validate", str(path)]))


def test_non_utf8_chain_file_is_exit_2(tmp_path, capsys):
    algebra = write(tmp_path, "r2.json", R2_GF3)
    chain = tmp_path / "chain.json"
    chain.write_bytes(b'[[["1", "0"], ["0", "1"]], [["1", "2"]]]\xff')
    argv = ["verify-chain", algebra, str(chain), "--formation", "nilpotent"]
    assert_parse_error(run(capsys, argv))


def test_over_long_literal_is_exit_2(tmp_path, capsys):
    # past Python's int() digit limit: a scalar string, and a JSON number
    scalar = dict(R2_GF3, brackets=[{"i": 1, "j": 2, "value": ["0", "1" * 5000]}])
    assert_parse_error(run(capsys, ["validate", write(tmp_path, "scalar.json", scalar)]))
    number = tmp_path / "number.json"
    number.write_text('{"field": "GF(2)", "dim": %s, "brackets": []}' % ("1" * 5000))
    assert_parse_error(run(capsys, ["validate", str(number)]))


def test_over_long_bad_literal_in_file_is_quoted_short(tmp_path, capsys):
    # a bad literal is quoted as a prefix plus its length, not in full
    for literal in ("1" * 4999 + "x", "1" * 4000 + "/3"):
        data = dict(R2_GF3, brackets=[{"i": 1, "j": 2, "value": ["0", literal]}])
        result = run(capsys, ["validate", write(tmp_path, "long.json", data)])
        assert_parse_error(result)
        assert len(result[2].encode()) < 200
        assert "(%d characters)" % len(literal) in result[2]


def test_over_long_bad_literal_in_subalgebra_is_quoted_short(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    for spec in ("1" * 4999 + "x,0", "1" * 4000 + "/3,0", ",".join(["1"] * 3000)):
        result = run(capsys, ["check-intravariance", path, "--subalgebra", spec])
        assert_parse_error(result)
        assert len(result[2].encode()) < 200


# a JSON number where a scalar string belongs, 4,000 digits long
HUGE_NUMBER = 10 ** 3999


def _huge_number_in_algebra(tmp_path, monkeypatch):
    data = dict(R2_GF3, brackets=[{"i": 1, "j": 2, "value": ["0", HUGE_NUMBER]}])
    return ["validate", write(tmp_path, "number.json", data)]


def _huge_number_in_record(tmp_path, monkeypatch):
    record = {"algebra": R2_GF3, "subalgebra": [[HUGE_NUMBER, "0"]]}
    return ["check-intravariance", write(tmp_path, "record.json", record)]


def _huge_number_in_chain(tmp_path, monkeypatch):
    algebra = write(tmp_path, "r2.json", R2_GF3)
    chain = write(tmp_path, "chain.json", [[["1", "0"], ["0", "1"]], [[HUGE_NUMBER, "0"]]])
    return ["verify-chain", algebra, chain, "--formation", "nilpotent"]


def _long_thread_count(tmp_path, monkeypatch):
    monkeypatch.setenv("LIEFORM_THREADS", "x" * 5000)
    return ["sweep", "--field", "GF(2)", "--max-dim", "1"]


@pytest.mark.parametrize(
    "argv_for",
    [_huge_number_in_algebra, _huge_number_in_record, _huge_number_in_chain, _long_thread_count],
    ids=["algebra-file", "failure-record", "chain-file", "thread-count"],
)
def test_over_long_outside_value_is_quoted_short(tmp_path, capsys, monkeypatch, argv_for):
    result = run(capsys, argv_for(tmp_path, monkeypatch))
    assert_parse_error(result)
    assert len(result[2].encode()) < 200


def test_short_bad_literal_is_quoted_whole(tmp_path, capsys):
    data = dict(R2_GF3, brackets=[{"i": 1, "j": 2, "value": ["0", "1x"]}])
    result = run(capsys, ["validate", write(tmp_path, "short.json", data)])
    assert result[2] == "error: bad scalar literal '1x'\n"


def test_over_long_field_order_is_exit_2(tmp_path, capsys):
    data = dict(R2_GF3, field="GF(%s)" % ("7" * 5000))
    assert_parse_error(run(capsys, ["validate", write(tmp_path, "order.json", data)]))


def test_huge_field_order_refused_quickly(tmp_path, capsys):
    # a prime near 1e18: trial division would take about a minute
    field = "GF(1000000000000000003)"
    path = write(tmp_path, "huge.json", dict(R2_GF3, field=field))
    for argv in (["validate", path], ["sweep", "--field", field, "--max-dim", "1"]):
        start = time.perf_counter()
        result = run(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert_parse_error(result)
        assert "limit" in result[2]


def test_gf_literal_with_zero_denominator_is_exit_2(tmp_path, capsys):
    # 1/3 has no value in GF(3): a parse error, not an inverse-of-zero traceback
    data = dict(R2_GF3, brackets=[{"i": 1, "j": 2, "value": ["0", "1/3"]}])
    path = write(tmp_path, "third.json", data)
    for command in ("validate", "analyze"):
        result = run(capsys, [command, path])
        assert_parse_error(result)
        assert "1/3" in result[2]


def test_gf_subalgebra_with_zero_denominator_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    result = run(capsys, ["check-intravariance", path, "--subalgebra", "1/3,0"])
    assert_parse_error(result)
    assert "1/3" in result[2]


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["normalisers", "x.json", "--formation", "abelian"])
    assert exc.value.code == 2


def test_analyze_json(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    code, out, _ = run(capsys, ["analyze", "--json", path])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["formations"]) == {"nilpotent", "supersoluble", "all-soluble"}
    nil = payload["formations"]["nilpotent"]
    assert nil["member"] is False
    assert len(nil["normalisers"]) == 3


def test_normalisers_json(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    code, out, _ = run(capsys, ["normalisers", "--json", path, "--formation", "nilpotent"])
    assert code == 0
    payload = json.loads(out)
    bases = {tuple(tuple(r) for r in n["basis"]) for n in payload["normalisers"]}
    assert bases == {(("1", "0"),), (("1", "1"),), (("1", "2"),)}
    assert all(len(n["chain"]) == 2 for n in payload["normalisers"])


def test_normalisers_need_finite_field(tmp_path, capsys):
    data = dict(R2_GF3, field="Q")
    path = write(tmp_path, "r2q.json", data)
    code, _, err = run(capsys, ["normalisers", path, "--formation", "nilpotent"])
    assert code == 1
    assert "finite field" in err


def test_normalisers_over_budget_exit_1(tmp_path, capsys):
    # non-nilpotent over GF(101) in dimension 5: refused before enumerating
    value = ["0", "1", "0", "0", "0"]
    data = {"field": "GF(101)", "dim": 5, "brackets": [{"i": 1, "j": 2, "value": value}]}
    path = write(tmp_path, "big.json", data)
    code, out, err = run(capsys, ["normalisers", path, "--formation", "nilpotent"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_broken_stdout_pipe_exits_141_quietly(tmp_path, capsys, monkeypatch):
    # `lieform analyze FILE | head -1`: the reader closes the pipe early
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    path = write(tmp_path, "r2.json", R2_GF3)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["analyze", path]) == 141
    assert capsys.readouterr().err == ""


def test_derivations_json(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    code, out, _ = run(capsys, ["derivations", "--json", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["inner_dim"] == 2
    assert len(payload["basis"]) == 2
    assert all(len(m) == 2 and len(m[0]) == 2 for m in payload["basis"])


def test_check_intravariance_pass(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    code, out, _ = run(
        capsys,
        ["check-intravariance", "--json", path, "--subalgebra", "0,1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["linear"] is True and payload["extension"] is True


def test_check_intravariance_failure(tmp_path, capsys):
    path = write(tmp_path, "ab2.json", abelian("GF(2)", 2).to_dict())
    code, out, _ = run(
        capsys,
        ["check-intravariance", "--json", path, "--subalgebra", "1,0"],
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["linear"] is False and payload["extension"] is False
    assert "derivation" in payload


def test_check_intravariance_not_closed(tmp_path, capsys):
    path = write(tmp_path, "h3.json", h3().to_dict())
    code, _, err = run(
        capsys,
        ["check-intravariance", path, "--subalgebra", "1,0,0;0,1,0"],
    )
    assert code == 1
    assert "not closed" in err


def test_check_intravariance_needs_subalgebra(tmp_path, capsys):
    path = write(tmp_path, "r2.json", R2_GF3)
    code, _, err = run(capsys, ["check-intravariance", path])
    assert code == 2
    assert "no subalgebra" in err


def test_failure_record_replay(tmp_path, capsys):
    """A fabricated sweep failure record replays to the same verdict."""
    a = abelian("GF(2)", 2)
    sub = Subspace.span(a.field, 2, [(1, 0)])
    defect = extension_defect(a, sub)
    assert defect is not None
    record = {
        "algebra": a.to_dict(),
        "subalgebra": [["1", "0"]],
        "derivation": derivation_matrix_strings(defect),
    }
    path = write(tmp_path, "record.json", record)
    code, out, _ = run(capsys, ["check-intravariance", "--json", path])
    assert code == 3
    payload = json.loads(out)
    assert payload["reported_derivation_fails"] is True


def test_verify_chain_ok(tmp_path, capsys):
    algebra = write(tmp_path, "r2.json", R2_GF3)
    chain = write(tmp_path, "chain.json", [[["1", "0"], ["0", "1"]], [["1", "2"]]])
    code, out, _ = run(
        capsys, ["verify-chain", "--json", algebra, chain, "--formation", "nilpotent"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["terminal_dim"] == 1
    assert payload["steps"][0]["maximality_certified"] is True
    assert payload["uncertified_steps"] == []


def test_verify_chain_certifies_codim_2_step_over_listing_budget(tmp_path, capsys):
    # GF(2)^6 has too many subspaces to list, but the maximal subalgebras
    # come from the chief factors' complements, so the codimension-2 step
    # span{e1, e4, e5, e6} is certified maximal
    algebra = write(tmp_path, "rot.json", gf2_rotation_sum().to_dict())
    unit = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    chain = write(tmp_path, "chain.json", [unit, [unit[0], unit[3], unit[4], unit[5]], [unit[0], unit[4], unit[5]]])
    code, out, _ = run(
        capsys, ["verify-chain", "--json", algebra, chain, "--formation", "nilpotent"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["terminal_dim"] == 3
    assert [s["codim"] for s in payload["steps"]] == [2, 1]
    assert payload["steps"][0]["maximality_certified"] is True
    assert payload["uncertified_steps"] == []


def test_analyze_and_normalisers_answer_over_listing_budget(tmp_path, capsys):
    # refused as over budget while maximal subalgebras came from a subspace scan
    path = write(tmp_path, "rot.json", gf2_rotation_sum().to_dict())
    code, out, _ = run(capsys, ["analyze", "--json", path])
    assert code == 0
    nil = json.loads(out)["formations"]["nilpotent"]
    assert "skipped" not in nil
    assert nil["maximal_subalgebras"] and nil["normalisers"]
    code, out, _ = run(capsys, ["normalisers", "--json", path, "--formation", "nilpotent"])
    assert code == 0
    assert len(json.loads(out)["normalisers"]) == len(nil["normalisers"])


def test_analyze_answers_on_large_rational_eigenvalues(tmp_path, capsys):
    # ad(e1) has the eigenvalues 1000000007 and 1000000009: the rational
    # root search factors no constant term, so the chief series is found
    big = {
        "field": "Q",
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "value": ["0", "1000000007", "0"]},
            {"i": 1, "j": 3, "value": ["0", "0", "1000000009"]},
        ],
    }
    path = write(tmp_path, "big.json", big)
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", "--json", path])
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    chief = json.loads(out)["chief_series"]
    assert "skipped" not in chief and chief["ideal_dims"] == [0, 1, 2, 3]


def test_verify_chain_rejects_non_critical_step(tmp_path, capsys):
    algebra = write(tmp_path, "r2.json", R2_GF3)
    chain = write(tmp_path, "chain.json", [[["1", "0"], ["0", "1"]], [["0", "1"]]])
    code, out, _ = run(
        capsys, ["verify-chain", "--json", algebra, chain, "--formation", "nilpotent"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "not critical" in payload["reason"]


def test_verify_chain_must_start_full(tmp_path, capsys):
    algebra = write(tmp_path, "r2.json", R2_GF3)
    chain = write(tmp_path, "chain.json", [[["1", "0"]]])
    code, out, _ = run(capsys, ["verify-chain", algebra, chain, "--formation", "nilpotent"])
    assert code == 1
    assert "must start at the full algebra" in out


def test_verify_chain_requires_descent(tmp_path, capsys):
    algebra = write(tmp_path, "r2.json", R2_GF3)
    full = [["1", "0"], ["0", "1"]]
    chain = write(tmp_path, "chain.json", [full, full])
    code, out, _ = run(capsys, ["verify-chain", algebra, chain, "--formation", "nilpotent"])
    assert code == 1
    assert "not strictly contained" in out


def test_sweep_small(tmp_path, capsys):
    code, out, _ = run(capsys, ["sweep", "--field", "GF(2)", "--max-dim", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["algebras"] == 3
    assert payload["intravariance_failures"] == []
    assert payload["cover_avoid_failures"] == []


def test_sweep_output_is_stable(capsys, monkeypatch):
    monkeypatch.delenv("LIEFORM_THREADS", raising=False)
    argv = ["sweep", "--field", "GF(3)", "--max-dim", "2", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_bad_thread_count_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("LIEFORM_THREADS", "abc")
    code, out, err = run(capsys, ["sweep", "--field", "GF(2)", "--max-dim", "1"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "LIEFORM_THREADS" in err


def test_sweep_over_budget_stream_refused_before_any_check(capsys, monkeypatch):
    # the uncapped GF(2) stream to dimension 6 holds at least 986,039
    # algebras (198,071 to dimension 5 and 4 times the 196,992 of
    # dimension 5 above them), over the stream budget: no algebra is checked
    monkeypatch.delenv("LIEFORM_THREADS", raising=False)
    checked = []
    check_algebra = sweep.check_algebra
    monkeypatch.setattr(sweep, "check_algebra", lambda *a: checked.append(1) or check_algebra(*a))
    code, out, err = run(capsys, ["sweep", "--field", "GF(2)", "--max-dim", "6"])
    assert code == 1
    assert out == ""
    assert err == "error: sweeping GF(2) to dimension 6 takes at least 986039 steps, over the budget of 262144\n"
    assert checked == []


@pytest.mark.parametrize("cap", ["1", "2"])
def test_sweep_budgeted_by_its_stream_not_by_subspaces(capsys, cap):
    # GF(2)^6 has 2,825 subspaces, over the work budget, but a capped
    # dimension-6 stream is small and no sweep check lists subspaces
    code, out, _ = run(capsys, ["sweep", "--field", "GF(2)", "--max-dim", "6", "--cap", cap, "--json"])
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert data["algebras"] == (6 if cap == "1" else 1 + 2 + 4 + 8 + 16 + 32)


@pytest.mark.parametrize("max_dim", [MAX_DIM + 1, 300, 1000])
def test_sweep_huge_max_dim_refused_quickly(capsys, max_dim):
    # refused before any subspace count is added up or printed
    start = time.perf_counter()
    code, out, err = run(capsys, ["sweep", "--field", "GF(2)", "--max-dim", str(max_dim)])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget" in err
    assert len(err) < 200


def test_sweep_huge_field_budget_message_is_short(capsys):
    # the subspace count of GF(2147483647)^16 has about 600 digits; the
    # refusal gives its order of magnitude instead
    code, out, err = run(capsys, ["sweep", "--field", "GF(2147483647)", "--max-dim", "16"])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget" in err
    assert len(err) < 200


def test_sweep_records_a_raising_check_and_goes_on(capsys, monkeypatch):
    # the one-dimensional algebra's normaliser computation raises, under
    # both default formations; the two algebras after it are still checked
    monkeypatch.delenv("LIEFORM_THREADS", raising=False)
    argv = ["sweep", "--field", "GF(2)", "--max-dim", "2", "--json"]
    _, clean, _ = run(capsys, argv)
    f_normalisers = sweep.f_normalisers

    def faulty(algebra, formation):
        if algebra.dim == 1:
            raise RuntimeError("injected fault")
        return f_normalisers(algebra, formation)

    monkeypatch.setattr(sweep, "f_normalisers", faulty)
    code, out, _ = run(capsys, argv)
    assert code == 7
    payload, clean = json.loads(out), json.loads(clean)
    assert payload["algebras"] == clean["algebras"] == 3
    # the skipped normalisers are L itself, once per formation
    assert payload["normalisers_checked"] == clean["normalisers_checked"] - 2
    assert [r["formation"] for r in payload["check_errors"]] == ["all-soluble", "nilpotent"]
    assert {r["detail"] for r in payload["check_errors"]} == {"RuntimeError: injected fault"}
    assert {r["algebra"]["dim"] for r in payload["check_errors"]} == {1}
    assert "check_errors" not in clean
    code, out, _ = run(capsys, argv[:-1])
    assert code == 7
    assert "check errors: 2" in out.splitlines()
    assert sum(line.startswith("check error: {") for line in out.splitlines()) == 2


def test_sweep_records_a_disagreement_inside_the_descent(capsys, monkeypatch):
    # the planted disagreement hits only the maximals of restricted algebras,
    # classified by the normaliser descent and never by the sweep's own pass
    monkeypatch.delenv("LIEFORM_THREADS", raising=False)
    # a fresh intern table, so no verdict an earlier test cached hides it
    monkeypatch.setattr(LieAlgebra, "_interned", {})
    classify = formations._classify_maximal

    def planted(algebra, maximal, formation):
        frame, descents = sys._getframe(), 0
        while frame is not None:
            descents += frame.f_code.co_name == "_f_normalisers"
            frame = frame.f_back
        if descents >= 2:
            raise CriteriaDisagreeError("planted")
        return classify(algebra, maximal, formation)

    monkeypatch.setattr(formations, "_classify_maximal", planted)
    argv = ["sweep", "--field", "GF(2)", "--max-dim", "3", "--formation", "nilpotent", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 5
    payload = json.loads(out)
    assert not payload["ok"]
    records = payload["criteria_disagreements"]
    assert records
    assert {r["detail"] for r in records} == {"in the normaliser descent: planted"}


def test_sweep_text_mode(capsys):
    code, out, _ = run(capsys, ["sweep", "--field", "GF(2)", "--max-dim", "2"])
    assert code == 0
    assert "algebras" in out
    assert "0" in out
