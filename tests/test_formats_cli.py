"""File formats and the command-line interface."""

import json
from fractions import Fraction as F

import pytest

from cli_child import run_cli
from pcover import arith, formats, lp
from pcover.arith import parse_rational
from pcover.cli import main
from pcover.errors import InputError
from pcover.generators import (TreeInstance, corpus_instance,
                               gen_random_tree_instance, reduce_multicut,
                               gen_random_descending_paths)
from pcover.model import make_instance
from pcover.pipeline import solve_rho_separable


def test_instance_round_trip():
    inst = make_instance([[1, 0], [1, 1]], [F(1, 2), 3], [F(7, 5), 2], F(3, 2))
    text = formats.render_instance(inst)
    assert formats.parse_instance(text) == inst


def test_instance_round_trip_random():
    for seed in range(6):
        inst = corpus_instance(seed)
        assert formats.parse_instance(formats.render_instance(inst)) == inst


def test_parse_rejects_bad_header():
    with pytest.raises(InputError, match="header"):
        formats.parse_instance("NOPE 1\n1 1\n0\n1\n1\n1\n")


def test_parse_reports_line_numbers():
    text = "PCOV 1\n2 2\n1\n1 1\n1 1\n10\n01\n"
    broken = text.replace("10\n01", "12\n01")
    with pytest.raises(InputError) as err:
        formats.parse_instance(broken)
    assert "line 6" in str(err.value)


def test_parse_shares_repeated_rationals_and_reports_the_first_bad_token():
    inst = formats.parse_instance("PCOV 1\n3 2\n1\n1/2 1/2\n1 2/2 1\n10\n01\n11\n")
    assert inst.costs == (F(1, 2), F(1, 2)) and inst.costs[0] is inst.costs[1]
    assert inst.profits == (1, 1, 1) and inst.profits[0] is inst.profits[2]
    broken = "PCOV 1\n3 2\n1\n1 1\n1/0 x 1/0\n10\n01\n11\n"
    with pytest.raises(InputError) as err:
        formats.parse_instance(broken)
    assert "'1/0'" in str(err.value) and "line 5" in str(err.value)


def test_parse_truncated_file():
    with pytest.raises(InputError, match="unexpected end"):
        formats.parse_instance("PCOV 1\n2 2\n1\n")


@pytest.mark.parametrize("inst", [make_instance([], [1, 2], [], 0),
                                  make_instance([[], []], [], [1, 2], 0),
                                  make_instance([], [], [], 0)])
def test_instance_round_trip_empty_dimension(inst):
    parsed = formats.parse_instance(formats.render_instance(inst))
    assert parsed == inst
    assert (parsed.n, parsed.m) == (inst.n, inst.m)


def test_parse_rejects_negative_dimensions():
    with pytest.raises(InputError, match="line 2.*nonnegative"):
        formats.parse_instance("PCOV 1\n-1 2\n0\n1 2\n")


def test_decomposition_round_trip():
    _, dec = gen_random_descending_paths(3, 8, 5, 4)
    text = formats.render_decomposition(dec)
    parsed = formats.parse_decomposition(text, 4, 5)
    assert parsed == dec


def test_decomposition_round_trip_without_sets():
    # With m = 0 every part row is blank, as in an instance file.
    _, dec = gen_random_descending_paths(3, 8, 0, 4)
    text = formats.render_decomposition(dec)
    assert formats.parse_decomposition(text, 4, 0) == dec


def test_tree_render():
    # Written into the meta file of `generate multicut`; no command reads it.
    tree = TreeInstance((-1, 0, 0, 1), (F(1), F(2), F(1, 2)),
                        ((1, 2, F(3)), (0, 3, F(1))))
    assert formats.render_tree(tree) == "TREE 1\n4\n0 1 1 2\n1 2 1/2\n2 3 3\n1 4 1\n"


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def test_cli_generate_and_solve(workdir):
    out = run_cli("generate", "random", "--seed", "7", "--nodes", "9",
                  "--cover-paths", "5", "--demand-paths", "5",
                  "--out", str(workdir / "fix"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    solved = run_cli("solve", "--input", str(workdir / "fix.pcov"), "--oracle",
                     "--output", str(workdir / "report.json"), cwd=workdir)
    assert solved.returncode == 0, solved.stderr
    doc = json.loads((workdir / "report.json").read_text())
    assert doc["schema"] == 1
    payload = doc["payload"]
    assert payload["audits"]["feasible"] is True
    assert payload["oracle_cost"] is not None
    assert payload["lp_value"] is not None
    assert "timings" in doc and "timings" not in payload


def test_cli_generate_deterministic_bytes(workdir):
    for name in ("a", "b"):
        out = run_cli("generate", "gap", "--q", "1",
                      "--out", str(workdir / name), cwd=workdir)
        assert out.returncode == 0, out.stderr
    assert (workdir / "a.pcov").read_bytes() == (workdir / "b.pcov").read_bytes()
    assert (workdir / "a.meta.json").read_bytes() == (workdir / "b.meta.json").read_bytes()


def test_cli_solve_gap_with_oracle(workdir):
    out = run_cli("generate", "gap", "--q", "1", "--out", str(workdir / "gap"),
                  cwd=workdir)
    assert out.returncode == 0, out.stderr
    solved = run_cli("solve", "--input", str(workdir / "gap.pcov"),
                     "--oracle", "--output", str(workdir / "r.json"), cwd=workdir)
    assert solved.returncode == 0, solved.stderr
    payload = json.loads((workdir / "r.json").read_text())["payload"]
    assert payload["oracle_cost"] == "15"


def test_cli_malformed_file_exit_2(workdir):
    bad = workdir / "bad.pcov"
    bad.write_text("PCOV 1\n2 2\n1\n1 1\n1 1\n12\n01\n")
    out = run_cli("solve", "--input", str(bad), cwd=workdir)
    assert out.returncode == 2, out.stderr
    assert "line 6" in out.stderr


@pytest.mark.parametrize("tail", ["garbage here\n", "0\n", "\n\n# note\n01\n"])
def test_cli_trailing_content_exit_2(workdir, tail):
    text = "PCOV 1\n2 2\n1\n1 1\n1 1\n10\n01\n"
    (workdir / "tail.pcov").write_text(text + tail)
    out = run_cli("solve", "--input", str(workdir / "tail.pcov"), cwd=workdir)
    assert out.returncode == 2, out.stderr
    line = 8 + tail.count("\n") - 1
    assert f"line {line}: unexpected trailing content" in out.stderr


def test_cli_trailing_blank_lines_accepted(workdir):
    text = "PCOV 1\n2 2\n1\n1 1\n1 1\n10\n01\n\n   \n# end\n"
    (workdir / "ok.pcov").write_text(text)
    out = run_cli("solve", "--input", str(workdir / "ok.pcov"), cwd=workdir)
    assert out.returncode == 0, out.stderr


def test_cli_decomposition_trailing_content_exit_2(workdir):
    inst = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 1)
    (workdir / "d.pcov").write_text(formats.render_instance(inst))
    (workdir / "d.dec").write_text("PCOVDEC 1\n1\n10\n01\n\n10\n")
    out = run_cli("solve", "--input", str(workdir / "d.pcov"),
                  "--decomposition", str(workdir / "d.dec"), cwd=workdir)
    assert out.returncode == 2, out.stderr
    assert "line 6: unexpected trailing content" in out.stderr


@pytest.mark.parametrize("inst, code", [
    (make_instance([], [1, 2], [], 0), 0),
    (make_instance([[], []], [], [1, 2], 0), 0),
    (make_instance([[], []], [], [1, 2], 1), 3),
])
def test_cli_solve_empty_dimension(workdir, inst, code):
    (workdir / "empty.pcov").write_text(formats.render_instance(inst))
    out = run_cli("solve", "--input", str(workdir / "empty.pcov"),
                  "--output", str(workdir / "empty.json"), cwd=workdir)
    assert out.returncode == code, out.stderr
    if code == 0:
        payload = json.loads((workdir / "empty.json").read_text())["payload"]
        assert payload["cover"] == [] and payload["lp_value"] == "0"


def test_cli_solve_without_sets_with_decomposition(workdir):
    out = run_cli("generate", "random", "--cover-paths", "0", "--demand-paths", "3",
                  "--out", str(workdir / "z"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    for extra in ((), ("--decomposition", str(workdir / "z.dec"))):
        solved = run_cli("solve", "--input", str(workdir / "z.pcov"), *extra,
                         cwd=workdir)
        assert solved.returncode == 0, solved.stderr


def test_cli_infeasible_exit_3(workdir):
    text = "PCOV 1\n2 1\n3/2\n1\n1 1\n1\n0\n"
    (workdir / "inf.pcov").write_text(text)
    out = run_cli("solve", "--input", str(workdir / "inf.pcov"), cwd=workdir)
    assert out.returncode == 3, out.stderr


def test_cli_size_guard_exit_5(workdir):
    inst = make_instance([[1] * 25], [1] * 25, [1], 1)
    (workdir / "wide.pcov").write_text(formats.render_instance(inst))
    out = run_cli("solve", "--input", str(workdir / "wide.pcov"), "--oracle",
                  cwd=workdir)
    assert out.returncode == 5, out.stderr


def test_cli_solve_with_decomposition(workdir):
    out = run_cli("generate", "multicut", "--seed", "3",
                  "--out", str(workdir / "mc"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    solved = run_cli("solve", "--input", str(workdir / "mc.pcov"),
                     "--decomposition", str(workdir / "mc.dec"),
                     "--output", str(workdir / "mc.json"), cwd=workdir)
    assert solved.returncode == 0, solved.stderr
    payload = json.loads((workdir / "mc.json").read_text())["payload"]
    assert payload["audits"]["feasible_for_original"] is True


def test_cli_solve_with_absorb(workdir):
    out = run_cli("generate", "multicut", "--seed", "4",
                  "--out", str(workdir / "mc"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    solved = run_cli("solve", "--input", str(workdir / "mc.pcov"),
                     "--decomposition", str(workdir / "mc.dec"),
                     "--absorb", "2", "2", "--oracle",
                     "--output", str(workdir / "mc.json"), cwd=workdir)
    assert solved.returncode == 0, solved.stderr
    payload = json.loads((workdir / "mc.json").read_text())["payload"]
    cost = F(payload["cost"])
    assert cost <= 2 * F(payload["oracle_cost"])


def test_cli_verify_commands(workdir):
    out = run_cli("generate", "random", "--seed", "5", "--nodes", "8",
                  "--cover-paths", "5", "--demand-paths", "5",
                  "--out", str(workdir / "r"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    for check in ("tb", "sgf", "lp-duality"):
        out = run_cli("verify", check, "--input", str(workdir / "r.pcov"),
                      cwd=workdir)
        assert out.returncode == 0, (check, out.stdout, out.stderr)
    out = run_cli("verify", "equitable", "--q", "2", cwd=workdir)
    assert out.returncode == 0, out.stderr


def test_cli_verify_sgf_fails_on_odd_cycle(workdir):
    inst = make_instance([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1],
                         [1, 1, 1], 0)
    (workdir / "odd.pcov").write_text(formats.render_instance(inst))
    out = run_cli("verify", "sgf", "--input", str(workdir / "odd.pcov"),
                  cwd=workdir)
    assert out.returncode == 4, (out.stdout, out.stderr)
    assert "no greedy standard form" in out.stdout


@pytest.mark.parametrize("text, perms", [
    ("PCOV 1\n0 2\n0\n1 2\n", "row_perm=[] col_perm=[0, 1]"),
    ("PCOV 1\n2 0\n0\n1 1\n", "row_perm=[0, 1] col_perm=[]"),
])
def test_cli_verify_sgf_empty_dimension(workdir, text, perms):
    # The column count comes from the header, not from a first row.
    (workdir / "empty.pcov").write_text(text)
    out = run_cli("verify", "sgf", "--input", str(workdir / "empty.pcov"),
                  cwd=workdir)
    assert out.returncode == 0, (out.stdout, out.stderr)
    assert perms in out.stdout


def test_cli_experiment_blackbox(workdir):
    out = run_cli("experiment", "blackbox", "--q", "3", "--alpha", "1", "--tu",
                  "--output", str(workdir / "bb.json"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert "ratio=4/3" in out.stdout
    payload = json.loads((workdir / "bb.json").read_text())["payload"]
    assert payload["ratio"] == "4/3"


def test_cli_experiment_gap(workdir):
    out = run_cli("experiment", "gap", "--qmax", "1",
                  "--output", str(workdir / "gap.json"), cwd=workdir)
    assert out.returncode == 0, out.stderr
    payload = json.loads((workdir / "gap.json").read_text())["payload"]
    assert payload["rows"][0]["lp"] == "13"
    assert payload["rows"][0]["ip"] == "15"


def test_experiment_gap_runs_no_simplex(workdir, monkeypatch):
    # The q = 1 LP value is the solve's, certified by strong duality.
    calls = []
    simplex = lp.solve_linear_program
    monkeypatch.setattr(lp, "solve_linear_program",
                        lambda *args: calls.append(args) or simplex(*args))
    assert main(["experiment", "gap", "--qmax", "1",
                 "--output", str(workdir / "gap.json")]) == 0
    payload = json.loads((workdir / "gap.json").read_text())["payload"]
    assert payload["rows"][0]["lp"] == "13"
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["experiment", "corpus", "--seeds", "a..3"],
    ["experiment", "corpus", "--seeds", "5..3"],
    ["solve", "--input", "{pcov}", "--absorb", "x", "2"],
    ["solve", "--input", "{pcov}", "--absorb", "-1", "2"],
    ["generate", "random", "--cover-paths", "-1"],
    ["generate", "random", "--demand-paths", "-1"],
    ["generate", "rects", "--dim", "0"],
    ["verify", "tb"],
    ["verify", "sgf"],
    ["verify", "lp-duality"],
    ["experiment", "gap", "--qmax", "0"],
    ["experiment", "gap", "--qmax", "-3"],
    ["experiment", "corpus", "--jobs", "0"],
    ["experiment", "corpus", "--jobs", "-2"],
])
def test_cli_bad_arguments_exit_2(workdir, capsys, argv):
    instance, decomposition = reduce_multicut(gen_random_tree_instance(1))
    (workdir / "mc.pcov").write_text(formats.render_instance(instance))
    (workdir / "mc.dec").write_text(formats.render_decomposition(decomposition))
    paths = {"pcov": workdir / "mc.pcov", "dec": workdir / "mc.dec"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--input", "{pcov}", "--output", "{missing}/x.json"], "cannot write"),
    (["generate", "gap", "--out", "{missing}/g"], "cannot write"),
    (["experiment", "gap", "--output", "{missing}/x"], "cannot write"),
    (["solve", "--input", "{binary}"], "cannot read"),
    (["solve", "--input", "{pcov}", "--decomposition", "{binary}"], "cannot read"),
])
def test_cli_file_errors_exit_2(workdir, capsys, argv, message):
    instance = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 1)
    (workdir / "ok.pcov").write_text(formats.render_instance(instance))
    (workdir / "bin.pcov").write_bytes(b"PCOV 1\n\xff\n")
    paths = {"pcov": workdir / "ok.pcov", "binary": workdir / "bin.pcov",
             "missing": workdir / "no" / "such"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} "), err


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "{pcov}", "--k", "4"],
    ["verify", "equitable", "--samples", "3"],
])
def test_cli_removed_options_rejected(workdir, argv):
    (workdir / "ok.pcov").write_text(formats.render_instance(
        make_instance([[1]], [1], [1], 1)))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(pcov=workdir / "ok.pcov") for arg in argv])
    assert exc.value.code == 2


def test_cli_absorb_k0_with_decomposition_is_the_rho_solve(workdir):
    # --absorb 0 A with a decomposition enumerates nothing: the plain rho solve.
    instance, decomposition = reduce_multicut(gen_random_tree_instance(4))
    (workdir / "mc.pcov").write_text(formats.render_instance(instance))
    (workdir / "mc.dec").write_text(formats.render_decomposition(decomposition))
    assert main(["solve", "--input", str(workdir / "mc.pcov"),
                 "--decomposition", str(workdir / "mc.dec"),
                 "--absorb", "0", "2", "--output", str(workdir / "a.json")]) == 0
    payload = json.loads((workdir / "a.json").read_text())["payload"]
    assert payload["cover"] == list(solve_rho_separable(instance, decomposition).cover.sets)


def test_report_payload_is_stable():
    payload = {"b": 1, "a": [2, 3]}
    assert formats.render_payload(payload) == formats.render_payload(dict(payload))
    assert formats.render_payload(payload).startswith('{\n  "a"')


PARSE_HEAD = "PCOV 1\n3 4\n1\n1 1 1 1\n1 1 1\n"


@pytest.mark.parametrize("rows, message", [
    ("x010\n0101\n1111\n", "line 6, column 1: matrix entry 'x'"),
    ("0101\n01x0\n1111\n", "line 7, column 3: matrix entry 'x'"),
    ("0101\n0101\n111 \n", None),  # stripped: a short row
    ("0101\n0101\n1112\n", "line 8, column 4: matrix entry '2'"),
    ("0101\n010\n1111\n", "line 7: matrix row has 3 characters, expected 4"),
    ("0101\n01011\n1111\n", "line 7: matrix row has 5 characters, expected 4"),
    ("010\n01011\n1111\n", "line 6: matrix row has 3 characters, expected 4"),
    ("0101\n0+01\n", "line 7, column 2: matrix entry '+'"),  # bad row, then EOF
    ("0101\n0101\n", "line 8: unexpected end of file, expected matrix row"),
    ("0101\n\n# note\n01_1\n1111\n", "line 9, column 3: matrix entry '_'"),
    ("0101\n0101\n1111\n0000\n", "line 9: unexpected trailing content '0000'"),
])
def test_parse_names_the_first_bad_row_as_a_row_by_row_parse(rows, message):
    if message is None:
        message = "line 8: matrix row has 3 characters, expected 4"
    for text in (PARSE_HEAD + rows, (PARSE_HEAD + rows).replace("\n", "\r\n")):
        with pytest.raises(InputError) as err:
            formats.parse_instance(text)
        assert str(err.value) == message


def test_parse_reads_rows_around_comments_and_crlf():
    text = PARSE_HEAD + "0101\n  \n# note\n 1000 \n0011\n# end\n"
    inst = formats.parse_instance(text)
    assert inst.row_masks == (0b1010, 0b0001, 0b1100)
    assert formats.parse_instance(text.replace("\n", "\r\n")) == inst
    with pytest.raises(InputError) as err:
        formats.parse_instance(text.replace("0011", "0021").replace("\n", "\r\n"))
    assert str(err.value) == "line 10, column 3: matrix entry '2'"


@pytest.mark.parametrize("token", ["1e3", "0.5", "1_0", "1/2/3", "0x10", "1/-2",
                                   "inf", "1/0"])
def test_only_num_or_num_slash_den_is_a_rational(token, workdir, capsys):
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(token)
    path = workdir / "bad.pcov"
    path.write_text(f"PCOV 1\n1 1\n1\n{token}\n1\n1\n")
    assert main(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 4: not a rational: {token!r}\n"
    assert main(["experiment", "blackbox", "--q", "2", "--alpha", token]) == 2
    assert capsys.readouterr().err == f"error: not a rational: {token!r}\n"


def test_documented_rationals_parse():
    for text, value in (("3", F(3)), ("-3", F(-3)), ("+3", F(3)), ("6/8", F(3, 4)),
                        ("-6/8", F(-3, 4)), (" 007/2 ", F(7, 2)), ("0", F(0))):
        assert parse_rational(text) == value
    with pytest.raises(ValueError, match="not a rational: '1 / 2'"):
        parse_rational("1 / 2")


def test_huge_exponent_is_rejected_before_any_fraction(monkeypatch, workdir, capsys):
    # Fraction("1e999999999") would build 10**999999999 before any check.
    def refuse(*args):
        raise AssertionError(f"Fraction{args!r} built for a bad token")

    monkeypatch.setattr(arith, "Fraction", refuse)
    token = "1e999999999"
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(token)
    path = workdir / "huge.pcov"
    path.write_text(f"PCOV 1\n1 1\n{token}\n1\n1\n1\n")
    assert main(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 3: not a rational: {token!r}\n"
    assert main(["experiment", "blackbox", "--q", "2", "--alpha", token]) == 2
    assert capsys.readouterr().err == f"error: not a rational: {token!r}\n"
