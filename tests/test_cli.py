"""Tests for the command line front end."""
import json

import pytest

from stripvertex import cli


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    return status, capsys.readouterr()


def write_spec(tmp_path, name="job.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def test_mirror_curve_conifold(tmp_path, capsys):
    spec = write_spec(tmp_path, types="AB", command="mirror-curve")
    status, out = run_cli(capsys, "--spec", spec)
    assert status == 0
    payload = json.loads(out.out)
    assert payload["classical"]["y"] == ["1", "-1"]
    assert payload["classical"]["one"] == ["1", "(-1)*Q1"]
    assert payload["quantum"]["A"] == ["1", "-t"]
    assert payload["quantum"]["B"] == ["1", "(-t)*Q1"]


def test_verify_dilog_passes(capsys):
    status, out = run_cli(capsys, "--command", "verify-dilog", "--cap", "3")
    assert status == 0
    payload = json.loads(out.out)
    assert payload["pass"] is True
    assert {r["check"] for r in payload["reports"]} == {
        "skein-dilog-recurrence-forward", "skein-dilog-recurrence-inverse"}


def test_partition_table_has_unit_constant(tmp_path, capsys):
    spec = write_spec(tmp_path, types="AB", truncation=2)
    status, out = run_cli(capsys, "--spec", spec, "--command", "partition")
    assert status == 0
    payload = json.loads(out.out)
    assert payload["coefficients"][0] == [[], [], "1", "1"]
    one_box = [r for r in payload["coefficients"] if r[0] == [1] and r[1] == []]
    # disk amplitude of the conifold: (1 - Q1)/{1} at the first boundary
    assert [r[2:] for r in one_box] == [
        ["1", "(t)/(-1 + t^2)"], ["Q1", "(-t)/(-1 + t^2)"]]


def test_invalid_inputs_exit_two(tmp_path, capsys, monkeypatch):
    bad_types = write_spec(tmp_path, "a.json", types="", command="vertex")
    assert run_cli(capsys, "--spec", bad_types)[0] == 2
    no_cmd = write_spec(tmp_path, "b.json", types="AB")
    assert run_cli(capsys, "--spec", no_cmd)[0] == 2
    bad_q = write_spec(tmp_path, "c.json", types="AB", command="vertex",
                       q_mode="numeric", q_value="2")
    assert run_cli(capsys, "--spec", bad_q)[0] == 2
    unit_q = write_spec(tmp_path, "d.json", types="AB", command="vertex",
                        q_mode="numeric", q_value=1)
    assert run_cli(capsys, "--spec", unit_q)[0] == 2
    bad_cap = write_spec(tmp_path, "e.json", types="AB", command="vertex",
                         truncation=-1)
    assert run_cli(capsys, "--spec", bad_cap)[0] == 2
    # a misspelled key is named, not read as its default
    typo = write_spec(tmp_path, "g.json", types="AB", command="verify-strip",
                      truncaton=9)
    status, out = run_cli(capsys, "--spec", typo)
    assert status == 2
    assert "'truncaton'" in out.err
    # a q_value is refused when q_mode is symbolic, given or defaulted ...
    for extra in ({}, {"q_mode": "symbolic"}):
        stray_q = write_spec(tmp_path, "h.json", types="AB", command="vertex",
                             q_value="9/4", **extra)
        assert run_cli(capsys, "--spec", stray_q)[0] == 2, extra
    # ... but --numeric-q overrides the spec's q fields
    assert run_cli(capsys, "--spec", stray_q, "--cap", "1",
                   "--numeric-q", "9/4")[0] == 0
    # an output file that cannot be written is a job error, not a failed check
    status, out = run_cli(capsys, "--command", "verify-dilog", "--cap", "2",
                          "--out", str(tmp_path / "missing" / "x.json"))
    assert status == 2
    assert out.err.startswith("error: cannot write output file:")
    # a cap above the ceiling must be refused before any work starts
    def refuse(job):
        raise AssertionError(f"{job['command']} ran with truncation {job['cap']}")

    for runner in ("_run_table", "_run_verify", "_run_mirror_curve"):
        monkeypatch.setattr(cli, runner, refuse)
    huge_cap = write_spec(tmp_path, "f.json", types="AB", command="vertex",
                          truncation=1000)
    assert run_cli(capsys, "--spec", huge_cap)[0] == 2
    for command, ceiling in cli.MAX_CAP.items():
        status = run_cli(capsys, "--spec", huge_cap, "--command", command,
                         "--cap", str(ceiling + 1))[0]
        assert status == 2, command
    # and so must a strip word above the ceiling, for every command taking one
    long_word = write_spec(tmp_path, "i.json", types="A" * (cli.MAX_WORD + 1),
                           command="vertex", truncation=1)
    for command in cli.COMMANDS:
        if command not in ("verify-dilog", "verify-two-leg"):
            status, out = run_cli(capsys, "--spec", long_word, "--command", command)
            assert status == 2, command
            assert "ceiling" in out.err, command
    # argparse rejects names outside the command list
    with pytest.raises(SystemExit) as err:
        cli.main(["--command", "verify-everything"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("out", [True, False, 2, 1.5, ["x"], {"a": 1}],
                         ids=["true", "false", "int", "float", "list", "object"])
def test_out_that_is_not_a_path_exits_two(out, tmp_path, capsys):
    # fd 1 or 2 taken as a path would write there, then close it
    spec = write_spec(tmp_path, command="verify-dilog", truncation=1, out=out)
    status, captured = run_cli(capsys, "--spec", spec)
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: out must be a file path\n"


def test_failed_verification_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_two_leg_product",
                        lambda cap, ring: {"check": "two-leg", "pass": False})
    status, out = run_cli(capsys, "--command", "verify-two-leg", "--cap", "2")
    assert status == 1
    assert json.loads(out.out)["pass"] is False


def test_output_is_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, types="ABA", truncation=3)
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    for out in (out1, out2):
        status, _ = run_cli(capsys, "--spec", spec, "--command", "closed-form",
                            "--out", str(out))
        assert status == 0
    assert out1.read_bytes() == out2.read_bytes()
    # numeric mode reuses the same table shape
    status, _ = run_cli(capsys, "--spec", spec, "--command", "closed-form",
                        "--numeric-q", "9/4", "--out", str(out1))
    assert status == 0
    rows = json.loads(out1.read_text())["coefficients"]
    assert rows[0][:3] == [[], [], "1"]


def test_one_brane_closed_form_matches_glue(tmp_path, capsys):
    spec = write_spec(tmp_path, types="AB", truncation=3, branes="one")
    status, out = run_cli(capsys, "--spec", spec, "--command", "closed-form")
    assert status == 0
    direct = json.loads(out.out)["coefficients"]
    status, out = run_cli(capsys, "--spec", spec, "--command", "partition")
    assert status == 0
    glued = json.loads(out.out)["coefficients"]
    assert direct == glued
