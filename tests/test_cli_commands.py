"""Every command of the command line runs, and the vertex table has its shape."""
import json

import pytest

from stripvertex import cli
from stripvertex.vertex import StripGeometry, glue_strip


def run_job(tmp_path, capsys, *flags, **fields):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(fields), encoding="utf-8")
    status = cli.main(["--spec", str(spec), *flags])
    return status, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("flags", [(), ("--numeric-q", "9/4")],
                         ids=["symbolic", "numeric"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_runs(tmp_path, capsys, command, flags):
    status, payload = run_job(tmp_path, capsys, "--command", command, *flags,
                              types="AB", truncation=1)
    assert status == 0
    assert payload["command"] == command


def test_vertex_table_rows(tmp_path, capsys):
    status, payload = run_job(tmp_path, capsys, command="vertex", types="AB",
                              truncation=2)
    assert status == 0
    rows = payload["coefficients"]
    assert rows[0] == [[], [], "1", "1"]
    z = glue_strip(StripGeometry("AB"), 2)
    assert len(rows) == sum(len(series.terms) for series in z.terms.values())
    status, payload = run_job(tmp_path, capsys, command="vertex", types="AB",
                              truncation=2, branes="one")
    assert status == 0
    assert payload["coefficients"] == [[l1, *rest] for l1, l2, *rest in rows
                                       if l2 == []]
