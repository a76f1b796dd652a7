"""CLI outputs pinned to files in tests/golden.

The files were written by an earlier version of the program; any change
to scalar arithmetic or serialisation that moves one byte fails here.
Every value is exact but the lambda line of reznikov --mode float, the
one float the program prints.
"""

from pathlib import Path

import pytest

from chernweil.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_generate_clutch_files(tmp_path, capsys):
    assert main(["generate", "clutch", "--n", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("space.txt", "bundle.txt", "connection.txt"):
        assert (tmp_path / name).read_text() == (GOLDEN / f"clutch2_{name}").read_text(), name


def test_generate_horn_demo_files(tmp_path, monkeypatch, capsys):
    # a relative --out, so the report's echo of it is the same in any cwd
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "horn-demo", "--n", "3", "--k", "1", "--seed", "3", "--out", "hd"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "horn_demo_n3k1_seed3.out").read_text()
    for name in ("horn-space", "horn-bundle", "filled-space", "filled-bundle"):
        golden = GOLDEN / f"horn_demo_n3k1_seed3_{name}.txt"
        assert (tmp_path / "hd" / f"{name}.txt").read_text() == golden.read_text(), name


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["chern", "--bundle", "clutch:2", "--poly", "chern:1"], "chern_clutch2_chern1.out"),
        (["clutch", "--n", "3"], "clutch_n3.out"),
        (["horn-fill", "--n", "3", "--k", "1", "--seed", "4"], "horn_fill_n3k1_seed4.out"),
        (["reznikov", "--k", "2", "--mode", "float"], "reznikov_k2_float.out"),
        (["reznikov", "--k", "4", "--mode", "float"], "reznikov_k4_float.out"),
    ],
)
def test_report_stdout(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_verify_all_seed1_stdout(capsys):
    # every check's detail line, each decided by ==, so a changed check
    # or a reworded verdict fails here
    assert main(["verify", "--suite", "all", "--seed", "1"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify_all_seed1.out").read_bytes()
