from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_checkout_writes_the_same_outputs_as_itself(tmp_path, capsys):
    work = tmp_path / "work"
    code = same_outputs.main([str(ROOT), str(ROOT), "--smoke", "--workload", "default", "--seed", "1000", "--work", str(work)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 differences and 0 failed stage runs" in out
    # the whole cycle ran: its replay reports, the backup without hints and
    # the per-block cache simulations
    cycle = work / "change" / "default" / "1000"
    for name in ("trace.bin", "hints.db", "backup.csv", "backup_nohints.csv", "keys.txt", "proto.csv"):
        assert (cycle / name).is_file(), name


def test_diff_trees_names_missing_and_changed_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        (d / "same.bin").write_bytes(b"x")
    (a / "sub" / "r.csv").write_bytes(b"1")
    (b / "sub" / "r.csv").write_bytes(b"2")
    (a / "only_a").write_bytes(b"")
    (b / "only_b").write_bytes(b"")
    assert same_outputs.diff_trees(a, b) == ["only_a: only in parent", "only_b: only in change", "sub/r.csv: bytes differ"]


def test_diff_results_names_each_differing_stream():
    a = {("default", 1000, "gen-trace"): (0, b"wrote\n", b""), ("default", 1000, "proto"): (0, b"", b"")}
    b = {("default", 1000, "gen-trace"): (1, b"wrote\n", b"boom\n")}
    assert same_outputs.diff_results(a, b) == [
        "default/1000 gen-trace: exit code differs (0 vs 1)",
        "default/1000 gen-trace: stderr differs (b'' vs b'boom\\n')",
        "default/1000 proto: ran only in parent",
    ]
