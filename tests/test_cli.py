from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Optional

import pytest

from ira.backup import ROUTES
from ira.cli import EXIT_COMPLETENESS, EXIT_CONFIG, EXIT_DIGEST, EXIT_OK, main
from ira.config import DEFAULT_CONFIG, content_hash, load_config
from ira.workload import OpKind, iter_trace_file

from conftest import demo_params, reroute_zero_key_to_plain


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cfg") / "demo.json"
    cfg = {
        "generator": demo_params(blocks=6)._asdict(),
        "pipeline": {"batch_size": 2, "channel_capacity": 4, "warmup_blocks": 2},
    }
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def demo_pipeline(demo_config, tmp_path_factory):
    """Full CLI flow on the small fixture: gen-trace, build-store, all runs."""
    d = tmp_path_factory.mktemp("run")
    c = str(demo_config)
    assert main(["--config", c, "gen-trace", "--out", str(d / "t.trace")]) == EXIT_OK
    assert main(["--config", c, "build-store", "--trace", str(d / "t.trace"), "--out", str(d / "store")]) == EXIT_OK
    assert (
        main(
            [
                "--config", c, "run-primary",
                "--trace", str(d / "t.trace"),
                "--store", str(d / "store"),
                "--hints-out", str(d / "hints.db"),
                "--digests-out", str(d / "digests.bin"),
                "--report", str(d / "primary.csv"),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "--config", c, "run-baseline",
                "--trace", str(d / "t.trace"),
                "--store", str(d / "store"),
                "--report", str(d / "baseline.csv"),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "--config", c, "run-backup",
                "--trace", str(d / "t.trace"),
                "--store", str(d / "store"),
                "--hints", str(d / "hints.db"),
                "--digests", str(d / "digests.bin"),
                "--report", str(d / "backup.csv"),
            ]
        )
        == EXIT_OK
    )
    return d, c


def test_full_pipeline_compare_exits_zero(demo_pipeline, tmp_path):
    d, c = demo_pipeline
    rc = main(
        [
            "compare",
            "--baseline", str(d / "baseline.csv"),
            "--backup", str(d / "backup.csv"),
            "--out", str(tmp_path / "compare.csv"),
        ]
    )
    assert rc == EXIT_OK
    with open(tmp_path / "compare.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    for row in rows:
        denom = int(row["t_wait"]) + int(row["t_exec"])
        expect = int(row["t_baseline"]) / denom if denom else float("inf")
        assert float(row["speedup"]) == expect


def test_primary_report_schema(demo_pipeline):
    d, _ = demo_pipeline
    with open(d / "primary.csv") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == [
            "block",
            "exec_cost",
            "serialize_cost",
            "raw_bytes",
            "compressed_bytes",
        ]
        rows = list(reader)
    assert len(rows) == 6
    assert all(int(r["raw_bytes"]) >= 16 for r in rows)


def test_primary_sidecar_reports_serialize_overheads(demo_pipeline):
    d, _ = demo_pipeline
    with open(d / "primary.csv") as f:
        rows = list(csv.DictReader(f))
    serialize = sum(int(r["serialize_cost"]) for r in rows)
    execute = sum(int(r["exec_cost"]) for r in rows)
    # block b's hint is serialized while block b + 1 runs
    exec_end = hint_end = 0
    for r in rows:
        exec_end += int(r["exec_cost"])
        hint_end = max(exec_end, hint_end) + int(r["serialize_cost"])
    meta = json.loads((d / "primary.csv.meta.json").read_text())
    assert 0 < meta["sequential_overhead"] == round(serialize / execute, 6)
    assert 0 < meta["pipelined_overhead"] == round(hint_end / execute - 1, 6)
    assert meta["pipelined_overhead"] <= meta["sequential_overhead"]


def test_backup_sidecar_splits_prefetch_by_route(demo_pipeline):
    d, _ = demo_pipeline
    meta = json.loads((d / "backup.csv.meta.json").read_text())
    assert tuple(meta["prefetch_by_route"]) == tuple(sorted(ROUTES))
    assert sum(meta["prefetch_by_route"].values()) == meta["prefetch_total"] > 0


def _run_primary(d: Path, c: str, out: Path, capsys):
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-primary",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints-out", str(out / "hints.db"),
            "--digests-out", str(out / "digests.bin"),
            "--report", str(out / "primary.csv"),
        ]
    )
    return rc, capsys.readouterr().err


def test_primary_rerun_into_its_own_hint_db_changes_no_output(demo_pipeline, tmp_path, capsys):
    from ira.primary import HintDb

    d, c = demo_pipeline
    names = ("hints.db", "digests.bin", "primary.csv", "primary.csv.meta.json")
    for name in names:
        (tmp_path / name).write_bytes((d / name).read_bytes())
    rc, err = _run_primary(d, c, tmp_path, capsys)
    assert rc == EXIT_CONFIG
    assert err.strip() == f"run-primary: {tmp_path / 'hints.db'} already holds a hint for block 1"
    for name in names:
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name

    # the first block of the trace that the database holds is named, in
    # trace order, whatever order the database wrote its records in
    partial = tmp_path / "partial"
    partial.mkdir()
    with HintDb(d / "hints.db", create=False) as src, HintDb(partial / "hints.db") as dst:
        for b in (5, 3):
            dst.write_hint(b, src.read_hint(b))
    blob = (partial / "hints.db").read_bytes()
    rc, err = _run_primary(d, c, partial, capsys)
    assert rc == EXIT_CONFIG and err.strip().endswith("already holds a hint for block 3")
    assert (partial / "hints.db").read_bytes() == blob
    assert sorted(p.name for p in partial.iterdir()) == ["hints.db"]


@pytest.mark.parametrize(
    "hint_blocks, digest_blocks, clash",
    [
        # blocks 1 and 2 go into both logs, then block 3's hint clashes
        ((3, 4, 5, 6), (3, 4, 5, 6), ("hints.db", "a hint for block 3")),
        # refusal goes in block order: block 2's digest before block 5's hint
        ((5,), (2,), ("digests.bin", "a digest for block 2")),
    ],
)
def test_primary_rerun_into_partial_outputs_puts_every_output_back(
    demo_pipeline, tmp_path, capsys, hint_blocks, digest_blocks, clash
):
    from ira.primary import DigestLog, HintDb

    d, c = demo_pipeline
    digests = DigestLog(d / "digests.bin").read_all()
    with HintDb(d / "hints.db", create=False) as src, HintDb(tmp_path / "hints.db") as dst:
        for b in hint_blocks:
            dst.write_hint(b, src.read_hint(b))
    with DigestLog(tmp_path / "digests.bin", create=True) as log:
        for b in digest_blocks:
            log.write(b, digests[b])
    for name in ("primary.csv", "primary.csv.meta.json"):
        (tmp_path / name).write_bytes((d / name).read_bytes())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc, err = _run_primary(d, c, tmp_path, capsys)
    assert rc == EXIT_CONFIG
    assert err == f"run-primary: {tmp_path / clash[0]} already holds {clash[1]}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_compare_refuses_mismatched_cost_model(demo_pipeline, tmp_path):
    d, _ = demo_pipeline
    # tamper with the baseline sidecar's cost-model hash
    side = Path(str(d / "baseline.csv") + ".meta.json")
    meta = json.loads(side.read_text())
    meta["cost_model_hash"] = "0" * 64
    tampered = tmp_path / "baseline.csv"
    tampered.write_bytes((d / "baseline.csv").read_bytes())
    Path(str(tampered) + ".meta.json").write_text(json.dumps(meta))
    rc = main(
        [
            "compare",
            "--baseline", str(tampered),
            "--backup", str(d / "backup.csv"),
            "--out", str(tmp_path / "compare.csv"),
        ]
    )
    assert rc == EXIT_CONFIG


def _edit_report(text: str, column: str, first_cell: Optional[str] = None) -> str:
    """The report CSV ``text`` without ``column``, or with ``column`` of its
    first row set to ``first_cell``."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if first_cell is None:
        fields = [f for f in rows[0] if f != column]
    else:
        fields = list(rows[0])
        rows[0][column] = first_cell
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize(
    "target, mangle, message",
    [
        ("baseline.csv.meta.json", lambda text: "{not json", "Expecting property name"),
        ("backup.csv.meta.json", lambda text: "[1, 2]", "sidecar must be a JSON object, got list"),
        ("backup.csv", lambda text: _edit_report(text, "t_wait"), "no column 't_wait'"),
        ("baseline.csv", lambda text: _edit_report(text, "block", "one"), "invalid literal for int()"),
    ],
    ids=["sidecar-not-json", "sidecar-not-an-object", "report-missing-a-column", "cell-not-an-integer"],
)
def test_compare_malformed_input_is_exit_2_naming_the_file(demo_pipeline, tmp_path, capsys, target, mangle, message):
    d, _ = demo_pipeline
    for name in ("baseline.csv", "baseline.csv.meta.json", "backup.csv", "backup.csv.meta.json"):
        (tmp_path / name).write_bytes((d / name).read_bytes())
    bad = tmp_path / target
    bad.write_text(mangle(bad.read_text()))
    capsys.readouterr()
    rc = main(["compare", "--baseline", str(tmp_path / "baseline.csv"), "--backup", str(tmp_path / "backup.csv"),
               "--out", str(tmp_path / "compare.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"compare: {bad}: ") and message in err, err
    assert not (tmp_path / "compare.csv").exists()


def test_backup_without_hints_falls_back(demo_pipeline, tmp_path):
    d, c = demo_pipeline
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--digests", str(d / "digests.bin"),
            "--report", str(tmp_path / "fallback.csv"),
        ]
    )
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "fallback.csv.meta.json").read_text())
    assert meta["fallback_blocks"] == 6


def test_backup_digest_mismatch_exit_code(demo_pipeline, tmp_path):
    from ira.primary import DigestLog

    d, c = demo_pipeline
    # a whole log whose digest of block 1 has one byte flipped
    bad = tmp_path / "digests.bin"
    with DigestLog(d / "digests.bin") as src, DigestLog(bad, create=True) as log:
        for b, digest in src.read_all().items():
            log.write(b, bytes([digest[0] ^ 0xFF]) + digest[1:] if b == 1 else digest)
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--digests", str(bad),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    assert rc == EXIT_DIGEST


def test_backup_corrupt_digest_record_is_exit_2_naming_the_log(demo_pipeline, tmp_path, capsys):
    # a byte flipped under a record's crc is a corrupt log, not a mismatch
    d, c = demo_pipeline
    blob = bytearray((d / "digests.bin").read_bytes())
    blob[8 + 16 + 5] ^= 0xFF  # inside the first record's digest
    bad = tmp_path / "digests.bin"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--digests", str(bad),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"hint database error: digest record for block 1 in {bad} is corrupt\n"
    assert not (tmp_path / "backup.csv").exists()


def test_backup_summary_counts_the_blocks_it_verified(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    rc, out, _ = _run_backup(d, c, d / "hints.db", tmp_path / "backup.csv", capsys)
    assert rc == EXIT_OK
    assert out.splitlines()[-1] == f"run-backup: digests of 6 of 6 blocks verified against {d / 'digests.bin'}"


def test_backup_digests_at_a_missing_path_is_missing_input(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    missing = tmp_path / "nosuch.bin"
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--digests", str(missing),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert err.startswith("missing input: ") and "verified" not in out
    assert not missing.exists()
    assert not (tmp_path / "backup.csv").exists()


def test_backup_digests_of_other_blocks_verify_nothing(demo_pipeline, tmp_path, capsys):
    from ira.primary import DigestLog

    d, c = demo_pipeline
    with DigestLog(tmp_path / "other.bin", create=True) as other:
        other.write(999, bytes(32))
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--digests", str(other.path),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert err.strip() == f"run-backup: no replayed block has a digest in {other.path}"
    assert "verified" not in out


def test_backup_incomplete_hint_exit_code(demo_pipeline, tmp_path):
    # a structurally valid hint that omits a touched key must halt replay
    from ira.primary import Hint, HintDb, compress_hint, serialize_hint

    d, c = demo_pipeline
    src = HintDb(d / "hints.db", create=False)
    weak_path = tmp_path / "weak.db"
    weak = HintDb(weak_path)
    for block in src.blocks():
        # structurally valid but empty: the first account touch must miss
        weak.write_hint(block, compress_hint(serialize_hint(Hint(block, [], [], []))))
    src.close()
    weak.close()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(weak_path),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    assert rc == EXIT_COMPLETENESS


def _run_backup(d: Path, c: str, hints: Path, report: Path, capsys):
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(hints),
            "--digests", str(d / "digests.bin"),
            "--report", str(report),
        ]
    )
    out, err = capsys.readouterr()
    return rc, out, err


def test_backup_summary_line_shows_wait_and_workers(demo_pipeline, tmp_path, capsys):
    # the stall and the lane count are on stdout, equal to the sidecar's
    d, c = demo_pipeline
    rc, out, _ = _run_backup(d, c, d / "hints.db", tmp_path / "backup.csv", capsys)
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "backup.csv.meta.json").read_text())
    summary = out.splitlines()[0]
    assert f", wait {meta['wait_total']}, workers {meta['workers']}, " in summary
    assert meta["workers"] == 16 and meta["wall_cost"] == meta["wait_total"] + meta["exec_total"]


def test_backup_unservable_hint_falls_back_for_its_block(demo_pipeline, tmp_path, capsys):
    from ira.primary import HintDb

    d, c = demo_pipeline
    with HintDb(d / "hints.db", create=False) as src:
        bad = reroute_zero_key_to_plain(src, tmp_path / "rerouted.db", 4)
    rc, _, _ = _run_backup(d, c, tmp_path / "rerouted.db", tmp_path / "backup.csv", capsys)
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "backup.csv.meta.json").read_text())
    assert meta["fallback_blocks"] == 1 and meta["corrupt_hints"] == 1
    with open(tmp_path / "backup.csv") as f:
        assert [int(r["block"]) for r in csv.DictReader(f) if r["fallback"] == "1"] == [bad]


def test_backup_torn_hint_record_header_changes_no_output(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    torn = tmp_path / "torn.db"
    torn.write_bytes((d / "hints.db").read_bytes() + b"\x01\x02\x03")
    rc, out, err = _run_backup(d, c, torn, tmp_path / "torn.csv", capsys)
    assert rc == EXIT_OK
    assert "torn tail of 3 bytes" in err
    rc, whole_out, _ = _run_backup(d, c, d / "hints.db", tmp_path / "whole.csv", capsys)
    assert rc == EXIT_OK
    assert out == whole_out
    assert (tmp_path / "torn.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "torn.csv.meta.json").read_bytes() == (tmp_path / "whole.csv.meta.json").read_bytes()


def test_backup_torn_hint_record_payload_falls_back_for_its_block(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    blob = (d / "hints.db").read_bytes()
    torn = tmp_path / "torn.db"
    torn.write_bytes(blob[:-5])  # the last block's record, cut five bytes short
    rc, _, err = _run_backup(d, c, torn, tmp_path / "backup.csv", capsys)
    assert rc == EXIT_OK
    assert "torn tail of" in err
    assert torn.read_bytes() == blob[:-5]
    meta = json.loads((tmp_path / "backup.csv.meta.json").read_text())
    assert meta["fallback_blocks"] == 1 and meta["corrupt_hints"] == 0
    with open(tmp_path / "backup.csv") as f:
        assert [int(r["block"]) for r in csv.DictReader(f) if r["fallback"] == "1"] == [6]


def test_backup_torn_digest_log_tail_is_reported_and_left_alone(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    blob = (d / "digests.bin").read_bytes()
    torn = tmp_path / "digests.bin"
    torn.write_bytes(blob[:-20])  # the last block's 48-byte record, cut 20 bytes short
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--digests", str(torn),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    out, err = capsys.readouterr()
    assert rc == EXIT_OK
    assert f"ignoring a torn tail of 28 bytes in {torn}" in err
    assert "digests of 5 of 6 blocks verified" in out
    assert torn.read_bytes() == blob[:-20]


def test_backup_bad_hint_database_header_is_exit_2(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    bad = tmp_path / "bad.db"
    bad.write_bytes(b"XDB1" + (d / "hints.db").read_bytes()[4:])
    rc, _, err = _run_backup(d, c, bad, tmp_path / "backup.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.startswith("hint database error: bad hint database header")


@pytest.mark.parametrize("command", ["build-store", "run-backup"])
def test_bad_trace_magic_is_exit_2(demo_pipeline, tmp_path, capsys, command):
    d, c = demo_pipeline
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"XXXX")
    if command == "build-store":
        args = ["--out", str(tmp_path / "store")]
    else:
        args = ["--store", str(d / "store"), "--hints", str(d / "hints.db"), "--report", str(tmp_path / "b.csv")]
    capsys.readouterr()
    rc = main(["--config", c, command, "--trace", str(bad), *args])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("trace error: bad trace magic")


def test_trace_header_cut_short_is_exit_2(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    cut = tmp_path / "cut.trace"
    cut.write_bytes((d / "t.trace").read_bytes()[:20])  # inside the params JSON
    capsys.readouterr()
    rc = main(["--config", c, "run-baseline", "--trace", str(cut), "--store", str(d / "store"),
               "--report", str(tmp_path / "baseline.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("trace error: truncated trace header")


@pytest.mark.parametrize("params", [b"{bad!", b'{"no_such_param": 1}', b"[]"])
def test_bad_trace_params_are_exit_2(demo_config, tmp_path, capsys, params):
    import struct

    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"TRC1" + struct.pack("<HI", 1, len(params)) + params + struct.pack("<Q", 0))
    capsys.readouterr()
    rc = main(["--config", str(demo_config), "build-store", "--trace", str(bad), "--out", str(tmp_path / "store")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("trace error: bad trace params")


def test_cachesim_text_trace(tmp_path, capsys):
    trace_file = tmp_path / "keys.txt"
    trace_file.write_text("C\nA\nC\n")
    rc = main(
        [
            "cachesim",
            "--trace-file", str(trace_file),
            "--capacity", "2",
            "--init", "A,B",
            "--policy", "both",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "lru_misses          2" in out
    assert "belady_misses       1" in out


def _cachesim_table(out: str) -> dict:
    return dict(line.split(None, 1) for line in out.splitlines())


def _storage_keys_of_block(trace: Path, number: int) -> list:
    """The block's storage reads and writes in op order, as hex keys."""
    block = next(b for b in iter_trace_file(trace) if b.number == number)
    return [
        key.hex()
        for tx in block.txs
        for kind, key, _ in tx.ops
        if kind in (OpKind.STORAGE_READ, OpKind.STORAGE_WRITE)
    ]


def test_cachesim_from_block_trace(demo_pipeline, capsys, tmp_path):
    d, _ = demo_pipeline
    rc = main(
        [
            "cachesim",
            "--trace", str(d / "t.trace"),
            "--block", "1",
            "--capacity", "4",
            "--policy", "both",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "lru_misses" in out

    # the block route simulates block 1's own storage accesses, in op order
    keys = _storage_keys_of_block(d / "t.trace", 1)
    table = _cachesim_table(out)
    assert table["accesses"] == str(len(keys))
    assert int(table["belady_misses"]) <= int(table["lru_misses"])

    key_list = tmp_path / "block1.txt"
    key_list.write_text("".join(k + "\n" for k in keys))
    rc = main(["cachesim", "--trace-file", str(key_list), "--capacity", "4", "--policy", "both"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == out


def test_cachesim_unknown_block_is_config_error(demo_pipeline, capsys):
    d, _ = demo_pipeline
    rc = main(["cachesim", "--trace", str(d / "t.trace"), "--block", "99", "--capacity", "4"])
    assert rc == EXIT_CONFIG
    assert "not in trace" in capsys.readouterr().err


def test_cachesim_without_source_names_only_declared_options(capsys):
    rc = main(["cachesim", "--capacity", "4"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "need --trace-file, or --trace with --block" in err
    assert "--access-log" not in err


@pytest.mark.parametrize("domain", ["storage", "account", "code", "all"])
def test_cachesim_block_route_with_init(demo_pipeline, capsys, domain):
    d, _ = demo_pipeline
    rc = main(
        [
            "cachesim",
            "--trace", str(d / "t.trace"),
            "--block", "1",
            "--capacity", "4",
            "--domain", domain,
            "--init", "A,B",
        ]
    )
    assert rc == EXIT_OK
    assert "lru_misses" in capsys.readouterr().out


def test_cachesim_block_route_init_takes_hex_keys(demo_pipeline, capsys):
    d, _ = demo_pipeline
    base = ["cachesim", "--trace", str(d / "t.trace"), "--block", "1", "--capacity", "4"]
    assert main(base) == EXIT_OK
    cold = _cachesim_table(capsys.readouterr().out)
    # warming the first accessed key turns exactly its first access into a hit
    first = _storage_keys_of_block(d / "t.trace", 1)[0]
    assert main(base + ["--init", first]) == EXIT_OK
    warm = _cachesim_table(capsys.readouterr().out)
    assert int(warm["lru_misses"]) == int(cold["lru_misses"]) - 1
    assert int(warm["belady_misses"]) == int(cold["belady_misses"]) - 1


def test_cachesim_capacity_zero_is_config_error(tmp_path, capsys):
    key_list = tmp_path / "keys.txt"
    key_list.write_text("C\nA\nC\n")
    rc = main(["cachesim", "--trace-file", str(key_list), "--capacity", "0"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cachesim: cache capacity must be >= 1")


@pytest.mark.parametrize("policy", ["lru", "belady", "both"])
def test_cachesim_init_over_capacity_is_config_error(tmp_path, capsys, policy):
    key_list = tmp_path / "keys.txt"
    key_list.write_text("C\nA\nC\n")
    rc = main(
        ["cachesim", "--trace-file", str(key_list), "--capacity", "2", "--init", "A,B,D", "--policy", policy]
    )
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("cachesim: initial contents exceed capacity")
    assert captured.out == ""


def test_cachesim_bad_trace_magic_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"NOPE" + bytes(64))
    rc = main(["cachesim", "--trace", str(bad), "--block", "1", "--capacity", "4"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("trace error: bad trace magic")


def test_proto_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "batches": 5,
                "ops_per_batch": 30,
                "key_space": 100,
                "encoding": "bloom",
                "strategy": "sideband",
                "seed": 3,
            }
        )
    )
    rc = main(["proto", "--scenario", str(scenario), "--report", str(tmp_path / "proto.csv")])
    assert rc == EXIT_OK
    assert "states_match=True" in capsys.readouterr().out
    with open(tmp_path / "proto.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5


def test_proto_sideband_loss_leaves_the_batches_alone(tmp_path):
    # the sideband's losses have their own random stream: a lossy link sends
    # the same batches, so the hints and the prefetches stay as they were
    columns = {}
    for loss in (0.0, 0.5):
        path = tmp_path / f"scenario-{loss}.json"
        path.write_text(json.dumps({"strategy": "sideband", "batches": 5, "loss_probability": loss}))
        report = tmp_path / f"proto-{loss}.csv"
        assert main(["proto", "--scenario", str(path), "--report", str(report)]) == EXIT_OK
        with open(report) as f:
            rows = list(csv.DictReader(f))
        columns[loss] = [(r["hint_bytes"], r["prefetched"]) for r in rows]
        if loss:
            assert any(r["hint_ready"] == "" for r in rows)  # some hints were lost
    assert columns[0.0] == columns[0.5]


# sha256 of proto.csv, its sidecar and stdout, as 9bbbb75 wrote them: each
# encoding and strategy once, and a lossy sideband link, whose report
# changed when the sideband's losses got a random stream of their own
PROTO_PINS = {
    "bloom-inline": (
        {"batches": 40, "ops_per_batch": 100, "key_space": 1000, "encoding": "bloom", "seed": 1001},
        "701d5f3d92c77950ede7c9907e01102bdc5edaf89deefc7fdf29f2a674c5c5a6",
        "d7204e2ddd122b9928a1d7c99e8a80890c84e4baf9cbc2c4441a95cd322c300a",
        "7cd5ff8f045d22e224443a0a1bbcde989cb9f921717cfef3f726659734eea3cd",
    ),
    "prefix-sideband-lossy": (
        {"encoding": "prefix", "strategy": "sideband", "loss_probability": 0.5},
        "ba82c6188fe3cf069569584d054cb5c8057cff85c43374b8c4f85ca13d2d9fcb",
        "56be149d24512d5977e46630508c79d646cf06f9ddb8d7f08a3551a258774efc",
        "777d96de4c1261a8557626823f10709386cd55d7d693c38deed3da4ef3757424",
    ),
    "range-on_demand": (
        {"encoding": "range", "strategy": "on_demand", "miss_rate": 0.2},
        "2875d7b2643f39acc3f65140b6c39c4f1f1440e4532c07bbf521ef107090cdfe",
        "a5206e92c1c7fc39092cec36ccdd50909f42fe97528feabb6d1fd7984787c985",
        "777d96de4c1261a8557626823f10709386cd55d7d693c38deed3da4ef3757424",
    ),
    "exact-on_demand": (
        {"encoding": "exact", "strategy": "on_demand"},
        "428e050873fe985fa91a5e521aa65090b17fa2570692d3525b5049d388c3abb9",
        "94381a56afb0257de7e3588ccb4a44fb42dc00a0b2a53c3b886b66848d4d2316",
        "777d96de4c1261a8557626823f10709386cd55d7d693c38deed3da4ef3757424",
    ),
}


@pytest.mark.parametrize("name", list(PROTO_PINS))
def test_proto_outputs_keep_their_bytes(tmp_path, capsys, name):
    scenario, report_sha, sidecar_sha, stdout_sha = PROTO_PINS[name]
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    capsys.readouterr()
    assert main(["proto", "--scenario", str(tmp_path / "scenario.json"), "--report", str(tmp_path / "proto.csv")]) == EXIT_OK
    outputs = ((tmp_path / "proto.csv").read_bytes(), (tmp_path / "proto.csv.meta.json").read_bytes(),
               capsys.readouterr().out.encode())
    assert [hashlib.sha256(data).hexdigest() for data in outputs] == [report_sha, sidecar_sha, stdout_sha]


@pytest.mark.parametrize(
    "scenario",
    [{"batches": 0}, {"encoding": "foo"}, {"strategy": "foo"}, {"latency": "abc"}, [{"batches": 2}]],
    ids=["no-batches", "encoding", "strategy", "latency", "list-root"],
)
def test_proto_rejects_malformed_scenario(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc = main(["proto", "--scenario", str(path), "--report", str(tmp_path / "proto.csv")])
    assert rc == EXIT_CONFIG
    assert "proto scenario" in capsys.readouterr().err
    assert not (tmp_path / "proto.csv").exists()


def test_proto_rejects_target_fpr_beyond_the_probe_limit(tmp_path, capsys):
    # 1e-80 needs 266 probes, and a bloom hint stores the count in one byte
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"encoding": "bloom", "target_fpr": 1e-80, "batches": 2}))
    rc = main(["proto", "--scenario", str(path), "--report", str(tmp_path / "proto.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: proto scenario: target_fpr must be ")
    assert not (tmp_path / "proto.csv").exists()


def test_proto_rejects_unknown_scenario_settings(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"encodng": "bloom", "batches": 2, "batchs": 2}))
    rc = main(["proto", "--scenario", str(path), "--report", str(tmp_path / "proto.csv")])
    assert rc == EXIT_CONFIG
    # the first unknown setting is named, as in a config section
    assert capsys.readouterr().err == (
        "config error: proto scenario: Scenario.__new__() got an unexpected keyword argument 'encodng'\n"
    )
    assert not (tmp_path / "proto.csv").exists()


@pytest.mark.parametrize("content", ["trace-head", "utf16-bom"])
@pytest.mark.parametrize("command", ["cachesim", "proto"])
def test_input_file_that_is_not_utf8_is_exit_2(demo_pipeline, tmp_path, capsys, command, content):
    d, _ = demo_pipeline
    data = (d / "t.trace").read_bytes()[:300] if content == "trace-head" else b"\xff\xfe"
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "input"
    path.write_bytes(data)
    argv, prefix = {
        "cachesim": (["cachesim", "--trace-file", str(path), "--capacity", "4"], f"cachesim: {path}: "),
        "proto": (["proto", "--scenario", str(path), "--report", str(tmp_path / "proto.csv")], "proto: cannot read scenario: "),
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and "can't decode byte" in captured.err, captured.err
    assert captured.out == ""
    assert not (tmp_path / "proto.csv").exists()


def test_analyze_reports_flat_stats(demo_pipeline, capsys, tmp_path):
    d, _ = demo_pipeline
    rc = main(
        [
            "--out-dir", str(tmp_path / "reports"),
            "analyze",
            "--trace", str(d / "t.trace"),
            "--per-block", "per_block.csv",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "intra_block_reuse=" in out
    assert "ephemeral_fraction=" in out
    with open(tmp_path / "reports" / "per_block.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6


def test_out_dir_redirects_outputs(demo_config, tmp_path):
    rc = main(
        [
            "--config", str(demo_config),
            "--out-dir", str(tmp_path / "outs"),
            "gen-trace",
            "--out", "demo.trace",
        ]
    )
    assert rc == EXIT_OK
    assert (tmp_path / "outs" / "demo.trace").exists()


def test_missing_config_file_is_config_error(tmp_path):
    rc = main(["--config", str(tmp_path / "nope.json"), "gen-trace", "--out", str(tmp_path / "t.trace")])
    assert rc == EXIT_CONFIG


def test_unknown_config_section_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_section": {}}))
    rc = main(["--config", str(bad), "gen-trace", "--out", str(tmp_path / "t.trace")])
    assert rc == EXIT_CONFIG


def test_config_hash_stable():
    assert content_hash(DEFAULT_CONFIG) == content_hash(load_config(None).raw)


def test_reports_reproducible(demo_pipeline, tmp_path):
    d, c = demo_pipeline
    rc = main(
        [
            "--config", c, "run-baseline",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--report", str(tmp_path / "baseline2.csv"),
        ]
    )
    assert rc == EXIT_OK
    assert (tmp_path / "baseline2.csv").read_bytes() == (d / "baseline.csv").read_bytes()
    assert (tmp_path / "baseline2.csv.meta.json").read_bytes() == Path(str(d / "baseline.csv") + ".meta.json").read_bytes()


def test_config_defaults_come_from_the_records():
    from ira.backup import BaselineCacheConfig, PipelineConfig

    # pinned on the default config; it moved when pipeline.workers became 16
    assert content_hash(DEFAULT_CONFIG) == "46abcf998fda88740dccbcc8dd18a213a67cbc4f27305781cdfd374e40c4ba65"
    assert PipelineConfig()._asdict() == DEFAULT_CONFIG["pipeline"]
    assert BaselineCacheConfig()._asdict() == DEFAULT_CONFIG["baseline_cache"]


def _copy_store(d: Path, tmp_path: Path) -> Path:
    import shutil

    return Path(shutil.copytree(d / "store", tmp_path / "store"))


STORE_TABLES = [
    "plain_storage.bin",
    "plain_accounts.bin",
    "bytecodes.bin",
    "storage_changesets.bin",
    "account_changesets.bin",
]


def _run_baseline_on(d: Path, c: str, store: Path, report: Path, capsys):
    capsys.readouterr()
    rc = main(["--config", c, "run-baseline", "--trace", str(d / "t.trace"), "--store", str(store), "--report", str(report)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("cut, extra", [(40, b""), (0, b"\x00\x01\x02")])
@pytest.mark.parametrize("table", STORE_TABLES)
def test_store_table_of_wrong_length_is_store_error(demo_pipeline, tmp_path, capsys, table, cut, extra):
    d, c = demo_pipeline
    store = _copy_store(d, tmp_path)
    blob = (store / table).read_bytes()
    assert len(blob) > 8 + cut, "fixture table must hold records"
    (store / table).write_bytes(blob[: len(blob) - cut] + extra)
    rc, err = _run_baseline_on(d, c, store, tmp_path / "baseline.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.startswith(f"store error: {table}: ")


@pytest.mark.parametrize("delta", [1, -1, 2**62], ids=["count+1", "count-1", "count=2**62"])
@pytest.mark.parametrize("table", STORE_TABLES)
def test_store_table_of_wrong_count_is_store_error(demo_pipeline, tmp_path, capsys, table, delta):
    # the count field is outside input too: a huge one must not make load
    # walk (or allocate) past the end of the file
    import time

    d, c = demo_pipeline
    store = _copy_store(d, tmp_path)
    blob = (store / table).read_bytes()
    count = int.from_bytes(blob[:8], "little")
    assert count > 1, "fixture table must hold records"
    new_count = delta if delta == 2**62 else count + delta
    (store / table).write_bytes(new_count.to_bytes(8, "little") + blob[8:])
    start = time.monotonic()
    rc, err = _run_baseline_on(d, c, store, tmp_path / "baseline.csv", capsys)
    assert time.monotonic() - start < 30
    assert rc == EXIT_CONFIG
    assert err.startswith(f"store error: {table}: ")
    assert not (tmp_path / "baseline.csv").exists()


def test_loaded_store_saves_every_file_byte_for_byte(demo_pipeline, tmp_path):
    from ira.store import ArchivalStore

    d, _ = demo_pipeline
    ArchivalStore.load(d / "store").save(tmp_path / "again")
    names = sorted(p.name for p in (d / "store").iterdir())
    assert names == sorted(STORE_TABLES + ["manifest.json"])
    assert sorted(p.name for p in (tmp_path / "again").iterdir()) == names
    for name in names:
        assert (tmp_path / "again" / name).read_bytes() == (d / "store" / name).read_bytes(), name


def test_repeated_changeset_record_is_store_error_naming_the_file(demo_pipeline, tmp_path, capsys):
    # the history index is rebuilt from the change sets, so a record given
    # twice would index a block whose change set lost the key's pre-image
    d, c = demo_pipeline
    store = _copy_store(d, tmp_path)
    table = store / "storage_changesets.bin"
    blob = bytearray(table.read_bytes())
    width = 8 + 52 + 32
    assert len(blob) >= 8 + 3 * width, "fixture table must hold records"
    blob[8 + 2 * width : 8 + 3 * width] = blob[8 + width : 8 + 2 * width]
    table.write_bytes(bytes(blob))
    rc, err = _run_baseline_on(d, c, store, tmp_path / "baseline.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.startswith("store error: storage_changesets.bin: ")
    assert not (tmp_path / "baseline.csv").exists()


def _account_changeset_records(blob: bytes) -> list:
    """The records of an ``account_changesets.bin``: u64 block, 20-byte
    address, presence flag, then a 41-byte account record with a 32-byte
    code hash after it when its last byte is set."""
    records, off = [], 8
    while off < len(blob):
        end = off + 8 + 20 + 1
        if blob[end - 1]:
            end += 41 + (32 if blob[end + 40] else 0)
        records.append(blob[off:end])
        off = end
    assert off == len(blob)
    return records


@pytest.mark.parametrize("fault", ["repeated-record", "blocks-out-of-order"])
def test_bad_account_changeset_order_is_store_error_naming_the_file(demo_pipeline, tmp_path, capsys, fault):
    d, c = demo_pipeline
    store = _copy_store(d, tmp_path)
    table = store / "account_changesets.bin"
    blob = table.read_bytes()
    records = _account_changeset_records(blob)
    assert len(records) >= 3, "fixture table must hold records"
    if fault == "repeated-record":
        records[2] = records[1]
    else:
        # every key's blocks descend once the records run backwards
        addrs = [r[8:28] for r in records]
        assert len(set(addrs)) < len(addrs), "fixture must change an account in two blocks"
        records.reverse()
    table.write_bytes(blob[:8] + b"".join(records))
    rc, err = _run_baseline_on(d, c, store, tmp_path / "baseline.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.startswith("store error: account_changesets.bin: ")
    assert not (tmp_path / "baseline.csv").exists()


def test_store_of_format_1_is_store_error(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    store = _copy_store(d, tmp_path)
    manifest = json.loads((store / "manifest.json").read_text())
    assert manifest["format"] == 2
    manifest["format"] = 1
    (store / "manifest.json").write_text(json.dumps(manifest))
    rc, err = _run_baseline_on(d, c, store, tmp_path / "baseline.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.strip() == "store error: unsupported store format: 1"


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("{", "manifest.json: not valid JSON"),
        ("[]", "manifest.json: not a JSON object"),
        ('{"format": 2}', "manifest.json: no cost_model"),
        ('{"format": 2, "cost_model": {"c_random_seek": 1}}', "manifest.json: bad cost_model"),
        ('{"format": 2, "cost_model": {"c_seek": 100}}', "manifest.json: bad cost_model"),
        ('{"format": 2, "cost_model": 7}', "manifest.json: bad cost_model"),
        ('{"format": 2, "cost_model": {}}', "manifest.json: no integer head_block"),
        ('{"format": 2, "cost_model": {}, "head_block": true}', "manifest.json: no integer head_block"),
    ],
    ids=["not-json", "not-object", "no-cost-model", "refused-model", "unknown-field", "model-not-object", "no-head-block",
         "bool-head-block"],
)
def test_bad_manifest_is_store_error(demo_pipeline, tmp_path, capsys, manifest, message):
    d, c = demo_pipeline
    store = _copy_store(d, tmp_path)
    (store / "manifest.json").write_text(manifest)
    rc, err = _run_baseline_on(d, c, store, tmp_path / "baseline.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.startswith(f"store error: {message}")
    assert not (tmp_path / "baseline.csv").exists()


def _with_op_kind(trace: bytes, record: int, kind: int) -> bytes:
    """``trace`` with the first op of its ``record``-th record (from 1) given
    the kind byte ``kind``."""
    off = 18 + int.from_bytes(trace[6:10], "little")  # magic, version, params, count
    for _ in range(record - 1):
        off += 4 + int.from_bytes(trace[off : off + 4], "little")
    first_op = off + 4 + 8 + 20 + 4 + 20 + 20 + 4  # size, number, beneficiary, tx count, sender, recipient, op count
    return trace[:first_op] + bytes((kind,)) + trace[first_op + 1 :]


_DAMAGED_TRACES = {
    "truncated last record": lambda trace: trace[:-100],
    "unknown op kind in record 3": lambda trace: _with_op_kind(trace, 3, 9),
}


def _torn_logs(d: Path) -> Dict[str, bytes]:
    """Each log of ``d`` cut to its 8-byte header and a first record cut
    short: the torn tail of a crash in the first append."""
    return {name: (d / name).read_bytes()[:40] for name in ("hints.db", "digests.bin")}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_TRACES))
def test_primary_failing_mid_trace_leaves_its_outputs_as_they_were(demo_pipeline, tmp_path, capsys, damage):
    # blocks before the bad record were stored; the failed run takes them
    # out again, so that a rerun on the intact trace is not refused
    d, c = demo_pipeline
    bad = tmp_path / "bad.trace"
    bad.write_bytes(_DAMAGED_TRACES[damage]((d / "t.trace").read_bytes()))
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-primary",
            "--trace", str(bad),
            "--store", str(d / "store"),
            "--hints-out", str(out / "hints.db"),
            "--digests-out", str(out / "digests.bin"),
            "--report", str(out / "primary.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("trace error: ")
    assert list(out.iterdir()) == []
    rc, err = _run_primary(d, c, out, capsys)
    assert rc == EXIT_OK, err
    for name in ("hints.db", "digests.bin", "primary.csv", "primary.csv.meta.json"):
        assert (out / name).read_bytes() == (d / name).read_bytes(), name


def test_primary_failing_mid_trace_puts_back_torn_tails(demo_pipeline, tmp_path, capsys):
    # an append cuts a log's torn tail off first; a failed run restores it
    d, c = demo_pipeline
    bad = tmp_path / "bad.trace"
    bad.write_bytes(_with_op_kind((d / "t.trace").read_bytes(), 3, 9))
    before = _torn_logs(d)
    for name, blob in before.items():
        (tmp_path / name).write_bytes(blob)
    rc = main(
        [
            "--config", c, "run-primary",
            "--trace", str(bad),
            "--store", str(d / "store"),
            "--hints-out", str(tmp_path / "hints.db"),
            "--digests-out", str(tmp_path / "digests.bin"),
            "--report", str(tmp_path / "primary.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    for name, blob in before.items():
        assert (tmp_path / name).read_bytes() == blob, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.trace", "digests.bin", "hints.db"]


def test_primary_runs_every_name_the_launcher_wraps_on_the_main_thread(demo_pipeline, tmp_path, capsys, monkeypatch):
    # bench/launch.py's Tracer keeps one span stack for every thread, so each
    # function and method it wraps for run-primary must run on the main
    # thread; the deflate worker reaches compress_hint's rule by another name
    from ira import primary, store, workload

    threads = {}

    def watch(owner, name, generator=False):
        func = getattr(owner, name)
        seen = threads.setdefault(f"{getattr(owner, '__name__', owner)}.{name}", set())

        if generator:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                for item in func(*args, **kwargs):
                    seen.add(threading.current_thread())
                    yield item
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                seen.add(threading.current_thread())
                return func(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    watch(workload, "iter_trace_file", generator=True)
    for owner in (workload, primary):
        watch(owner, "execute_block")
    for name in ("run_primary_block", "annotate_sources", "serialize_hint", "compress_hint", "state_change_hash"):
        watch(primary, name)
    watch(primary.HintDb, "__init__")
    watch(primary.HintDb, "write_hint")
    for name in ("read_as_of", "account_as_of", "code_as_of"):
        watch(store.ArchivalStore, name)
    watch(store.ShardedIndex, "first_at_or_after")
    for name in ("get_storage", "get_account", "get_code"):
        watch(store.StoreView, name)

    d, c = demo_pipeline
    rc, err = _run_primary(d, c, tmp_path, capsys)
    assert rc == EXIT_OK, err
    for name in ("hints.db", "digests.bin", "primary.csv"):
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name
    main_thread = threading.main_thread()
    assert {name: seen for name, seen in threads.items() if seen - {main_thread}} == {}
    called = {name for name, seen in threads.items() if seen}
    assert {
        "ira.workload.iter_trace_file", "ira.primary.execute_block", "ira.primary.run_primary_block",
        "ira.primary.annotate_sources", "ira.primary.serialize_hint", "ira.primary.state_change_hash",
        "HintDb.write_hint", "StoreView.get_account",
    } <= called


def test_primary_deflate_failure_reaches_the_caller_and_puts_back_its_outputs(demo_pipeline, tmp_path, monkeypatch):
    # the third block's deflate fails on the worker after two blocks were
    # stored: main raises that same exception, the logs are as they were
    # found (torn tails included), the report is gone, the worker joined and
    # the switch interval put back
    from ira import primary

    d, c = demo_pipeline
    before = _torn_logs(d)
    for name, blob in before.items():
        (tmp_path / name).write_bytes(blob)
    failure = RuntimeError("deflate failed")
    deflate, calls = primary._deflate, []

    def third_fails(raw):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise failure
        return deflate(raw)

    monkeypatch.setattr(primary, "_deflate", third_fails)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    with pytest.raises(RuntimeError) as raised:
        main(
            [
                "--config", c, "run-primary",
                "--trace", str(d / "t.trace"),
                "--store", str(d / "store"),
                "--hints-out", str(tmp_path / "hints.db"),
                "--digests-out", str(tmp_path / "digests.bin"),
                "--report", str(tmp_path / "primary.csv"),
            ]
        )
    assert raised.value is failure
    assert len(calls) == 3 and threading.main_thread() not in calls
    for name, blob in before.items():
        assert (tmp_path / name).read_bytes() == blob, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["digests.bin", "hints.db"]
    assert (threading.active_count(), sys.getswitchinterval()) == (threads, interval)


def test_primary_refuses_a_digest_log_that_holds_its_blocks(demo_pipeline, tmp_path, capsys):
    # a second trace of the same blocks (another seed) must not append its
    # digests to the first trace's log: the first replay would then fail
    d, c = demo_pipeline
    log = tmp_path / "digests.bin"
    log.write_bytes((d / "digests.bin").read_bytes())
    other = tmp_path / "other"
    other.mkdir()
    assert main(["--config", c, "--seed", "2", "gen-trace", "--out", str(other / "t.trace")]) == EXIT_OK
    assert main(["--config", c, "build-store", "--trace", str(other / "t.trace"), "--out", str(other / "store")]) == EXIT_OK
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-primary",
            "--trace", str(other / "t.trace"),
            "--store", str(other / "store"),
            "--hints-out", str(other / "hints.db"),
            "--digests-out", str(log),
            "--report", str(other / "primary.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"run-primary: {log} already holds a digest for block 1"
    assert log.read_bytes() == (d / "digests.bin").read_bytes()
    assert sorted(p.name for p in other.iterdir()) == ["store", "t.trace"]
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--digests", str(log),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    assert rc == EXIT_OK


def test_primary_digest_log_in_a_missing_directory_stores_no_hint(demo_pipeline, tmp_path, capsys):
    # the log is made before any hint is stored, so a rerun with a corrected
    # path finds no clash in the hint database
    d, c = demo_pipeline

    def run_primary(digests_out):
        return main(
            [
                "--config", c, "run-primary",
                "--trace", str(d / "t.trace"),
                "--store", str(d / "store"),
                "--hints-out", str(tmp_path / "hints.db"),
                "--digests-out", str(digests_out),
                "--report", str(tmp_path / "primary.csv"),
            ]
        )

    capsys.readouterr()
    assert run_primary(tmp_path / "nosuch" / "digests.bin") == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("missing input: ")
    assert not (tmp_path / "hints.db").exists()
    assert run_primary(tmp_path / "digests.bin") == EXIT_OK
    assert (tmp_path / "digests.bin").read_bytes() == (d / "digests.bin").read_bytes()


def test_primary_with_one_path_for_both_logs_exits_2_and_leaves_no_file(demo_pipeline, tmp_path, capsys):
    # the digest log is made first; the hint database then finds a digest
    # log's header, is refused, and the digest log is rolled back
    d, c = demo_pipeline
    shared = tmp_path / "logs.bin"
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-primary",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints-out", str(shared),
            "--digests-out", str(shared),
            "--report", str(tmp_path / "primary.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"hint database error: bad hint database header in {shared}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--hints", "--digests"])
def test_backup_refuses_a_log_of_the_other_kind_naming_it(demo_pipeline, tmp_path, capsys, option):
    d, c = demo_pipeline
    logs = {"--hints": d / "hints.db", "--digests": d / "digests.bin"}
    wrong = logs["--digests" if option == "--hints" else "--hints"]
    logs[option] = wrong
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(logs["--hints"]),
            "--digests", str(logs["--digests"]),
            "--report", str(tmp_path / "backup.csv"),
        ]
    )
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    kind = "hint database" if option == "--hints" else "digest log"
    assert err == f"hint database error: bad {kind} header in {wrong}\n"
    assert out == "" and list(tmp_path.iterdir()) == []


def test_out_dir_stdout_names_the_paths_written(demo_config, tmp_path, capsys):
    outs = tmp_path / "outs"

    def run(*argv):
        capsys.readouterr()
        assert main(["--config", str(demo_config), "--out-dir", str(outs), *argv]) == EXIT_OK, argv[0]
        return capsys.readouterr().out

    assert f" to {outs / 'demo.trace'} " in run("gen-trace", "--out", "demo.trace")
    trace = str(outs / "demo.trace")
    assert run("build-store", "--trace", trace, "--out", "store").endswith(f", saved to {outs / 'store'}\n")
    store = str(outs / "store")
    out = run("run-primary", "--trace", trace, "--store", store, "--hints-out", "h.db", "--report", "p.csv")
    assert out.endswith(f"blocks, hints -> {outs / 'h.db'}\n")
    assert {p.name for p in outs.iterdir()} == {"demo.trace", "store", "h.db", "p.csv", "p.csv.meta.json"}


def test_build_store_onto_an_existing_file_is_io_error(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    out = tmp_path / "trace.bin"
    out.write_bytes((d / "t.trace").read_bytes())
    capsys.readouterr()
    rc = main(["--config", c, "build-store", "--trace", str(d / "t.trace"), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert out.read_bytes() == (d / "t.trace").read_bytes()


def test_backup_report_onto_a_directory_is_io_error(demo_pipeline, tmp_path, capsys):
    d, c = demo_pipeline
    capsys.readouterr()
    rc = main(
        [
            "--config", c, "run-backup",
            "--trace", str(d / "t.trace"),
            "--store", str(d / "store"),
            "--hints", str(d / "hints.db"),
            "--report", str(d / "store"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("i/o error: ")


@pytest.mark.parametrize("command", ["run-primary", "run-baseline", "run-backup"])
def test_config_cost_model_must_match_store(demo_pipeline, demo_config, tmp_path, capsys, command):
    d, _ = demo_pipeline
    cfg = json.loads(demo_config.read_text())
    cfg["cost_model"] = {"c_random_seek": 200}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["--config", str(path), command, "--trace", str(d / "t.trace"), "--store", str(d / "store"),
            "--report", str(tmp_path / "report.csv")]
    if command == "run-primary":
        args += ["--hints-out", str(tmp_path / "hints.db")]
    rc = main(args)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'c_random_seek': 200" in err and "'c_random_seek': 100" in err
    assert not (tmp_path / "report.csv.meta.json").exists()


@pytest.mark.parametrize(
    "section, message",
    [
        ({"pipeline": 5}, "config section pipeline must be a JSON object"),
        ({"generator": [1]}, "config section generator must be a JSON object"),
        ({"cost_model": "x"}, "config section cost_model must be a JSON object"),
        ({"baseline_cache": None}, "config section baseline_cache must be a JSON object"),
        ({"baseline_cache": {"storage": -5}}, "bad baseline_cache section: capacities must be non-negative"),
    ],
    ids=["pipeline", "generator", "cost_model", "baseline_cache", "negative-capacity"],
)
def test_bad_config_section_is_config_error(demo_pipeline, tmp_path, capsys, section, message):
    d, _ = demo_pipeline
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(section))
    rc, err = _run_baseline_on(d, str(path), d / "store", tmp_path / "baseline.csv", capsys)
    assert rc == EXIT_CONFIG
    assert err.startswith(f"config error: {message}")
    assert not (tmp_path / "baseline.csv").exists()


def _trace_header(trace: bytes) -> bytes:
    """Magic, version, params JSON and block count: the bytes before the records."""
    (plen,) = struct.unpack_from("<I", trace, 6)
    return trace[: 10 + plen + 8]


def _with_trace_params(trace: bytes, changes: dict) -> bytes:
    """``trace`` with ``changes`` made to the params JSON of its header."""
    (plen,) = struct.unpack_from("<I", trace, 6)
    blob = json.dumps({**json.loads(trace[10 : 10 + plen]), **changes}).encode()
    return trace[:6] + struct.pack("<I", len(blob)) + blob + trace[10 + plen :]


# bench/run.py's SMOKE generator section, as its default workload writes it:
# an int for the float setting txs_per_block_mean. Each config row below
# changes a file holding this section.
SMOKE_GENERATOR = {"txs_per_block_mean": 8, "unique_keys_median": 120, "n_accounts": 500, "hot_keys": 64, "blocks": 8}
# sha256 of the trace header that gen-trace writes for it, in which
# txs_per_block_mean stays 8 (not 8.0), so every SMOKE trace keeps its bytes
SMOKE_HEADER_SHA256 = "fb6a4734466c5d263c9fbcf893c89b7fe7ac3abd166fcf719ae2ac9585562b46"

# every door a setting comes in by: where the value goes, the value, and
# the setting that stderr must name (None: values of the right kind only)
ENTRY_POINTS = {
    "generator-blocks": ("config", {"generator": {"blocks": 2.5}}, "blocks"),
    "generator-reads_only": ("config", {"generator": {"reads_only": "no"}}, "reads_only"),
    "baseline_cache-storage": ("config", {"baseline_cache": {"storage": True}}, "storage"),
    "pipeline-batch_size": ("config", {"pipeline": {"batch_size": "8"}}, "batch_size"),
    "trace-header-n_accounts": ("trace build-store", {"n_accounts": "x"}, "n_accounts"),
    "trace-header-n_code_contracts": ("trace build-store", {"n_code_contracts": 9}, "n_code_contracts"),  # n_contracts is 8
    "trace-header-run-primary": ("trace run-primary", {"n_accounts": "x"}, "n_accounts"),
    "trace-header-run-baseline": ("trace run-baseline", {"n_accounts": "x"}, "n_accounts"),
    "trace-header-run-backup": ("trace run-backup", {"n_accounts": "x"}, "n_accounts"),
    "trace-header-analyze": ("trace analyze", {"n_accounts": "x"}, "n_accounts"),
    "trace-header-cachesim": ("trace cachesim", {"n_accounts": "x"}, "n_accounts"),
    "manifest-c_random_seek": ("manifest", {"c_random_seek": 100.7}, "c_random_seek"),
    "proto-scenario": ("proto", {"batches": 2.9, "ops_per_batch": "5", "encoding": "bloom"}, "batches"),
    "smoke-int-for-float": ("config", {}, None),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_setting_of_the_wrong_type_is_exit_2_at_every_entry_point(demo_pipeline, tmp_path, entry):
    # nothing is converted: a wrongly typed value is refused, naming the
    # setting, wherever it comes from, and a right one is kept as given
    where, value, setting = ENTRY_POINTS[entry]
    d, c = demo_pipeline
    out = tmp_path / "out"
    if where == "config":
        cfg = {"generator": SMOKE_GENERATOR}
        for name, section in value.items():
            cfg[name] = {**cfg.get(name, {}), **section}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["--config", str(tmp_path / "cfg.json"), "gen-trace", "--out", str(out)]
    elif where.startswith("trace "):
        (tmp_path / "t.trace").write_bytes(_with_trace_params((d / "t.trace").read_bytes(), value))
        command = where.split()[1]
        store = ["--store", str(d / "store")]
        argv = ["--config", c, command, "--trace", str(tmp_path / "t.trace"), *{
            "build-store": ["--out", str(out)],
            "run-primary": [*store, "--hints-out", str(out), "--report", str(tmp_path / "primary.csv")],
            "run-baseline": [*store, "--report", str(out)],
            "run-backup": [*store, "--hints", str(d / "hints.db"), "--report", str(out)],
            "analyze": ["--per-block", str(out)],
            "cachesim": ["--block", "1", "--capacity", "4"],
        }[command]]
    elif where == "manifest":
        store = _copy_store(d, tmp_path)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["cost_model"].update(value)
        (store / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--config", c, "run-baseline", "--trace", str(d / "t.trace"), "--store", str(store), "--report", str(out)]
    else:
        (tmp_path / "scenario.json").write_text(json.dumps(value))
        argv = ["proto", "--scenario", str(tmp_path / "scenario.json"), "--report", str(out)]
    proc = subprocess.run([sys.executable, "-m", "ira.cli", *argv], env=_env_with_src(),
                          capture_output=True, text=True, timeout=60)
    if setting is None:
        assert proc.returncode == EXIT_OK, proc.stderr
        assert hashlib.sha256(_trace_header(out.read_bytes())).hexdigest() == SMOKE_HEADER_SHA256
        return
    assert proc.returncode == EXIT_CONFIG, (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr and setting in proc.stderr, proc.stderr
    assert not out.exists()


def test_backup_has_no_pipeline_override_flags(demo_pipeline, tmp_path, capsys):
    # the config's pipeline section is the one place these settings live,
    # so the sidecar's config hash covers them
    d, c = demo_pipeline
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--config", c, "run-backup", "--trace", str(d / "t.trace"), "--store", str(d / "store"),
              "--workers", "4", "--report", str(tmp_path / "backup.csv")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err
    assert not (tmp_path / "backup.csv").exists()


def test_pipeline_crash_on_miss_is_not_a_config_field(tmp_path):
    from ira.config import ConfigError

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pipeline": {"crash_on_miss": 0}}))
    with pytest.raises(ConfigError, match="bad pipeline section"):
        load_config(path)


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("run-baseline", {"pipeline": {"batch_size": 0}}, "bad pipeline section: batch_size must be >= 1"),
        ("run-backup", {"generator": {"blocks": 0}}, "bad generator section: blocks must be >= 1"),
    ],
    ids=["pipeline-refuses-baseline", "generator-refuses-backup"],
)
def test_a_command_that_reads_the_config_checks_every_section(demo_pipeline, tmp_path, capsys, command, section, message):
    # the sidecar's config hash covers every section, so a section the
    # command does not use must still be one that could run
    d, _ = demo_pipeline
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(section))
    report = tmp_path / "report.csv"
    argv = ["--config", str(path), command, "--trace", str(d / "t.trace"), "--store", str(d / "store"), "--report", str(report)]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    rc = main(["--config", str(path), "gen-trace", "--out", str(tmp_path / "t.trace")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: config file is not valid JSON: ")
    assert not (tmp_path / "t.trace").exists()


def test_primary_on_a_store_behind_the_trace_is_store_error(demo_pipeline, tmp_path, capsys):
    # blocks 1-4 run against a 4-block store, block 5 is past its head: the
    # run fails as a store error and puts both logs back as it found them
    d, _ = demo_pipeline
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"generator": demo_params(blocks=4)._asdict()}))
    assert main(["--config", str(short), "gen-trace", "--out", str(tmp_path / "short.trace")]) == EXIT_OK
    assert main(["build-store", "--trace", str(tmp_path / "short.trace"), "--out", str(tmp_path / "store")]) == EXIT_OK
    before = _torn_logs(d)
    for name, blob in before.items():
        (tmp_path / name).write_bytes(blob)
    capsys.readouterr()
    rc = main(
        [
            "run-primary",
            "--trace", str(d / "t.trace"),
            "--store", str(tmp_path / "store"),
            "--hints-out", str(tmp_path / "hints.db"),
            "--digests-out", str(tmp_path / "digests.bin"),
            "--report", str(tmp_path / "primary.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "store error: primary needs store head >= 5, have 4\n"
    for name, blob in before.items():
        assert (tmp_path / name).read_bytes() == blob, name
    assert not (tmp_path / "primary.csv").exists()


def test_analyze_of_an_empty_trace_is_exit_2(tmp_path, capsys):
    from ira.workload import save_trace

    trace = tmp_path / "empty.trace"
    save_trace(trace, demo_params(), iter([]))
    rc = main(["analyze", "--trace", str(trace), "--per-block", str(tmp_path / "per_block.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "analyze: cannot analyze an empty trace\n"
    assert not (tmp_path / "per_block.csv").exists()


def test_reports_of_an_empty_trace_are_header_only(tmp_path):
    # the reports of a trace of no blocks, pinned byte for byte
    from ira.workload import save_trace

    t, s = str(tmp_path / "t.trace"), str(tmp_path / "store")
    save_trace(Path(t), demo_params(), iter([]))
    assert main(["build-store", "--trace", t, "--out", s]) == EXIT_OK
    for argv in (
        ["run-primary", "--hints-out", str(tmp_path / "hints.db"), "--report", str(tmp_path / "primary.csv")],
        ["run-baseline", "--report", str(tmp_path / "baseline.csv")],
        ["run-backup", "--hints", str(tmp_path / "hints.db"), "--report", str(tmp_path / "backup.csv")],
    ):
        assert main([argv[0], "--trace", t, "--store", s, *argv[1:]]) == EXIT_OK, argv[0]
    compare = ["compare", "--baseline", str(tmp_path / "baseline.csv"), "--backup", str(tmp_path / "backup.csv")]
    assert main([*compare, "--out", str(tmp_path / "compare.csv")]) == EXIT_OK

    shared = {
        "config_hash": content_hash(DEFAULT_CONFIG),
        "cost_model_hash": content_hash(DEFAULT_CONFIG["cost_model"]),
        "cost_model": DEFAULT_CONFIG["cost_model"],
        "rows": 0,
    }
    baseline = {**shared, "subcommand": "run-baseline", "total_cost": 0, "io_fraction": 0.0}
    backup = {
        **shared, "subcommand": "run-backup", "wall_cost": 0, "prefetch_total": 0,
        "prefetch_by_route": dict.fromkeys(ROUTES, 0), "exec_total": 0, "wait_total": 0,
        "fallback_blocks": 0, "corrupt_hints": 0, "workers": 16,
    }
    summary = dict.fromkeys(("aggregate_speedup", "speedup_median", "speedup_p90", "speedup_p99", "wait_share_of_wall"), 0.0)
    expected = {
        "primary.csv": ("block,exec_cost,serialize_cost,raw_bytes,compressed_bytes",
                        {**shared, "subcommand": "run-primary", "sequential_overhead": 0.0, "pipelined_overhead": 0.0}),
        "baseline.csv": ("block,t_baseline,ops,reads,io_cost,digest", baseline),
        "backup.csv": ("block,t_wait,t_exec,prefetch_cost,hint_raw_bytes,hint_compressed_bytes,fallback,digest", backup),
        # the merged input sidecars, then compare's own subcommand
        "compare.csv": ("block,t_baseline,t_wait,t_exec,speedup",
                        {**baseline, **backup, "subcommand": "compare",
                         "summary": {**summary, "blocks": 0, "blocks_with_wait": 0, "digests_match": True}}),
    }
    for name, (header, meta) in expected.items():
        assert (tmp_path / name).read_bytes() == header.encode() + b"\r\n", name
        side = (tmp_path / f"{name}.meta.json").read_text()
        assert side == json.dumps(meta, indent=2, sort_keys=True) + "\n", name


class _CommandFailed(Exception):
    pass


@pytest.mark.parametrize("outcome", ["exit_0", "exit_2", "raises"])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_commands_without_the_cyclic_collector(monkeypatch, enabled, outcome):
    import gc

    from ira import cli
    from ira.config import ConfigError

    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if outcome == "exit_2":
            raise ConfigError("rejected")
        if outcome == "raises":
            raise _CommandFailed()
        return EXIT_OK

    monkeypatch.setattr(cli, "cmd_analyze", command)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(_CommandFailed):
                main(["analyze", "--trace", "t.trace"])
        else:
            assert main(["analyze", "--trace", "t.trace"]) == (EXIT_OK if outcome == "exit_0" else EXIT_CONFIG)
        assert seen == [False]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _cli_cycle(d: Path, blocks: int) -> list:
    """Every subcommand once, on a demo trace of ``blocks`` blocks; the key
    list and the proto scenario grow with it."""
    d.mkdir()
    cfg = {"generator": demo_params(blocks=blocks)._asdict(), "pipeline": {"batch_size": 2, "channel_capacity": 4, "warmup_blocks": 2}}
    (d / "cfg.json").write_text(json.dumps(cfg))
    (d / "keys.txt").write_text("".join(f"{i % 97:04x}\n" for i in range(50 * blocks)))
    (d / "scenario.json").write_text(json.dumps({"batches": blocks, "ops_per_batch": 30, "key_space": 100, "seed": 3}))
    c = ["--config", str(d / "cfg.json")]
    t, s = str(d / "t.trace"), str(d / "store")
    return [
        ("gen-trace", c + ["gen-trace", "--out", t]),
        ("build-store", c + ["build-store", "--trace", t, "--out", s]),
        ("run-primary", c + ["run-primary", "--trace", t, "--store", s, "--hints-out", str(d / "hints.db"),
                             "--digests-out", str(d / "digests.bin"), "--report", str(d / "primary.csv")]),
        ("run-baseline", c + ["run-baseline", "--trace", t, "--store", s, "--report", str(d / "baseline.csv")]),
        ("run-backup", c + ["run-backup", "--trace", t, "--store", s, "--hints", str(d / "hints.db"),
                            "--digests", str(d / "digests.bin"), "--report", str(d / "backup.csv")]),
        ("compare", ["compare", "--baseline", str(d / "baseline.csv"), "--backup", str(d / "backup.csv"),
                     "--out", str(d / "compare.csv")]),
        ("cachesim-file", ["cachesim", "--trace-file", str(d / "keys.txt"), "--capacity", "8"]),
        ("cachesim-block", ["cachesim", "--trace", t, "--block", "1", "--capacity", "4"]),
        ("proto", ["proto", "--scenario", str(d / "scenario.json"), "--report", str(d / "proto.csv")]),
        ("analyze", ["analyze", "--trace", t]),
    ]


@pytest.fixture(scope="module")
def demo_cycle(tmp_path_factory):
    """Every subcommand run once, in order, into one directory."""
    d = tmp_path_factory.mktemp("cycle") / "run"
    commands = dict(_cli_cycle(d, 4))
    for command, argv in commands.items():
        assert main(argv) == EXIT_OK, command
    return d, commands


@pytest.mark.parametrize(
    "command",
    ["gen-trace", "build-store", "run-primary", "run-baseline", "run-backup", "compare",
     "cachesim-file", "cachesim-block", "proto", "analyze"],
)
def test_rerun_into_its_own_outputs_writes_the_same_bytes_or_exits_2(demo_cycle, command, capsys):
    # a command run again over its own outputs either rewrites them with the
    # same bytes or refuses with exit 2 and leaves them as they were; it never
    # ends in a traceback
    d, commands = demo_cycle
    argv = commands[command]
    before = {p: p.read_bytes() for p in d.rglob("*") if p.is_file()}
    capsys.readouterr()
    rc = main(argv)
    assert rc in (EXIT_OK, EXIT_CONFIG), command
    assert {p: p.read_bytes() for p in d.rglob("*") if p.is_file()} == before, command
    assert (rc == EXIT_CONFIG) == (command == "run-primary"), capsys.readouterr().err


def test_compare_wait_share_is_the_wait_over_the_wall(demo_cycle):
    d, _ = demo_cycle
    backup = json.loads((d / "backup.csv.meta.json").read_text())
    summary = json.loads((d / "compare.csv.meta.json").read_text())["summary"]
    assert backup["wait_total"] > 0
    assert summary["wait_share_of_wall"] == backup["wait_total"] / backup["wall_cost"]


def test_no_command_leaves_cyclic_garbage_that_grows_with_the_trace(tmp_path):
    # main runs every command with the cyclic collector off, which is only
    # free if what a command leaves behind is acyclic: the few cycles that
    # argparse and json build must not scale with the trace
    import gc

    was_enabled, flags = gc.isenabled(), gc.get_debug()
    counts: dict = {}
    gc.disable()
    try:
        for name, blocks in (("warm-up", 4), ("small", 4), ("large", 16)):
            for command, argv in _cli_cycle(tmp_path / name, blocks):
                gc.collect()
                assert main(argv) == EXIT_OK, command
                gc.set_debug(gc.DEBUG_SAVEALL)
                counts.setdefault(command, []).append(gc.collect())
                gc.set_debug(flags)
                del gc.garbage[:]  # the saved cycles are freed by the next collect
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        gc.collect()
        if was_enabled:
            gc.enable()
    for command, (_, small, large) in counts.items():
        assert small == large, (command, small, large)


ROOT = Path(__file__).resolve().parents[1]


def _env_with_src() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_bench_launcher_finds_the_names_it_wraps(demo_config, tmp_path):
    # bench/launch.py wraps ira functions and methods, and reads PrefetchPlan
    # fields, by name; a renamed or deleted one fails here, in a traced demo
    # cycle, rather than in a traced benchmark run. The commands import their
    # modules when they run, after the wrappers are installed, so the
    # wrappers of the functions they call must show up as spans.
    def launch(*ira_args):
        spans = tmp_path / f"{ira_args[0]}.json"
        argv = [sys.executable, str(ROOT / "bench" / "launch.py"), str(spans), "--config", str(demo_config), *ira_args]
        proc = subprocess.run(argv, env=_env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(spans.read_text())

    def span_names(traced):
        return {span[0] for span in traced["spans"]}

    t, s, h, g = (str(tmp_path / name) for name in ("t.trace", "store", "hints.db", "digests.bin"))
    generated = launch("gen-trace", "--out", t)
    assert "store.history_lookup" in generated["counts"]
    assert "workload.iter_trace" in span_names(generated)
    built = span_names(launch("build-store", "--trace", t, "--out", s))
    assert {"store.apply_block", "workload.iter_trace_file"} <= built
    inputs = ["--trace", t, "--store", s]
    primary = launch("run-primary", *inputs, "--hints-out", h, "--digests-out", g, "--report", str(tmp_path / "p.csv"))
    assert {"primary.annotate_sources", "primary.run_primary_block", "workload.iter_trace_file"} <= span_names(primary)
    backup = launch("run-backup", *inputs, "--hints", h, "--digests", g, "--report", str(tmp_path / "b.csv"))
    assert "backup.replay_block" in span_names(backup)
    counts = backup["counts"]
    entries = [counts[f"backup.entries_{route}"] for route in ("plain", "zero", "changeset", "account", "code")]
    assert sum(entries) > 0
    assert counts["store.history_lookup"] > 0
    leaves = launch("run-baseline", *inputs, "--report", str(tmp_path / "base.csv"))["leaves"]
    assert leaves["store.read_as_of"][0] > 0


# The ira modules each command of the demo cycle loads besides ira and
# ira.cli. A command pays at start-up for every module it loads, so none
# loads a module it does not run.
COMMAND_MODULES = {
    "gen-trace": {"config", "store", "workload"},
    "build-store": {"config", "store", "workload"},
    "run-primary": {"config", "store", "workload", "primary"},
    "run-baseline": {"config", "store", "workload", "primary", "backup"},
    "run-backup": {"config", "store", "workload", "primary", "backup"},
    "compare": set(),
    "cachesim-file": {"cachesim"},
    "cachesim-block": {"cachesim", "store", "workload"},
    "proto": {"protocol"},
    "analyze": {"store", "workload"},
}


@pytest.fixture(scope="module")
def cycle_imports(tmp_path_factory):
    """Every command of the demo cycle, in order, each run by ``ira.cli.main``
    in a fresh interpreter: command -> (exit code, ira modules loaded, every
    module the command added after ``from ira.cli import main``)."""
    script = (
        "import json, sys\n"
        "from ira.cli import main\n"
        "before = set(sys.modules)\n"
        "rc = main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('ira.')),"
        " sorted(set(sys.modules) - before)]))\n"
    )
    loaded = {}
    for command, argv in _cli_cycle(tmp_path_factory.mktemp("imports") / "run", 4):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (command, proc.stderr)
        rc, modules, added = json.loads(proc.stdout.splitlines()[-1])
        loaded[command] = (rc, set(modules), set(added))
    return loaded


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(cycle_imports, command):
    rc, modules, _ = cycle_imports[command]
    assert rc == EXIT_OK
    assert modules == {"ira.cli"} | {f"ira.{name}" for name in COMMAND_MODULES[command]}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_no_command_loads_dataclasses(cycle_imports, command):
    # Records are NamedTuples. Importing dataclasses also loads inspect (and
    # ast, dis, tokenize), which would cost each command milliseconds.
    _, _, added = cycle_imports[command]
    assert not {"dataclasses", "inspect"} & added


def test_python_m_ira_cli_runs_the_command(demo_config, tmp_path):
    out = tmp_path / "t.trace"
    argv = [sys.executable, "-m", "ira.cli", "--config", str(demo_config), "gen-trace", "--out", str(out)]
    proc = subprocess.run(argv, env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith(f"gen-trace: wrote 6 blocks to {out}")
    assert sum(1 for _ in iter_trace_file(out)) == 6
    proc = subprocess.run(argv[:3] + ["--config", str(tmp_path / "nope.json"), "gen-trace", "--out", str(out)],
                          env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: config file not found")
