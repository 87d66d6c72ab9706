from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_fold", ROOT / "tools" / "bench_fold.py")
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)


def _record(seed, proto, rss, sim=None):
    return {
        "workload": "default",
        "seed": seed,
        "python": "3.11.7",
        "nproc": 2,
        "src_lines": 4234,
        "correct": True,
        "simulated_pooled": sim or {"backup_wall": 10, "proto_hint_bytes": 7},
        "metrics": {
            "proto_batches_per_s": {"value": proto, "unit": "batches/s"},
            "backup_peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def test_fold_medians_iqrs_and_wins():
    pairs = [
        (_record(1, 100.0, 50.0), _record(1, 130.0, 49.0)),
        (_record(2, 140.0, 52.0), _record(2, 170.0, 53.0)),
        (_record(3, 120.0, 51.0), _record(3, 190.0, 50.0)),
        (_record(4, 160.0, 54.0), _record(4, 150.0, 54.0)),
    ]
    better = {"proto_batches_per_s": "higher", "backup_peak_rss_mb": "lower"}
    out = bench_fold.fold(pairs, better)["default"]
    proto = out["metrics"]["proto_batches_per_s"]
    # parent 100, 120, 140, 160: inclusive quartiles 115 and 145
    assert proto["parent_median"] == 130.0 and proto["parent_iqr"] == 30.0
    # change 130, 150, 170, 190: median 160, quartiles 145 and 175
    assert proto["change_median"] == 160.0 and proto["change_iqr"] == 30.0
    assert proto["change_wins"] == 3
    assert [p["seed"] for p in proto["pairs"]] == [1, 2, 3, 4]
    assert proto["pairs"][3] == {"seed": 4, "parent": 160.0, "change": 150.0}
    assert out["metrics"]["backup_peak_rss_mb"]["change_wins"] == 2  # lower wins; a tie does not
    assert out["seeds"] == [1, 2, 3, 4] and out["simulated_identical"] and out["all_correct"]
    assert out["parent_env"] == {"python": ["3.11.7"], "nproc": [2], "src_lines": [4234]}


def test_fold_two_records(tmp_path):
    # one pair: the median is the value itself and the IQR is 0
    parent, change = _record(7, 150.0, 50.0), _record(7, 200.0, 50.0, sim={"backup_wall": 11})
    paths = []
    for name, rec in (("p.json", parent), ("c.json", change)):
        (tmp_path / name).write_text(json.dumps(rec))
        paths.append(str(tmp_path / name))
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"transcribed": [{"metric": "sim_speedup", "transcribed": True}], "workloads": {}}))
    assert bench_fold.main(["--out", str(out), "--parent", "abc1234", "--change", "c", "--pair", *paths]) == 0
    doc = json.loads(out.read_text())
    assert doc["transcribed"] == [{"metric": "sim_speedup", "transcribed": True}]
    assert doc["parent"] == "abc1234"
    proto = doc["workloads"]["default"]["metrics"]["proto_batches_per_s"]
    assert (proto["parent_median"], proto["parent_iqr"], proto["change_median"], proto["change_iqr"]) == (150.0, 0.0, 200.0, 0.0)
    assert proto["change_over_parent"] == pytest.approx(4 / 3)
    assert doc["workloads"]["default"]["simulated_identical"] is False


def test_fold_refuses_a_pair_of_different_seeds():
    with pytest.raises(ValueError, match="pair mixes"):
        bench_fold.fold([(_record(1, 1.0, 1.0), _record(2, 1.0, 1.0))], {})
