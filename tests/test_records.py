"""Records are NamedTuples: the pitfalls of that idiom, pinned.

A NamedTuple field default is one object shared by every record, and a
NamedTuple body cannot define ``__new__``, so the defaults of the dict
records and the construction checks need care (``ira.finished``).
"""

from __future__ import annotations

import json
import re

import pytest

from ira import ConfigError
from ira.cachesim import SimResult, simulate_belady, simulate_lru
from ira.config import BaselineCacheConfig, PipelineConfig, load_config
from ira.protocol import LinkModel, Scenario, read_op, write_op
from ira.store import CostModel, Effects
from ira.workload import GeneratorParams, GenesisState


@pytest.mark.parametrize("record", [Effects, GenesisState])
def test_dict_records_never_share_a_default(record):
    a, b = record(), record()
    for part_a, part_b in zip(a, b):
        assert part_a == {} and part_a is not part_b
    given = {b"k": b"v"}
    assert record(given)[0] is given
    assert all(part == {} for part in record(given)[1:])


def test_sim_results_never_share_an_eviction_log():
    with pytest.raises(TypeError):
        SimResult(0, 0)  # no default list to share
    for simulate in (simulate_lru, simulate_belady):
        a, b = simulate([1, 2, 3], 1), simulate([1, 2, 3], 1)
        assert a == b and a.eviction_log is not b.eviction_log


def test_generic_op_constructors_check_their_op():
    with pytest.raises(ValueError, match="^key must be non-empty$"):
        read_op(b"")
    with pytest.raises(ValueError, match="^key must be non-empty$"):
        write_op(b"", b"v")
    with pytest.raises(ValueError, match="^value present iff op is a write$"):
        write_op(b"k", None)
    assert read_op(b"k")[2] is None and write_op(b"k", b"v")[2] == b"v"


def test_cost_model_checks_on_construction():
    with pytest.raises(ValueError, match="^io_lanes must be >= 1$"):
        CostModel(io_lanes=0)
    with pytest.raises(ValueError, match="^c_compute must be >= 0$"):
        CostModel(c_compute=-1)
    assert CostModel(io_lanes=4).io_lanes == 4


def _load(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return load_config(path)


def test_negative_baseline_capacity_is_a_bad_section(tmp_path):
    with pytest.raises(ConfigError, match="^bad baseline_cache section: capacities must be non-negative$"):
        _load(tmp_path, {"baseline_cache": {"storage": -1}})


@pytest.mark.parametrize(
    "section, record",
    [("generator", "GeneratorParams"), ("cost_model", "CostModel"),
     ("baseline_cache", "BaselineCacheConfig"), ("pipeline", "PipelineConfig")],
)
def test_an_unknown_setting_is_a_bad_section(tmp_path, section, record):
    # a dataclass said __init__() here
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, {section: {"no_such_setting": 1}})
    assert str(exc.value) == f"bad {section} section: {record}.__new__() got an unexpected keyword argument 'no_such_setting'"


@pytest.mark.parametrize(
    "record, field, value, words",
    [
        (PipelineConfig, "batch_size", 8.9, "an integer"),
        (BaselineCacheConfig, "storage", True, "an integer"),
        (CostModel, "c_hit", "1", "an integer"),
        (GeneratorParams, "reads_only", 0, "true or false"),
        (GeneratorParams, "hot_key_share", False, "a number"),
    ],
)
def test_a_config_record_refuses_a_value_of_another_kind(record, field, value, words):
    with pytest.raises(TypeError, match=f"^{re.escape(f'{field} must be {words}, got {value!r}')}$"):
        record(**{field: value})


@pytest.mark.parametrize(
    "setting, error",
    [({"bandwidth": 0}, ValueError), ({"latency": -1}, ValueError),
     ({"loss_probability": 1.5}, ValueError), ({"latency": "x"}, TypeError)],
    ids=["bandwidth-0", "latency-negative", "loss-above-1", "latency-str"],
)
def test_a_link_refuses_a_setting_outside_its_domain(setting, error):
    ((field, value),) = setting.items()
    with pytest.raises(error, match=f"^{field} must be "):
        LinkModel(**setting)
    with pytest.raises(error, match=f"^{field} must be "):
        Scenario(**setting)


def test_an_omitted_proto_setting_takes_the_default_it_always_had():
    assert Scenario()._asdict() == {
        "batches": 20, "ops_per_batch": 50, "key_space": 200, "write_fraction": 0.3,
        "encoding": "exact", "strategy": "inline", "target_fpr": 0.01,
        "latency": 0.001, "bandwidth": 125_000_000.0, "loss_probability": 0.0, "seed": 0,
        "backups": 1, "latency_reduction": 0.01, "batch_bytes": 2_000_000,
        "miss_rate": 0.1, "miss_rate_threshold": 0.05,
    }
    assert Scenario().link() == LinkModel()
