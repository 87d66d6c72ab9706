"""Run configuration: one human-editable JSON file with a content hash.

The file has one section per concern; anything omitted falls back to the
defaults below. They come from each section's record: the generator's and
the cost model's live in their own modules, the pipeline's and the baseline
cache's live here, so that loading a config never loads the backup. Reports
record the config hash (and the cost-model hash) so joins across runs can
refuse to compare unlike configurations. That hash covers every section, so
``load_config`` checks them all, whichever a command uses. A section is
checked by building its ``ira.finished`` record, which refuses a value of the
wrong type or outside its domain and converts none; the trace header and the
store manifest are checked by building the same records.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional

from . import ConfigError, finished
from .store import CostModel
from .workload import GeneratorParams


@finished
class PipelineConfig(NamedTuple):
    """The backup pipeline's batching, channel, warm-up and prefetch lanes."""

    batch_size: int = 32
    channel_capacity: int = 100
    warmup_blocks: int = 32
    warmup_buffer_entries: int = 134_217_728  # 8 GiB at ~64 bytes per entry
    workers: int = 16

    def _finish(self) -> "PipelineConfig":
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.channel_capacity < self.batch_size:
            raise ValueError("channel_capacity must be >= batch_size (a batch enters the channel whole)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.warmup_blocks < 0 or self.warmup_buffer_entries < 0:
            raise ValueError("warm-up sizes must be non-negative")
        return self


@finished
class BaselineCacheConfig(NamedTuple):
    """Cross-block LRU capacities (entries) for the unhinted baseline."""

    accounts: int = 100_000
    storage: int = 1_000_000
    codes: int = 10_000

    def _finish(self) -> "BaselineCacheConfig":
        if min(self) < 0:
            raise ValueError("capacities must be non-negative")
        return self


# each section's record; building it from the section is the whole check
_SECTIONS = {"generator": GeneratorParams, "cost_model": CostModel,
             "baseline_cache": BaselineCacheConfig, "pipeline": PipelineConfig}

DEFAULT_CONFIG: Dict[str, Any] = {name: record()._asdict() for name, record in _SECTIONS.items()}


class Config(NamedTuple):
    """A checked config: each section's record, and ``raw``, the merged JSON
    that the report hashes are computed from."""

    generator: GeneratorParams
    cost_model: CostModel
    baseline_cache: BaselineCacheConfig
    pipeline: PipelineConfig
    raw: Dict[str, Dict[str, Any]]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _read_user_config(path: Path) -> Dict[str, Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            user = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in user.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name} must be a JSON object, got {json.dumps(section)}")
    return user


def load_config(path: Optional[Path]) -> Config:
    """Merge a config file over the defaults (defaults alone if no path) and
    check every section; a bad one raises ConfigError naming it."""
    user = {} if path is None else _read_user_config(path)
    raw = {name: {**default, **user.get(name, {})} for name, default in DEFAULT_CONFIG.items()}
    sections = {}
    for name, record in _SECTIONS.items():
        try:
            sections[name] = record(**raw[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name} section: {exc}") from None
    return Config(raw=raw, **sections)
