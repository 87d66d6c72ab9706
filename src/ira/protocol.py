"""Generalized hint protocol over an abstract byte-string key-value state.

This module strips the engine down to its portable core: a primary executes a
batch of reads/writes, records the touched key set, encodes it, and a backup
prefetches the encoded set before replaying the same batch. Four encodings
are provided:

* exact: length-prefixed sorted keys (lossless)
* prefix: shared-prefix/suffix runs over the sorted key list (lossless, never
  larger than exact when keys share prefixes)
* bloom: bit-array membership filter sized from a target false-positive rate;
  no false negatives, so prefetching every positive candidate always covers
  the true access set
* range: sorted (start, end) intervals; membership is interval containment

Encodings change which keys get prefetched, never the replay result: a miss
on an exactly-encoded key is a completeness violation, while approximate
encodings prefetch a superset of the candidates that truly get accessed.

Transmission strategies are simulated against a two-parameter link model
(latency + bandwidth, optional per-message Bernoulli loss): inline delivery
couples the hint to the batch, sideband sends it ahead on its own channel,
and on-demand only ships a hint after a miss-rate-triggered request
round-trip.

The data is plain: a state is a dict of byte strings, an op a ``(kind, key,
value)`` tuple, and an encoding or strategy is named by a string. A
``Scenario`` holds the settings of one ``ira proto`` run and checks them
when it is built (``ira.finished``).
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import finished

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_BE_U64_PAIR = struct.Struct(">QQ")


class DecodeError(Exception):
    """Encoded hint bytes are malformed."""


class CompletenessError(Exception):
    """Replay under an exact encoding touched a key outside the hint."""


# One op of a batch, ``(kind, key, value)``: kind is "read" or "write", and
# value is present iff the op is a write. Build it with ``read_op`` or
# ``write_op``, which check it.
Op = Tuple[str, bytes, Optional[bytes]]

ENCODINGS = ("exact", "prefix", "bloom", "range")
STRATEGIES = ("inline", "sideband", "on_demand")


def read_op(key: bytes) -> Op:
    if not key:
        raise ValueError("key must be non-empty")
    return ("read", key, None)


def write_op(key: bytes, value: bytes) -> Op:
    if not key:
        raise ValueError("key must be non-empty")
    if value is None:
        raise ValueError("value present iff op is a write")
    return ("write", key, value)


# -- hint generation / replay -------------------------------------------------------


class GenericHint(NamedTuple):
    """Access set of one batch plus how it is encoded on the wire."""

    encoding: str
    payload: bytes

    def size(self) -> int:
        return 1 + len(self.payload)  # tag byte + body


def generic_generate(batch: Sequence[Op], store: Dict[bytes, bytes]) -> Set[bytes]:
    """Execute a batch on the primary's state, returning the touched key set.

    Both reads and writes enter the access set (a replayer needs the
    pre-state of written keys as much as read ones)."""
    access: Set[bytes] = set()
    for kind, key, value in batch:
        access.add(key)
        if kind == "write":
            store[key] = value  # type: ignore[assignment]
    return access


class ReplayStats(NamedTuple):
    prefetched: int
    extra_prefetches: int


def generic_replay(
    batch: Sequence[Op],
    hint: GenericHint,
    store: Dict[bytes, bytes],
    candidates: Optional[Iterable[bytes]] = None,
) -> ReplayStats:
    """Prefetch per the hint, execute the batch from cache, persist dirty keys.

    For membership-only encodings (bloom, range) the prefetch set is every
    positive key among ``candidates`` (defaulting to the batch's own keys).
    The final store state is identical to direct execution for every
    encoding; only the amount of prefetch I/O differs.
    """
    view = decode_hint(hint.encoding, hint.payload)
    batch_keys = {key for _, key, _ in batch}
    if view.keys is not None:
        to_fetch = sorted(view.keys)
    else:
        pool = set(candidates) if candidates is not None else set(batch_keys)
        pool.update(batch_keys)  # no false negatives: every true access tests positive
        # the membership test itself, bound once for the whole pool
        to_fetch = sorted(filter(view.member, pool))

    cache: Dict[bytes, Optional[bytes]] = {}
    for key in to_fetch:
        cache[key] = store.get(key)
    prefetched = len(to_fetch)
    extra = len([k for k in to_fetch if k not in batch_keys])

    dirty: Dict[bytes, bytes] = {}
    for kind, key, value in batch:
        if key not in cache:
            if view.keys is not None:
                raise CompletenessError(f"exact hint missed key {key.hex()}")
            raise AssertionError("membership encoding produced a false negative")
        if kind == "write":
            dirty[key] = value  # type: ignore[assignment]
    store.update(dirty)
    return ReplayStats(prefetched=prefetched, extra_prefetches=extra)


# -- encodings ---------------------------------------------------------------------


class DecodedHint(NamedTuple):
    """Decoded form: either a concrete key set or a membership test."""

    keys: Optional[Set[bytes]]
    member: Optional[Callable[[bytes], bool]] = None


def _encode_strings(strings: List[bytes], per_item: int) -> bytes:
    """The count of items, ``per_item`` strings each, as a u32, then each
    string prefixed by its u16 length: an exact hint is its keys, one per
    item, a range hint each interval's start and end."""
    out = bytearray(_U32.pack(len(strings) // per_item))
    for string in strings:
        out += _U16.pack(len(string))
        out += string
    return bytes(out)


def _decode_strings(encoding: str, payload: bytes, per_item: int) -> List[bytes]:
    """The strings of an ``_encode_strings`` payload of ``per_item`` strings
    per counted item; a payload cut short is truncated, one with bytes after
    its last string has trailing bytes."""
    truncated = f"{encoding} hint truncated"
    try:
        (count,) = _U32.unpack_from(payload, 0)
        off = 4
        strings: List[bytes] = []
        for _ in range(count * per_item):
            (n,) = _U16.unpack_from(payload, off)
            off += 2 + n
            if off > len(payload):
                raise DecodeError(truncated)
            strings.append(payload[off - n : off])
    except struct.error:  # cut inside the count or a length
        raise DecodeError(truncated) from None
    if off != len(payload):
        raise DecodeError(f"{encoding} hint has trailing bytes")
    return strings


def _encode_prefix(keys: List[bytes]) -> bytes:
    out = bytearray(_U32.pack(len(keys)))
    prev = b""
    for key in keys:
        lcp = 0
        limit = min(len(prev), len(key))
        while lcp < limit and prev[lcp] == key[lcp]:
            lcp += 1
        suffix = key[lcp:]
        out += _U16.pack(lcp)
        out += _U16.pack(len(suffix))
        out += suffix
        prev = key
    return bytes(out)


def _decode_prefix(payload: bytes) -> Set[bytes]:
    try:
        (count,) = _U32.unpack_from(payload, 0)
        off = 4
        keys: Set[bytes] = set()
        prev = b""
        for _ in range(count):
            (lcp,) = _U16.unpack_from(payload, off)
            (slen,) = _U16.unpack_from(payload, off + 2)
            off += 4
            if lcp > len(prev) or off + slen > len(payload):
                raise DecodeError("prefix hint malformed")
            key = prev[:lcp] + payload[off : off + slen]
            off += slen
            keys.add(key)
            prev = key
        if off != len(payload):
            raise DecodeError("prefix hint has trailing bytes")
        return keys
    except struct.error:
        raise DecodeError("prefix hint truncated") from None


# Distinct keys whose probe base stays memoized. Candidate pools repeat from
# batch to batch, so a replay that tests the same keys against every batch's
# filter hashes each of them once.
_HASH_MEMO_KEYS = 1 << 14

# The wire format stores the probe count in one byte.
MAX_BLOOM_PROBES = 255


@lru_cache(maxsize=_HASH_MEMO_KEYS)
def _hash_pair(key: bytes) -> Tuple[int, int]:
    """Double-hashing base of ``key``: probe ``i`` of an ``m``-bit filter is
    bit ``(h1 + i*h2) % m``. It depends on the key alone, not on the filter."""
    h1, h2 = _BE_U64_PAIR.unpack_from(hashlib.sha256(key).digest())
    return h1, h2 | 1


class BloomFilter:
    """Fixed-size bit-array membership filter with double hashing.

    Sized from the standard formulas: ``m = -n ln(p) / (ln 2)^2`` bits and
    ``k = round(m/n ln 2)`` probes. Adding a key can never be forgotten, so
    false negatives are impossible; false positives occur at roughly the
    target rate. Probe ``i`` of a key is bit ``(h1 + i*h2) % m``, stored
    LSB-first in byte ``bit >> 3`` (see ``_hash_pair``)."""

    def __init__(self, n_keys: int, target_fpr: float):
        if not (0.0 < target_fpr < 1.0):
            raise ValueError("target_fpr must be in (0, 1)")
        n = max(1, n_keys)
        self.m_bits = max(8, int(math.ceil(-n * math.log(target_fpr) / (math.log(2) ** 2))))
        self.k_hashes = max(1, round(self.m_bits / n * math.log(2)))
        if self.k_hashes > MAX_BLOOM_PROBES:
            raise ValueError(
                f"target_fpr {target_fpr!r} needs {self.k_hashes} probes; a bloom hint holds at most {MAX_BLOOM_PROBES}"
            )
        self.bits = bytearray((self.m_bits + 7) // 8)

    def add(self, key: bytes) -> None:
        h, h2 = _hash_pair(key)
        m, bits = self.m_bits, self.bits
        for _ in range(self.k_hashes):
            idx = h % m
            bits[idx >> 3] |= 1 << (idx & 7)
            h += h2

    def __contains__(self, key: bytes) -> bool:
        h, h2 = _hash_pair(key)
        m, bits = self.m_bits, self.bits
        for _ in range(self.k_hashes):
            idx = h % m
            if not bits[idx >> 3] & (1 << (idx & 7)):
                return False
            h += h2
        return True

    def to_bytes(self) -> bytes:
        return _U64.pack(self.m_bits) + bytes((self.k_hashes,)) + bytes(self.bits)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        if len(payload) < 9:
            raise DecodeError("bloom hint truncated")
        (m_bits,) = _U64.unpack_from(payload, 0)
        k = payload[8]
        bits = payload[9:]
        if m_bits < 8 or len(bits) != (m_bits + 7) // 8 or k < 1:
            raise DecodeError("bloom hint malformed")
        bf = cls.__new__(cls)
        bf.m_bits = m_bits
        bf.k_hashes = k
        bf.bits = bytearray(bits)
        return bf


class _RangeView:
    def __init__(self, intervals: List[Tuple[bytes, bytes]]):
        self.intervals = sorted(intervals)
        self._starts = [s for s, _ in self.intervals]

    def __call__(self, key: bytes) -> bool:
        i = bisect_right(self._starts, key) - 1
        return i >= 0 and key <= self.intervals[i][1]


def encode_hint(keys: Iterable[bytes], encoding: str = "exact", *, target_fpr: float = 0.01) -> GenericHint:
    """Encode an access set under one of ``ENCODINGS``. A range hint is one
    interval, from the least key to the greatest (none for an empty set)."""
    sorted_keys = sorted(set(keys))
    if encoding == "exact":
        payload = _encode_strings(sorted_keys, 1)
    elif encoding == "prefix":
        payload = _encode_prefix(sorted_keys)
    elif encoding == "bloom":
        bf = BloomFilter(len(sorted_keys), target_fpr)
        for key in sorted_keys:
            bf.add(key)
        payload = bf.to_bytes()
    elif encoding == "range":
        payload = _encode_strings([sorted_keys[0], sorted_keys[-1]] if sorted_keys else [], 2)
    else:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    return GenericHint(encoding=encoding, payload=payload)


def decode_hint(encoding: str, payload: bytes) -> DecodedHint:
    if encoding == "exact":
        return DecodedHint(keys=set(_decode_strings(encoding, payload, 1)))
    if encoding == "prefix":
        return DecodedHint(keys=_decode_prefix(payload))
    if encoding == "bloom":
        bf = BloomFilter.from_bytes(payload)
        return DecodedHint(keys=None, member=bf.__contains__)
    if encoding == "range":
        bounds = _decode_strings(encoding, payload, 2)
        return DecodedHint(keys=None, member=_RangeView(list(zip(bounds[::2], bounds[1::2]))))
    raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")


# -- bandwidth / transmission --------------------------------------------------------


def benefit_check(hint_bytes: int, bandwidth: float, latency_reduction: float, n_backups: int) -> bool:
    """True when shipping the hint costs strictly less link time than the
    replay latency it saves, summed over all backups."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return hint_bytes / bandwidth < latency_reduction * n_backups


def _check(ok: bool, name: str, domain: str, value: object) -> None:
    """Raise ValueError ``<name> must be <domain>, got <value>`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {domain}, got {value!r}")


@finished
class LinkModel(NamedTuple):
    """Affine link: delivering n bytes takes latency + n / bandwidth."""

    latency: float = 0.001
    bandwidth: float = 125_000_000.0  # bytes per time unit (1 Gbit/s at seconds)
    loss_probability: float = 0.0
    seed: int = 0

    def _finish(self) -> "LinkModel":
        _check(self.latency >= 0, "latency", "a number >= 0", self.latency)
        _check(self.bandwidth > 0, "bandwidth", "a number > 0", self.bandwidth)
        _check(0 <= self.loss_probability <= 1, "loss_probability", "a number in [0, 1]", self.loss_probability)
        return self

    def transfer_time(self, n_bytes: int) -> float:
        return self.latency + n_bytes / self.bandwidth


class DeliveryTimeline(NamedTuple):
    """When each artifact becomes usable at the backup. ``hint_ready`` is None
    when the hint never arrives (lost, or never requested)."""

    hint_ready: Optional[float]
    batch_ready: float

    @property
    def prefetch_window(self) -> float:
        if self.hint_ready is None:
            return 0.0
        return max(0.0, self.batch_ready - self.hint_ready)


def simulate_transmission(
    strategy: str,
    hint_bytes: int,
    batch_bytes: int,
    link: LinkModel,
    *,
    miss_rate: float = 0.0,
    miss_rate_threshold: float = 0.05,
    rng: Optional[random.Random] = None,
) -> DeliveryTimeline:
    """Derive the delivery timeline of one (hint, batch) pair under one of
    ``STRATEGIES``.

    Inline couples them into one message. Sideband sends the hint on its own
    channel starting at the same instant (subject to Bernoulli loss). On
    demand, the backup only requests a hint once its observed miss rate
    crosses the threshold, paying a request round trip after the batch lands.
    """
    if strategy == "inline":
        t = link.transfer_time(hint_bytes + batch_bytes)
        return DeliveryTimeline(hint_ready=t, batch_ready=t)
    if strategy == "sideband":
        batch_ready = link.transfer_time(batch_bytes)
        p = link.loss_probability
        lost = p > 0.0 and (rng or random.Random(link.seed)).random() < p
        hint_ready = None if lost else link.transfer_time(hint_bytes)
        return DeliveryTimeline(hint_ready=hint_ready, batch_ready=batch_ready)
    if strategy != "on_demand":
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    batch_ready = link.transfer_time(batch_bytes)
    if miss_rate < miss_rate_threshold:
        return DeliveryTimeline(hint_ready=None, batch_ready=batch_ready)
    hint_ready = batch_ready + link.latency + link.transfer_time(hint_bytes)
    return DeliveryTimeline(hint_ready=hint_ready, batch_ready=batch_ready)


@finished
class Scenario(NamedTuple):
    """The settings of one ``ira proto`` run. A setting left out takes the
    default of the object that owns it: the link's from ``LinkModel``,
    ``target_fpr`` from ``encode_hint`` and ``miss_rate_threshold`` from
    ``simulate_transmission``."""

    batches: int = 20
    ops_per_batch: int = 50
    key_space: int = 200
    write_fraction: float = 0.3
    encoding: str = "exact"
    strategy: str = "inline"
    target_fpr: float = encode_hint.__kwdefaults__["target_fpr"]
    latency: float = LinkModel._field_defaults["latency"]
    bandwidth: float = LinkModel._field_defaults["bandwidth"]
    loss_probability: float = LinkModel._field_defaults["loss_probability"]
    seed: int = LinkModel._field_defaults["seed"]
    backups: int = 1
    latency_reduction: float = 0.01
    batch_bytes: int = 2_000_000
    miss_rate: float = 0.1
    miss_rate_threshold: float = simulate_transmission.__kwdefaults__["miss_rate_threshold"]

    def _finish(self) -> "Scenario":
        for name in ("batches", "ops_per_batch", "key_space", "backups"):
            _check(getattr(self, name) >= 1, name, "an integer >= 1", getattr(self, name))
        for name in ("write_fraction", "miss_rate", "miss_rate_threshold"):
            _check(0 <= getattr(self, name) <= 1, name, "a number in [0, 1]", getattr(self, name))
        _check(self.latency_reduction >= 0, "latency_reduction", "a number >= 0", self.latency_reduction)
        _check(self.batch_bytes >= 0, "batch_bytes", "an integer >= 0", self.batch_bytes)
        _check(self.encoding in ENCODINGS, "encoding", f"one of {ENCODINGS}", self.encoding)
        _check(self.strategy in STRATEGIES, "strategy", f"one of {STRATEGIES}", self.strategy)
        try:  # a one-key filter needs the most probes: if it builds, every filter does
            BloomFilter(1, self.target_fpr)
        except ValueError:
            raise ValueError(f"target_fpr must be a number in (0, 1) that needs at most {MAX_BLOOM_PROBES} "
                             f"bloom probes, got {self.target_fpr!r}") from None
        self.link()
        return self

    def link(self) -> LinkModel:
        """The link these settings describe, checked by ``LinkModel``."""
        return LinkModel(self.latency, self.bandwidth, self.loss_probability, self.seed)
