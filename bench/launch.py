"""Run one ``ira`` command in this process, optionally tracing host time per layer.

Usage::

    python3 launch.py SPANS_OUT IRA_ARG...

With ``SPANS_OUT`` set to ``-`` the command runs untouched. Otherwise the
public functions of every ``ira`` module are wrapped before ``ira.cli.main``
is called, spans are kept in memory, and one JSON document is written to
``SPANS_OUT`` when the command has finished. The exit code is the command's.

Each wrapper is installed on the name its caller looks up (``backup`` imports
``parse_hint`` by name, so ``ira.backup.parse_hint`` is patched as well as
``ira.primary.parse_hint``). Three kinds of probe exist:

* span: a call recorded with its duration and self time (duration minus the
  part covered by its child spans and leaves); per-block calls carry the block
  number as id;
* leaf: a hot call (store reads, view lookups) counted and timed in aggregate
  rather than one record per call, and subtracted from its parent's self time;
* count: a call counted only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.monotonic  # system-wide on Linux, so comparable with the parent


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans = []  # (name, id, start, duration, self)
        self.stack = []  # child time covered so far, one entry per open span
        self.leaves = {}  # name -> [calls, seconds]
        self.counts = {}
        self.leaf_depth = 0

    def _close(self, name, ident, start, child):
        end = clock()
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1] += duration
        self.spans.append((name, ident, start, duration, duration - child))

    def span(self, name, func, ident=None, observe=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.stack.append(0.0)
            depth = len(tracer.stack)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                child = tracer.stack[depth - 1]
                tracer._close(name, ident(args, result) if ident else None, start, child)
                if observe is not None and result is not None:
                    observe(tracer, result)

        return wrapper

    def gen_span(self, name, func):
        """Span every step of a generator: each yielded item is one span."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                tracer.stack.append(0.0)
                depth = len(tracer.stack)
                start = clock()
                item = None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ident = getattr(item, "number", None)
                    tracer._close(name, ident, start, tracer.stack[depth - 1])
                yield item

        return wrapper

    def leaf(self, name, func):
        tracer = self
        entry = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.leaf_depth += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                tracer.leaf_depth -= 1
                entry[0] += 1
                entry[1] += duration
                if tracer.leaf_depth == 0 and tracer.stack:
                    tracer.stack[-1] += duration

        return wrapper

    def count(self, name, func):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def _block_arg(args, _result):
    return args[0].number


def _hint_block(_args, result):
    return getattr(result, "block_number", None)


def _plan_block(args, _result):
    blocks = args[0].blocks
    return blocks[0] if blocks else None


def _count_plan(tracer, plan):
    tracer.add("backup.entries_plain", len(plan.plain_keys))
    tracer.add("backup.entries_zero", len(plan.zero_keys))
    tracer.add("backup.entries_changeset", len(plan.changeset_pairs))
    tracer.add("backup.entries_account", len(plan.account_pairs))
    tracer.add("backup.entries_code", len(plan.code_addrs))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where their callers find them."""
    from ira import backup, cachesim, cli, primary, protocol, store, workload

    def patch(owners, attr, wrapper):
        for owner in owners:
            setattr(owner, attr, wrapper)

    # workload
    patch((workload, cli), "iter_trace", tracer.gen_span("workload.iter_trace", workload.iter_trace))
    patch((workload, cli), "iter_trace_file", tracer.gen_span("workload.iter_trace_file", workload.iter_trace_file))
    patch((workload,), "save_trace", tracer.span("workload.save_trace", workload.save_trace))
    patch((workload,), "derive_genesis", tracer.span("workload.derive_genesis", workload.derive_genesis))
    patch((workload,), "collect_storage_keys", tracer.span("workload.collect_storage_keys", workload.collect_storage_keys))
    patch((workload,), "build_store", tracer.span("workload.build_store", workload.build_store))
    patch(
        (workload, primary, backup),
        "execute_block",
        tracer.span("workload.execute_block", workload.execute_block, ident=_block_arg),
    )

    # store
    cls = store.ArchivalStore
    cls.seed_genesis = tracer.span("store.seed_genesis", cls.seed_genesis)
    cls.apply_block = tracer.span("store.apply_block", cls.apply_block, ident=lambda a, r: a[1])
    cls.save = tracer.span("store.save", cls.save)
    cls.load = classmethod(tracer.span("store.load", cls.load.__func__))
    cls.read_as_of = tracer.leaf("store.read_as_of", cls.read_as_of)
    cls.account_as_of = tracer.leaf("store.account_as_of", cls.account_as_of)
    cls.code_as_of = tracer.leaf("store.code_as_of", cls.code_as_of)
    store.ShardedIndex.first_at_or_after = tracer.count(
        "store.history_lookup", store.ShardedIndex.first_at_or_after
    )
    for view in (store.StoreView, backup.BaselineView, backup.BlockCache):
        for method in ("get_storage", "get_account", "get_code"):
            setattr(view, method, tracer.leaf(f"{view.__name__}.{method}", getattr(view, method)))

    # primary
    patch((primary, cli), "run_primary_block", tracer.span("primary.run_primary_block", primary.run_primary_block, ident=_block_arg))
    patch((primary,), "annotate_sources", tracer.span("primary.annotate_sources", primary.annotate_sources))
    patch((primary,), "serialize_hint", tracer.span("primary.serialize_hint", primary.serialize_hint))
    patch((primary,), "compress_hint", tracer.span("primary.compress_hint", primary.compress_hint))
    patch((primary, backup), "parse_hint", tracer.span("primary.parse_hint", primary.parse_hint, ident=_hint_block))
    patch((primary, backup), "decompress_hint", tracer.span("primary.decompress_hint", primary.decompress_hint))
    patch((primary, backup), "state_change_hash", tracer.span("primary.state_change_hash", primary.state_change_hash))
    hdb = primary.HintDb
    hdb.__init__ = tracer.span("primary.HintDb.open", hdb.__init__)
    hdb.write_hint = tracer.span("primary.HintDb.write_hint", hdb.write_hint, ident=lambda a, r: a[1])
    hdb.read_hint = tracer.span("primary.HintDb.read_hint", hdb.read_hint, ident=lambda a, r: a[1])

    # backup
    patch((backup,), "plan_prefetch", tracer.span("backup.plan_prefetch", backup.plan_prefetch, observe=_count_plan))
    patch((backup,), "prefetch", tracer.span("backup.prefetch", backup.prefetch, ident=_plan_block))
    patch((backup,), "replay_block", tracer.span("backup.replay_block", backup.replay_block, ident=_block_arg))
    patch((backup,), "pipeline_run", tracer.span("backup.pipeline_run", backup.pipeline_run))
    patch((backup,), "run_baseline", tracer.span("backup.run_baseline", backup.run_baseline))

    # cachesim
    patch((cachesim,), "simulate_lru", tracer.span("cachesim.simulate_lru", cachesim.simulate_lru))
    patch((cachesim,), "simulate_belady", tracer.span("cachesim.simulate_belady", cachesim.simulate_belady))

    # protocol
    patch((protocol,), "encode_hint", tracer.span("protocol.encode_hint", protocol.encode_hint))
    patch((protocol,), "generic_replay", tracer.span("protocol.generic_replay", protocol.generic_replay))

    # cli
    patch((cli,), "main", tracer.span("cli.main", cli.main))


def main(argv) -> int:
    spans_out, ira_args = argv[0], argv[1:]
    tracer = None
    if spans_out != "-":
        tracer = Tracer()
        install(tracer)
    from ira import cli

    main_start = clock()
    code = cli.main(ira_args)
    if tracer is not None:
        with open(spans_out, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "main_start": main_start,
                    "spans": tracer.spans,
                    "leaves": tracer.leaves,
                    "counts": tracer.counts,
                },
                f,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
