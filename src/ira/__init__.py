"""Hint-based replay over a versioned key-value store, with a deterministic
simulated I/O cost model.

A primary engine executes blocks while recording exactly which state they
touch, ships that access set (plus per-key read-source bytes) as a compact
hint, and a backup engine uses the hints to prefetch everything a block needs
before replaying it from a crash-on-miss cache. Companion modules provide the
archival store, a synthetic workload generator, an LRU-vs-optimal cache
simulator, and a generalized form of the protocol over abstract keys.

This file imports no module of the package, so that each ``ira`` command
loads only the modules it runs. Records are ``typing.NamedTuple`` classes,
so that no command loads ``dataclasses``.
"""

__version__ = "0.1.0"


class IraError(Exception):
    """A failure that ``ira`` reports as one line, ``<prefix>: <message>``,
    on stderr, exiting with ``exit_code``."""

    prefix = "error"
    exit_code = 2


class ConfigError(IraError):
    """Config file missing, malformed, or inconsistent with its use."""

    prefix = "config error"


def finished(cls):
    """Class decorator for a ``typing.NamedTuple`` with a ``_finish`` method.

    A NamedTuple body cannot define ``__new__``, so this wraps the generated
    one: calling the class builds the record, then returns
    ``record._finish()``, which raises on a bad record or returns a
    completed one. ``_make`` and ``_replace`` skip ``_finish``.
    """
    new = cls.__new__

    def __new__(cls_, *args, **kwargs):
        return new(cls_, *args, **kwargs)._finish()

    cls.__new__ = staticmethod(__new__)
    return cls


def fresh_parts(record):
    """A ``_finish`` for a record of dicts: each part left as None becomes a
    fresh dict, so that two records never share one default."""
    if None not in record:
        return record
    return record._make({} if part is None else part for part in record)
