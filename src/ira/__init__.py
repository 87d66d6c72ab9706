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


# Each setting type: the words an error names it by, and the exact types of
# the values it admits. Nothing is converted: a bool is no number, and a
# float setting keeps an int as given.
KINDS = {
    bool: ("true or false", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
}


def finished(cls):
    """Class decorator for a ``typing.NamedTuple`` with a ``_finish`` method.

    A NamedTuple body cannot define ``__new__``, so this wraps the generated
    one: calling the class builds the record, checks each field whose default
    is a bool, int, float or str against ``KINDS`` (a TypeError names the
    field), then returns ``record._finish()``, which raises on a bad record
    or returns a completed one. The checked fields are listed once, here, so
    a record whose defaults are None checks none. ``_make`` and ``_replace``
    skip both steps.
    """
    new, defaults = cls.__new__, cls._field_defaults
    typed = tuple(
        (i, name, *KINDS[type(defaults.get(name))])
        for i, name in enumerate(cls._fields)
        if type(defaults.get(name)) in KINDS
    )

    def __new__(cls_, *args, **kwargs):
        record = new(cls_, *args, **kwargs)
        for i, name, words, types in typed:
            if type(record[i]) not in types:
                raise TypeError(f"{name} must be {words}, got {record[i]!r}")
        return record._finish()

    cls.__new__ = staticmethod(__new__)
    return cls


def fresh_parts(record):
    """A ``_finish`` for a record of dicts: each part left as None becomes a
    fresh dict, so that two records never share one default."""
    if None not in record:
        return record
    return record._make({} if part is None else part for part in record)
