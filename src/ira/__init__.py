"""Hint-based replay over a versioned key-value store, with a deterministic
simulated I/O cost model.

A primary engine executes blocks while recording exactly which state they
touch, ships that access set (plus per-key read-source bytes) as a compact
hint, and a backup engine uses the hints to prefetch everything a block needs
before replaying it from a crash-on-miss cache. Companion modules provide the
archival store, a synthetic workload generator, an LRU-vs-optimal cache
simulator, and a generalized form of the protocol over abstract keys.

This file imports no module of the package, so that each ``ira`` command
loads only the modules it runs.
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
