"""Multi-version storage cells.

Spanner stores every write at its commit timestamp and serves reads at any
timestamp without locks (multi-version concurrency control, paper section
IV-D1: "the serializability guarantee on timestamps allows Firestore to
perform lock-free consistent (timestamp-based) reads across a database
without blocking writes").

A :class:`VersionChain` is the version history of one row: its
``(commit_ts, value)`` pairs in timestamp order, where a value of
:data:`TOMBSTONE` marks a deletion. Old versions are garbage-collected
past a configurable horizon.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator


class _Tombstone:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<tombstone>"


#: Sentinel marking a deleted version.
TOMBSTONE = _Tombstone()


class VersionChain:
    """The timestamped version history of a single row.

    Most rows only ever hold one version, so that version lives inline:
    ``_ts`` is its int commit timestamp and ``_values`` the value itself.
    A second write moves the history into two ascending lists, and
    :meth:`gc` moves it back inline once one version survives. An empty
    chain holds None in both slots. The inline form keeps a stored row at
    one object the cyclic garbage collector tracks, instead of three.
    """

    __slots__ = ("_ts", "_values")

    def __init__(self) -> None:
        # None (empty), an int (one version inline), or a list of >= 2
        # ascending commit timestamps where _values[i] pairs with _ts[i]
        self._ts: Any = None
        self._values: Any = None

    def __len__(self) -> int:
        ts = self._ts
        if type(ts) is list:
            return len(ts)
        return 0 if ts is None else 1

    def write(self, commit_ts: int, value: Any) -> None:
        """Record ``value`` at ``commit_ts``.

        Timestamps must strictly increase (TrueTime guarantees a total
        order of commits); an equal or older timestamp is an invariant
        violation.
        """
        ts = self._ts
        if ts is None:
            self._ts = commit_ts
            self._values = value
            return
        last = ts[-1] if type(ts) is list else ts
        if commit_ts <= last:
            raise ValueError(f"non-monotonic MVCC write: {commit_ts} <= {last}")
        if type(ts) is list:
            ts.append(commit_ts)
            self._values.append(value)
        else:
            self._ts = [ts, commit_ts]
            self._values = [self._values, value]

    def read_at(self, read_ts: int) -> Any:
        """Newest value with commit_ts <= read_ts, or TOMBSTONE if none.

        A row that has never been written reads as deleted, which lets the
        caller treat missing rows and deleted rows uniformly.
        """
        ts = self._ts
        if type(ts) is list:
            idx = bisect.bisect_right(ts, read_ts) - 1
            return self._values[idx] if idx >= 0 else TOMBSTONE
        if ts is None or ts > read_ts:
            return TOMBSTONE
        return self._values

    def read_versioned_at(self, read_ts: int) -> tuple[int, Any] | None:
        """Newest (commit_ts, value) with commit_ts <= read_ts, or None."""
        ts = self._ts
        if type(ts) is list:
            idx = bisect.bisect_right(ts, read_ts) - 1
            return (ts[idx], self._values[idx]) if idx >= 0 else None
        if ts is None or ts > read_ts:
            return None
        return (ts, self._values)

    def latest(self) -> tuple[int, Any]:
        """The newest (commit_ts, value) pair."""
        ts = self._ts
        if type(ts) is list:
            return (ts[-1], self._values[-1])
        if ts is None:
            return (0, TOMBSTONE)
        return (ts, self._values)

    def versions(self) -> Iterator[tuple[int, Any]]:
        """All versions, newest first."""
        ts = self._ts
        if type(ts) is list:
            values = self._values
            for i in range(len(ts) - 1, -1, -1):
                yield ts[i], values[i]
        elif ts is not None:
            yield ts, self._values

    def gc(self, horizon_ts: int) -> int:
        """Drop versions superseded before ``horizon_ts``.

        Keeps the newest version at or before the horizon (it is still
        readable by horizon-time reads) and everything after. Returns the
        number of versions dropped. A chain whose only surviving version
        is a tombstone older than the horizon empties completely.
        """
        ts = self._ts
        if type(ts) is not list:
            if ts is None or ts > horizon_ts or self._values is not TOMBSTONE:
                return 0
            self._ts = self._values = None
            return 1
        keep_from = bisect.bisect_right(ts, horizon_ts) - 1
        if keep_from <= 0:
            return 0
        if keep_from < len(ts) - 1:
            self._ts = ts[keep_from:]
            self._values = self._values[keep_from:]
            return keep_from
        # one version survives, at or before the horizon
        value = self._values[-1]
        if value is TOMBSTONE:
            self._ts = self._values = None
            return keep_from + 1
        self._ts = ts[-1]
        self._values = value
        return keep_from

    def is_empty(self) -> bool:
        """True when no versions remain."""
        return self._ts is None


def is_deleted(value: Any) -> bool:
    """True if an MVCC read produced a tombstone (or never-written row)."""
    return value is TOMBSTONE
