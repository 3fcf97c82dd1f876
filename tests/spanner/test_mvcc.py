import bisect
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spanner.mvcc import TOMBSTONE, VersionChain, is_deleted
from repro.spanner.tablet import Tablet


def test_empty_chain_reads_as_deleted():
    chain = VersionChain()
    assert chain.read_at(100) is TOMBSTONE
    assert is_deleted(chain.read_at(100))
    assert chain.latest() == (0, TOMBSTONE)
    assert chain.is_empty()


def test_read_at_picks_newest_at_or_before():
    chain = VersionChain()
    chain.write(10, "v10")
    chain.write(20, "v20")
    chain.write(30, "v30")
    assert chain.read_at(5) is TOMBSTONE
    assert chain.read_at(10) == "v10"
    assert chain.read_at(15) == "v10"
    assert chain.read_at(20) == "v20"
    assert chain.read_at(1000) == "v30"


def test_write_rejects_non_monotonic_timestamps():
    chain = VersionChain()
    chain.write(10, "a")
    with pytest.raises(ValueError):
        chain.write(10, "b")
    with pytest.raises(ValueError):
        chain.write(5, "c")


def test_tombstone_versions():
    chain = VersionChain()
    chain.write(10, "alive")
    chain.write(20, TOMBSTONE)
    chain.write(30, "reborn")
    assert chain.read_at(15) == "alive"
    assert is_deleted(chain.read_at(25))
    assert chain.read_at(35) == "reborn"


def test_latest():
    chain = VersionChain()
    chain.write(10, "a")
    chain.write(20, "b")
    assert chain.latest() == (20, "b")


def test_versions_newest_first():
    chain = VersionChain()
    chain.write(10, "a")
    chain.write(20, "b")
    assert list(chain.versions()) == [(20, "b"), (10, "a")]


def test_gc_keeps_version_readable_at_horizon():
    chain = VersionChain()
    chain.write(10, "a")
    chain.write(20, "b")
    chain.write(30, "c")
    dropped = chain.gc(horizon_ts=25)
    assert dropped == 1  # only v10 superseded before the horizon
    assert chain.read_at(25) == "b"
    assert chain.read_at(30) == "c"


def test_gc_noop_when_single_version():
    chain = VersionChain()
    chain.write(10, "a")
    assert chain.gc(horizon_ts=100) == 0
    assert chain.read_at(100) == "a"


def test_gc_drops_lone_old_tombstone():
    chain = VersionChain()
    chain.write(10, "a")
    chain.write(20, TOMBSTONE)
    dropped = chain.gc(horizon_ts=50)
    assert dropped == 2
    assert chain.is_empty()


def test_gc_drops_never_written_tombstone():
    # a delete of a row that never existed leaves a chain holding only a
    # tombstone; once the horizon passes it, the chain empties
    chain = VersionChain()
    chain.write(10, TOMBSTONE)
    assert chain.gc(horizon_ts=5) == 0
    assert len(chain) == 1
    assert chain.gc(horizon_ts=10) == 1
    assert chain.is_empty()
    assert chain.read_at(100) is TOMBSTONE
    assert chain.latest() == (0, TOMBSTONE)


def test_gc_keeps_recent_tombstone():
    chain = VersionChain()
    chain.write(10, "a")
    chain.write(20, TOMBSTONE)
    chain.gc(horizon_ts=15)
    assert is_deleted(chain.read_at(25))


def test_len_counts_versions():
    chain = VersionChain()
    chain.write(1, "a")
    chain.write(2, "b")
    assert len(chain) == 2


def test_single_version_rows_cost_one_tracked_object():
    tablet = Tablet(b"", None)
    for i in range(1000):
        tablet.chain(b"k%06d" % i, create=True).write(i + 1, b"v%d" % i)
    tracked = 0
    rows = 0
    for chain in tablet.rows.values():
        rows += 1
        # the chain and what its slots hold; the stored bytes are untracked
        slots = [getattr(chain, name) for name in VersionChain.__slots__]
        tracked += sum(gc.is_tracked(obj) for obj in (chain, *slots))
    assert rows == 1000
    assert tracked / rows <= 1.1


class _ReferenceChain:
    """The spec of a version chain: a plain ascending list of pairs."""

    def __init__(self):
        self.pairs: list[tuple[int, object]] = []

    def write(self, ts, value):
        self.pairs.append((ts, value))

    def read_versioned_at(self, read_ts):
        idx = bisect.bisect_right([ts for ts, _ in self.pairs], read_ts) - 1
        return self.pairs[idx] if idx >= 0 else None

    def read_at(self, read_ts):
        found = self.read_versioned_at(read_ts)
        return TOMBSTONE if found is None else found[1]

    def latest(self):
        return self.pairs[-1] if self.pairs else (0, TOMBSTONE)

    def gc(self, horizon_ts):
        older = [p for p in self.pairs if p[0] <= horizon_ts]
        if not older:
            return 0
        kept = self.pairs[len(older) - 1:]
        if len(kept) == 1 and kept[0][1] is TOMBSTONE:
            kept = []
        dropped = len(self.pairs) - len(kept)
        self.pairs = kept
        return dropped


_values = st.one_of(st.just(TOMBSTONE), st.integers(0, 3), st.lists(st.integers(0, 3)))
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(1, 5), _values),
        st.tuples(st.just("gc"), st.integers(-5, 30)),
        st.tuples(st.just("read"), st.integers(-5, 30)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(steps=_steps)
def test_property_chain_matches_reference(steps):
    chain, ref = VersionChain(), _ReferenceChain()
    now = 0
    for step in steps:
        if step[0] == "write":
            now += step[1]
            chain.write(now, step[2])
            ref.write(now, step[2])
        elif step[0] == "gc":
            horizon = now + step[1] - 25
            assert chain.gc(horizon) == ref.gc(horizon)
        else:
            read_ts = now + step[1] - 25
            assert chain.read_at(read_ts) == ref.read_at(read_ts)
            assert chain.read_versioned_at(read_ts) == ref.read_versioned_at(read_ts)
        assert chain.latest() == ref.latest()
        assert list(chain.versions()) == ref.pairs[::-1]
        assert len(chain) == len(ref.pairs)
        assert chain.is_empty() == (not ref.pairs)
        if ref.pairs:
            with pytest.raises(ValueError):
                chain.write(ref.pairs[-1][0], "stale")
