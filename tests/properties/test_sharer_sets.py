"""Property tests for the directory's bitmask sharer sets.

The seed directory kept ``entry.sharers`` as a real ``set[int]``; a
:class:`~repro.mem.directory.DirectoryEntry` now keeps a core bitmask
and an owner id (``-1`` = none).  These tests check the set views the
audits read (``holders``, ``holders_mask``, ``_mask_iter``) against a
plain ``set`` model — the bitmask must be *semantically invisible*.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mem.directory import DirectoryEntry, _mask_iter

#: Core ids for the paper's largest machine (32 cores) plus headroom so
#: masks exercise multi-word-feeling bit positions.
core_ids = st.integers(0, 40)


class TestSharerSetVsModel:
    @given(cores=st.lists(core_ids, max_size=40))
    @settings(max_examples=200)
    def test_iteration_is_ascending_and_duplicate_free(self, cores):
        # The directory sends a GetX's or recall's INVs in this order.
        mask = 0
        for core in cores:
            mask |= 1 << core
        assert list(_mask_iter(mask)) == sorted(set(cores))

    @given(cores=st.sets(core_ids, max_size=40), owner=st.none() | core_ids)
    @settings(max_examples=200)
    def test_holders_match_sharers_plus_owner(self, cores, owner):
        entry = DirectoryEntry(0x40)
        for core in cores:
            entry.sharers |= 1 << core
        entry.owner = -1 if owner is None else owner
        expected = set(cores) | ({owner} if owner is not None else set())
        assert entry.holders == expected
        assert set(_mask_iter(entry.holders_mask)) == expected

    @given(mask=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=200)
    def test_mask_iter_round_trips(self, mask):
        assert sum(1 << bit for bit in _mask_iter(mask)) == mask
