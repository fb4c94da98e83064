"""Unit and property tests for the merge/resolve iterators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.entry import Entry
from repro.lsm.iterator import CountingIterator, merge_resolve, scan_fused, visible_entries


def put(key, seqno):
    return Entry.put(key, f"v{key}@{seqno}", seqno)


def tomb(key, seqno):
    return Entry.tombstone(key, seqno)


class TestMergeResolve:
    def test_empty_sources(self):
        assert list(merge_resolve([])) == []
        assert list(merge_resolve([[], []])) == []

    def test_single_source_passthrough(self):
        src = [put(1, 1), put(2, 2)]
        assert list(merge_resolve([src])) == src

    def test_disjoint_sources_interleave(self):
        a = [put(1, 1), put(5, 2)]
        b = [put(3, 3), put(7, 4)]
        assert [e.key for e in merge_resolve([a, b])] == [1, 3, 5, 7]

    def test_newest_version_wins(self):
        old = [put(1, 1), put(2, 2)]
        new = [put(1, 10)]
        resolved = {e.key: e for e in merge_resolve([old, new])}
        assert resolved[1].seqno == 10
        assert resolved[2].seqno == 2

    def test_tombstone_wins_when_newer(self):
        resolved = list(merge_resolve([[put(1, 1)], [tomb(1, 5)]]))
        assert len(resolved) == 1
        assert resolved[0].is_tombstone

    def test_put_wins_over_older_tombstone(self):
        resolved = list(merge_resolve([[tomb(1, 1)], [put(1, 5)]]))
        assert resolved[0].is_put

    def test_shadow_callback_reports_losers(self):
        shadowed = []
        list(
            merge_resolve(
                [[put(1, 1), put(2, 2)], [put(1, 5), tomb(2, 9)]],
                on_shadowed=lambda loser, winner: shadowed.append((loser.seqno, winner.seqno)),
            )
        )
        assert sorted(shadowed) == [(1, 5), (2, 9)]

    def test_three_way_shadowing(self):
        shadowed = []
        resolved = list(
            merge_resolve(
                [[put(1, 1)], [put(1, 2)], [put(1, 3)]],
                on_shadowed=lambda loser, winner: shadowed.append(loser.seqno),
            )
        )
        assert resolved[0].seqno == 3
        assert sorted(shadowed) == [1, 2]

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 30), st.booleans()),
                max_size=20,
                unique_by=lambda kv: kv[0],
            ),
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_property_matches_dict_model(self, key_sets):
        # Assign globally unique seqnos; later sources are newer.
        seqno = 0
        sources = []
        model: dict[int, Entry] = {}
        for key_set in key_sets:
            source = []
            for key, is_delete in sorted(key_set):
                seqno += 1
                entry = tomb(key, seqno) if is_delete else put(key, seqno)
                source.append(entry)
            sources.append(source)
        for source in sources:
            for entry in source:
                if entry.key not in model or entry.seqno > model[entry.key].seqno:
                    model[entry.key] = entry
        resolved = list(merge_resolve([list(s) for s in sources]))
        assert [e.key for e in resolved] == sorted(model)
        for entry in resolved:
            assert entry == model[entry.key]


class TestVisibility:
    def test_visible_entries_hide_tombstones(self):
        resolved = [put(1, 1), tomb(2, 2), put(3, 3)]
        assert [e.key for e in visible_entries(resolved)] == [1, 3]

    # The scan merge is ``scan_fused``: each source yields sorted blocks.
    def test_scan_merge_hides_deleted_keys(self):
        got = list(scan_fused([[[put(1, 1), put(2, 2)]], [[tomb(2, 5)]]]))
        assert [e.key for e in got] == [1]

    def test_scan_merge_limit(self):
        src = [[[put(k, k + 1) for k in range(10)]]]
        assert len(list(scan_fused(src, limit=3))) == 3

    def test_scan_merge_limit_counts_only_visible(self):
        sources = [[[put(1, 1), put(2, 2), put(3, 3)]], [[tomb(1, 9)]]]
        got = list(scan_fused(sources, limit=2))
        assert [e.key for e in got] == [2, 3]

    def test_counting_iterator(self):
        counter = CountingIterator([put(1, 1), put(2, 2)])
        assert [e.key for e in counter] == [1, 2]
        assert counter.count == 2
