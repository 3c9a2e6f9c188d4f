"""Tests for the page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.page_table import PageTable


class TestPageTable:
    def test_offset_preserved(self):
        pt = PageTable(page_size=4096)
        paddr = pt.translate(0x12345)
        assert paddr & 0xFFF == 0x345

    def test_same_page_same_frame(self):
        pt = PageTable()
        a = pt.translate(0x10000)
        b = pt.translate(0x10FFF)
        assert (a >> 12) == (b >> 12)

    def test_different_pages_different_frames(self):
        pt = PageTable()
        a = pt.translate(0x10000)
        b = pt.translate(0x20000)
        assert (a >> 12) != (b >> 12)

    def test_page_faults_counted_once(self):
        pt = PageTable()
        pt.translate(0x10000)
        pt.translate(0x10008)
        pt.translate(0x20000)
        assert pt.page_faults == 2
        assert pt.mapped_pages == 2

    def test_translation_stable(self):
        pt = PageTable()
        assert pt.translate(0x10020) == pt.translate(0x10020)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            PageTable(page_size=1000)
        with pytest.raises(ValueError):
            PageTable(n_frames=1000)

    def test_exhaustion(self):
        pt = PageTable(n_frames=4)
        for i in range(4):
            pt.translate(i * 4096)
        with pytest.raises(MemoryError):
            pt.translate(5 * 4096)

    @settings(max_examples=30)
    @given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1,
                   max_size=200))
    def test_frame_assignment_is_injective(self, pages):
        pt = PageTable(n_frames=1 << 16)
        frames = {pt.translate(p * 4096) >> 12 for p in pages}
        assert len(frames) == len(pages)

    def test_frames_are_scattered(self):
        # The permutation should not hand out consecutive frames.
        pt = PageTable()
        frames = [pt.translate(i * 4096) >> 12 for i in range(16)]
        deltas = {b - a for a, b in zip(frames, frames[1:])}
        assert deltas != {1}


def table_state(pt):
    return (list(pt._mapping.items()), pt._next_sequence, pt.page_faults)


def fault_by_translate(pt, first, n_pages):
    """The reference: one ``translate`` per page, in ascending order."""
    bits = pt.page_bits
    return [pt.translate(vpage << bits) >> bits
            for vpage in range(first, first + n_pages)]


class TestFaultPages:
    """``fault_pages`` is per-page ``translate`` in one call."""

    @settings(max_examples=200, deadline=None)
    @given(n_frames=st.sampled_from((4, 16, 64)),
           premapped=st.lists(st.integers(0, 40), max_size=12),
           runs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 24)),
                         min_size=1, max_size=5))
    def test_matches_per_page_translate(self, n_frames, premapped, runs):
        """Pre-mapped pages, overlapping runs and frame exhaustion: the
        same frames, sequence numbers, fault count and MemoryError page."""
        bulk = PageTable(page_size=256, n_frames=n_frames)
        reference = PageTable(page_size=256, n_frames=n_frames)
        for vpage in premapped:
            try:
                bulk.translate(vpage << 8)
                reference.translate(vpage << 8)
            except MemoryError:
                break
        for first, n_pages in runs:
            try:
                expected = fault_by_translate(reference, first, n_pages)
            except MemoryError:
                with pytest.raises(MemoryError):
                    bulk.fault_pages(first, n_pages)
                assert table_state(bulk) == table_state(reference)
                break
            assert bulk.fault_pages(first, n_pages) == expected
            assert table_state(bulk) == table_state(reference)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            PageTable().fault_pages(0, -1)
