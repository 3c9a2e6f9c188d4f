"""Durable-write primitives: atomicity and failure cleanup."""

import json

import pytest

from repro.util.fsio import atomic_write_bytes, atomic_write_json, atomic_write_text


class TestAtomicWrite:
    def test_text_round_trip(self, tmp_path):
        path = atomic_write_text(tmp_path / "a" / "b.txt", "hello\n")
        assert path.read_text(encoding="utf-8") == "hello\n"

    def test_bytes_round_trip(self, tmp_path):
        blob = bytes(range(256)) * 3
        path = atomic_write_bytes(tmp_path / "a" / "b.bin", blob)
        assert path.read_bytes() == blob
        assert [p.name for p in path.parent.iterdir()] == ["b.bin"]

    def test_json_round_trip(self, tmp_path):
        path = atomic_write_json(tmp_path / "r.json", {"b": 1, "a": 2})
        assert json.loads(path.read_text(encoding="utf-8")) == {"a": 2,
                                                                "b": 1}

    def test_equal_payloads_are_byte_identical(self, tmp_path):
        one = atomic_write_json(tmp_path / "one.json", {"b": 1, "a": 2})
        two = atomic_write_json(tmp_path / "two.json", {"a": 2, "b": 1})
        assert one.read_bytes() == two.read_bytes()

    def test_indented_json_ends_with_newline(self, tmp_path):
        path = atomic_write_json(tmp_path / "r.json", {"a": 1}, indent=2)
        assert path.read_text(encoding="utf-8").endswith("}\n")

    def test_failed_write_leaves_previous_version(self, tmp_path):
        target = tmp_path / "r.json"
        atomic_write_json(target, {"version": 1})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert json.loads(target.read_text(encoding="utf-8")) == {
            "version": 1}

    def test_failed_write_leaves_no_temp_files(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "r.json", {"bad": object()})
        assert [p.name for p in tmp_path.iterdir()] == []
