"""Tests for QoS log parsing, splits, and checkpoint round-trips."""

import json
import os

import numpy as np
import pytest

from btdqos.data_io import (
    DatasetDescriptor,
    SplitSpec,
    atomic_write,
    load_model,
    parse_qos_log,
    save_model,
    split,
    write_qos_log,
    write_split_manifest,
)
from btdqos.errors import (
    ConfigError,
    CorruptCheckpointError,
    EmptyInputError,
    OutOfBoundsError,
    ParseError,
)
from btdqos.model import BlockStructure, init_random
from btdqos.sparse import SparseTensor3

D = DatasetDescriptor(name="toy", qos_type="response_time", dims=(4, 4, 4))


def _write(tmp_path, text, name="log.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDescriptorAndSpec:
    def test_qos_type_validated(self):
        with pytest.raises(ConfigError):
            DatasetDescriptor(name="x", qos_type="latency", dims=(1, 1, 1))

    def test_dims_validated(self):
        with pytest.raises(ConfigError):
            DatasetDescriptor(name="x", qos_type="throughput", dims=(0, 1, 1))

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0, 0.5, 0.5)
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.5, 0.2)  # sums to 1.2
        SplitSpec(0.1, 0.1, 0.8)  # the protocol ratios are fine


class TestParse:
    def test_two_records(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.5\n1 2 3 0.25\n")
        result = parse_qos_log(path, D)
        assert result.tensor.n_entries == 2
        assert result.records == 2
        assert result.kept == 2
        assert result.dropped == 0
        assert result.tensor.value_at(1, 2, 3) == 0.25

    def test_sentinel_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.5\n1 1 1 -1\n")
        result = parse_qos_log(path, D)
        assert result.tensor.n_entries == 1
        assert result.dropped == 1
        assert result.kept + result.dropped == result.records

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = _write(tmp_path, "# header\n\n0 0 0 1.0\n   \n# more\n1 1 1 2.0\n")
        result = parse_qos_log(path, D)
        assert result.tensor.n_entries == 2
        assert result.records == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.0\n0 0 nope\n")
        with pytest.raises(ParseError) as err:
            parse_qos_log(path, D)
        assert "line 2" in str(err.value)

    def test_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "0 0 0 abc\n")
        with pytest.raises(ParseError):
            parse_qos_log(path, D)

    def test_out_of_bounds_index(self, tmp_path):
        path = _write(tmp_path, "0 0 9 1.0\n")
        with pytest.raises(OutOfBoundsError) as err:
            parse_qos_log(path, D)
        assert "line 1" in str(err.value)

    def test_one_based_ids(self, tmp_path):
        path = _write(tmp_path, "1 1 1 3.5\n4 4 4 2.0\n")
        result = parse_qos_log(path, D, one_based=True)
        assert result.tensor.value_at(0, 0, 0) == 3.5
        assert result.tensor.value_at(3, 3, 3) == 2.0

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        dims = (5, 5, 5)
        sel = rng.choice(125, size=40, replace=False)
        ii, jj, kk = np.unravel_index(sel, dims)
        t = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 3, 40))
        path = tmp_path / "round.txt"
        write_qos_log(t, path, header="round trip")
        desc = DatasetDescriptor(name="r", qos_type="response_time", dims=dims)
        back = parse_qos_log(path, desc).tensor
        assert back.entry_list() == t.entry_list()
        # Serialize once more: identical bytes.
        path2 = tmp_path / "round2.txt"
        write_qos_log(back, path2, header="round trip")
        assert path2.read_text() == path.read_text()


class TestSplit:
    def _tensor(self, n=100, dims=(10, 10, 10), seed=1):
        rng = np.random.default_rng(seed)
        sel = rng.choice(dims[0] * dims[1] * dims[2], size=n, replace=False)
        ii, jj, kk = np.unravel_index(sel, dims)
        return SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, n))

    def test_protocol_sizes(self):
        """100 entries at 10:10:80 -> (10, 10, 80), any seed."""
        t = self._tensor(100)
        for seed in (0, 7, 123):
            parts = split(t, SplitSpec(0.1, 0.1, 0.8, seed=seed))
            assert (parts.train.n_entries, parts.validation.n_entries,
                    parts.test.n_entries) == (10, 10, 80)

    def test_floor_rule_with_remainder(self):
        """With ratios summing to 1, rounding leftovers land in test."""
        t = self._tensor(101)
        parts = split(t, SplitSpec(0.3, 0.1, 0.6, seed=2))
        assert parts.train.n_entries == 30
        assert parts.validation.n_entries == 10
        assert parts.test.n_entries == 61

    def test_partial_coverage(self):
        """Ratios summing below 1 leave entries unassigned."""
        t = self._tensor(10)
        parts = split(t, SplitSpec(0.5, 0.25, 0.25 / 2, seed=3))
        total = (parts.train.n_entries + parts.validation.n_entries
                 + parts.test.n_entries)
        assert parts.train.n_entries == 5
        assert total <= 10

    def test_deterministic(self):
        t = self._tensor(60)
        a = split(t, SplitSpec(0.2, 0.1, 0.7, seed=5))
        b = split(t, SplitSpec(0.2, 0.1, 0.7, seed=5))
        assert a.train.entry_list() == b.train.entry_list()
        assert a.validation.entry_list() == b.validation.entry_list()
        assert a.test.entry_list() == b.test.entry_list()
        c = split(t, SplitSpec(0.2, 0.1, 0.7, seed=6))
        assert c.train.entry_list() != a.train.entry_list()

    def test_union_equals_input(self):
        t = self._tensor(80)
        parts = split(t, SplitSpec(0.6, 0.1, 0.3, seed=9))
        merged = sorted(parts.train.entry_list() + parts.validation.entry_list()
                        + parts.test.entry_list())
        assert merged == sorted(t.entry_list())

    def test_empty_input(self):
        t = SparseTensor3.from_entries((2, 2, 2), [])
        with pytest.raises(EmptyInputError):
            split(t, SplitSpec(0.1, 0.1, 0.8))

    def test_manifest(self, tmp_path):
        t = self._tensor(50)
        parts = split(t, SplitSpec(0.2, 0.2, 0.6, seed=4))
        path = tmp_path / "manifest.json"
        write_split_manifest(parts, path, extra={"dataset": "toy"},
                             include_indices=True)
        doc = json.loads(path.read_text())
        assert doc["counts"]["train"] == 10
        assert doc["dataset"] == "toy"
        assert len(doc["partitions"]["test"]) == 30


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_random((5, 6, 7), BlockStructure(((2, 2, 2), (1, 2, 1))), 13)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.dims == model.dims
        assert back.structure == model.structure
        for a, b in zip(model.parameter_arrays(), back.parameter_arrays()):
            assert np.array_equal(a, b)

    def test_truncated_file(self, tmp_path):
        model = init_random((3, 3, 3), BlockStructure(((1, 1, 1),)), 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_negative_parameter_rejected(self, tmp_path):
        model = init_random((3, 3, 3), BlockStructure(((1, 1, 1),)), 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["user_bias"][0] = -0.001
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_shape_violation_rejected(self, tmp_path):
        model = init_random((3, 3, 3), BlockStructure(((1, 1, 1),)), 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["user_bias"] = doc["user_bias"][:2]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_version_and_fields_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)
        path.write_text(json.dumps({"format_version": 1, "dims": [1, 1, 1]}))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.json")

    @pytest.mark.parametrize("stage", ["mid-write", "fsync"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, stage):
        """A write that raises part-way leaves the old bytes and no stray file."""
        path = tmp_path / "model.json"
        save_model(init_random((3, 4, 2), BlockStructure(((1, 2, 1),)), 0), path)
        before = path.read_bytes()

        def fail(*args):
            raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space left"):
            if stage == "fsync":
                monkeypatch.setattr(os, "fsync", fail)
                save_model(init_random((3, 4, 2), BlockStructure(((1, 2, 1),)), 1), path)
            else:
                with atomic_write(path) as fh:
                    fh.write(before.decode()[:40])
                    fail()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.skipif(
    not (os.environ.get("BTDQOS_DATA_DIR")
         and os.path.exists(os.path.join(os.environ.get("BTDQOS_DATA_DIR", ""), "d1.txt"))),
    reason="WS-DREAM dynamic dataset not available")
def test_full_d1_ingest_matches_independent_line_count():
    """Full dataset ingest: entry count equals an independent text pass."""
    path = os.path.join(os.environ["BTDQOS_DATA_DIR"], "d1.txt")
    desc = DatasetDescriptor(name="D1", qos_type="response_time",
                             dims=(142, 4500, 64), source_path=path)
    result = parse_qos_log(path, desc)
    seen = set()
    records = kept = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i, j, k, v = line.split()
            records += 1
            if float(v) < 0:
                continue
            kept += 1
            seen.add((int(i), int(j), int(k)))
    assert result.records == records
    assert result.kept == kept
    assert result.tensor.n_entries == len(seen)
    assert result.tensor.dims == (142, 4500, 64)
