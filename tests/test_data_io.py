"""Tests for QoS log parsing, splits, and checkpoint round-trips."""

import json
import os
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _reference import (
    entry_list,
    from_entries,
    ref_split_positions,
    ref_write_qos_log,
    value_at,
)
from btdqos import data_io, sparse
from btdqos.data_io import (
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
    NegativeValueError,
    OutOfBoundsError,
    ParseError,
)
from btdqos.model import BlockStructure, init_random
from btdqos.sparse import PARTITIONS, SparseTensor3

DIMS = (4, 4, 4)
REPO = Path(__file__).resolve().parent.parent


def _write(tmp_path, text, name="log.txt"):
    """Write ``text`` as UTF-8 bytes, line endings untranslated."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(parse):
    """What calling ``parse`` gives: the tensor's arrays and the counts, or
    the type and message of the error it raises."""
    try:
        result = parse()
    except Exception as exc:
        return type(exc), str(exc)
    t = result.tensor
    return ([x.tolist() for x in t.ids], t.values.tobytes(),
            result.records, result.kept, result.dropped)


def _both(path, dims=DIMS, one_based=False):
    """Outcomes of ``parse_qos_log`` and of the per-line parser on one file."""
    def per_line():
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return data_io._parse_lines(fh, dims, 1 if one_based else 0)
    return (_outcome(lambda: parse_qos_log(path, dims, one_based=one_based)),
            _outcome(per_line))


class TestDescriptorAndSpec:
    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0, 0.5, 0.5)
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.5, 0.2)  # sums to 1.2
        SplitSpec(0.1, 0.1, 0.8)  # the protocol ratios are fine


class TestParse:
    def test_two_records(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.5\n1 2 3 0.25\n")
        result = parse_qos_log(path, DIMS)
        assert result.tensor.n_entries == 2
        assert result.records == 2
        assert result.kept == 2
        assert result.dropped == 0
        assert value_at(result.tensor, 1, 2, 3) == 0.25

    def test_bad_dims_fail_before_the_file_is_read(self, tmp_path):
        with pytest.raises(OutOfBoundsError, match="dims must be"):
            parse_qos_log(tmp_path / "absent.txt", (0, 4, 4))

    @pytest.mark.parametrize("dims", [(8.9, 8, 8), (8.0, 8, 8), ("x", 8, 8), (True, 8, 8)])
    def test_dims_that_are_no_integers_are_rejected(self, tmp_path, dims):
        """A dim is not truncated to an integer; the file is not read."""
        with pytest.raises(ConfigError, match="every dim must be an integer"):
            parse_qos_log(tmp_path / "absent.txt", dims)

    def test_numpy_integer_dims_accepted(self, tmp_path):
        path = _write(tmp_path, "3 3 3 1.5\n")
        tensor = parse_qos_log(path, tuple(np.array(DIMS))).tensor
        assert tensor.dims == DIMS and type(tensor.dims[0]) is int

    def test_sentinel_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.5\n1 1 1 -1\n")
        result = parse_qos_log(path, DIMS)
        assert result.tensor.n_entries == 1
        assert result.dropped == 1
        assert result.kept + result.dropped == result.records

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = _write(tmp_path, "# header\n\n0 0 0 1.0\n   \n# more\n1 1 1 2.0\n")
        result = parse_qos_log(path, DIMS)
        assert result.tensor.n_entries == 2
        assert result.records == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.0\n0 0 nope\n")
        with pytest.raises(ParseError) as err:
            parse_qos_log(path, DIMS)
        assert "line 2" in str(err.value)

    def test_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "0 0 0 abc\n")
        with pytest.raises(ParseError):
            parse_qos_log(path, DIMS)

    def test_out_of_bounds_index(self, tmp_path):
        path = _write(tmp_path, "0 0 9 1.0\n")
        with pytest.raises(OutOfBoundsError) as err:
            parse_qos_log(path, DIMS)
        assert "line 1" in str(err.value)

    def test_one_based_ids(self, tmp_path):
        path = _write(tmp_path, "1 1 1 3.5\n4 4 4 2.0\n")
        result = parse_qos_log(path, DIMS, one_based=True)
        assert value_at(result.tensor, 0, 0, 0) == 3.5
        assert value_at(result.tensor, 3, 3, 3) == 2.0

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        dims = (5, 5, 5)
        sel = rng.choice(125, size=40, replace=False)
        ii, jj, kk = np.unravel_index(sel, dims)
        t = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 3, 40))
        path = tmp_path / "round.txt"
        write_qos_log(t, path, header="round trip")
        back = parse_qos_log(path, dims).tensor
        assert entry_list(back) == entry_list(t)
        # Serialize once more: identical bytes.
        path2 = tmp_path / "round2.txt"
        write_qos_log(back, path2, header="round trip")
        assert path2.read_text() == path.read_text()


class TestParseAsPerLine:
    """Each known difference between ``np.loadtxt`` and the per-line parser
    ends as the per-line parser has it."""

    def test_comment_after_data_is_an_error(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.0\n1 1 1 2.0 # note\n")
        with pytest.raises(ParseError, match=r"^line 2: expected 4 fields, got 6 "):
            parse_qos_log(path, DIMS)
        fast, per_line = _both(path)
        assert fast == per_line

    def test_digit_separators(self, tmp_path):
        path = _write(tmp_path, "1_000 2 3 1_0.5\n")
        result = parse_qos_log(path, (1001, 4, 4))
        assert entry_list(result.tensor) == [((1000, 2, 3), 10.5)]
        assert result.records == result.kept == 1
        fast, per_line = _both(path, (1001, 4, 4))
        assert fast == per_line

    def test_float_id_mid_chunk(self, tmp_path):
        lines = [f"{n % 4} {n // 4 % 4} 0 1.0\n" for n in range(200)]
        lines[100] = "1.0 0 0 1.0\n"
        path = _write(tmp_path, "".join(lines))
        with pytest.raises(ParseError, match=re.escape(
                "line 101: invalid literal for int() with base 10: '1.0'")):
            parse_qos_log(path, DIMS)

    def test_bad_line_after_chunk_boundary_names_file_line(self, tmp_path):
        """Comment and blank lines count: the error names the file line."""
        lines = []
        while sum(map(len, lines)) <= 2 * data_io._PARSE_CHUNK:
            lines += ["# block\n", "\n"] + [f"{n % 4} {n // 4 % 4} 1 0.5\n"
                                             for n in range(998)]
        lines.append("0 0 x 1.0\n")
        path = _write(tmp_path, "".join(lines))
        with pytest.raises(ParseError, match=re.escape(
                f"line {len(lines)}: invalid literal for int() with base 10: 'x'")):
            parse_qos_log(path, DIMS)

    @pytest.mark.parametrize("chunk", [8, data_io._PARSE_CHUNK],
                             ids=["second-chunk", "first-chunk"])
    @pytest.mark.parametrize("second", [b"0 1 1 \xff\n", b"# caf\xe9\n"],
                             ids=["record", "comment"])
    def test_bytes_not_utf8_name_the_line(self, tmp_path, monkeypatch, chunk, second):
        monkeypatch.setattr(data_io, "_PARSE_CHUNK", chunk)
        path = tmp_path / "log.txt"
        path.write_bytes(b"0 0 0 1.0\n" + second + b"1 1 1 2.0\n")
        with pytest.raises(ParseError, match=r"^line 2: not valid UTF-8 "):
            parse_qos_log(path, DIMS)
        fast, per_line = _both(path)
        assert fast == per_line

    def test_out_of_range_id_message(self, tmp_path):
        path = _write(tmp_path, "0 0 0 1.0\n9 9 9 -1\n0 4 0 1.0\n")
        with pytest.raises(OutOfBoundsError) as err:
            parse_qos_log(path, DIMS)
        assert str(err.value) == "line 3: service index 4 out of range [0, 4)"
        path = _write(tmp_path, "-1 0 0 2.0\n")
        with pytest.raises(OutOfBoundsError) as err:
            parse_qos_log(path, DIMS)
        assert str(err.value) == "line 1: user index -1 out of range [0, 4)"

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  # another\n", "\n \t\n"])
    def test_no_records_no_warning(self, tmp_path, recwarn, text):
        result = parse_qos_log(_write(tmp_path, text), DIMS)
        assert (result.records, result.kept, result.dropped) == (0, 0, 0)
        assert result.tensor.n_entries == 0
        assert not recwarn.list

    def test_separators_and_line_endings(self, tmp_path):
        plain = _write(tmp_path, "0 0 0 1.5\n1 2 3 0.25\n2 3 1 2.0\n", "plain.txt")
        mixed = _write(tmp_path, "0 0 0 1.5\r\n1\t2\t3\t0.25\r\n2\xa03 1\xa0 2.0", "mixed.txt")
        assert _both(mixed) == (_outcome(lambda: parse_qos_log(plain, DIMS)),) * 2

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"),
                                              ("-nan", "nan"), ("Infinity", "inf")])
    def test_non_finite_value(self, tmp_path, value, shown):
        path = _write(tmp_path, f"0 0 0 1.0\n1 1 1 {value}\n")
        with pytest.raises(NegativeValueError,
                           match=f"^QoS values must be finite and >= 0, got {shown}$"):
            parse_qos_log(path, DIMS)
        fast, per_line = _both(path)
        assert fast == per_line

    def test_negative_infinity_is_a_sentinel(self, tmp_path):
        result = parse_qos_log(_write(tmp_path, "0 0 0 1.0\n1 1 1 -inf\n"), DIMS)
        assert (result.records, result.kept, result.dropped) == (2, 1, 1)

    def test_one_based(self, tmp_path):
        path = _write(tmp_path, "1 1 1 3.5\n4 4 4 2.0\n0 0 0 -1\n")
        fast, per_line = _both(path, one_based=True)
        assert fast == per_line
        assert fast[0] == [[0, 3], [0, 3], [0, 3]]
        path = _write(tmp_path, "1 1 1 3.5\n0 1 1 2.0\n")
        with pytest.raises(OutOfBoundsError) as err:
            parse_qos_log(path, DIMS, one_based=True)
        assert str(err.value) == "line 2: user index -1 out of range [0, 4)"


#: Text the differential test inserts into valid logs.
_INSERTS = ("#", "# x", "# a_b", "_", "\r", "\n", " ", " 7", "\t", "\xa0", "\x0c", "\x00",
            "\ufeff", "\u0663", "\uff13", "-", "+", ".", "1.0", "e3", "9", "nan",
            "inf", "-1", "x")


def _random_log(rng):
    lines = ["# header\n"]
    for _ in range(rng.randrange(1, 25)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["\n", "  \n", "# note\n", " # indented\n"]))
        else:
            value = "-1" if roll < 0.25 else f"{rng.uniform(0, 3):.{rng.randrange(1, 6)}f}"
            lines.append(f"{rng.randrange(5)} {rng.randrange(6)} {rng.randrange(7)} "
                         f"{value}\n")
    return "".join(lines)


def _mutated(rng, text):
    for _ in range(rng.randrange(3)):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.25:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
    return text


@pytest.mark.parametrize("chunk", [48, data_io._PARSE_CHUNK], ids=["tiny-chunks", "chunks"])
def test_parse_matches_per_line_parser(tmp_path, monkeypatch, chunk):
    """Seeded random edits of small logs: parse_qos_log gives what the
    per-line parser gives, tensor and counts or error type and message."""
    monkeypatch.setattr(data_io, "_PARSE_CHUNK", chunk)
    fallbacks = []
    per_line = data_io._parse_lines
    monkeypatch.setattr(data_io, "_parse_lines",
                        lambda *args: fallbacks.append(1) or per_line(*args))
    rng = random.Random(chunk)
    errors = 0
    cases = 400
    for case in range(cases):
        path = _write(tmp_path, _mutated(rng, _random_log(rng)), f"{case}.txt")
        one_based = rng.random() < 0.2
        fast, reference = _both(path, (5, 6, 7), one_based)
        assert fast == reference, path.read_bytes()
        errors += isinstance(fast[0], type)
    # _both calls _parse_lines once itself for each case.
    fast_path = 2 * cases - len(fallbacks)
    assert cases // 4 < fast_path and cases // 4 < errors


def _no_fallback(*args):
    raise AssertionError("fell back to the per-line parser")


def test_generated_log_takes_the_fast_path(tmp_path, monkeypatch):
    """A log in the layout of the benchmark's generator never needs the
    per-line parser."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import gen

    planted = gen.generate(tmp_path / "log.txt", 3, (20, 30, 10), 2_000)
    monkeypatch.setattr(data_io, "_parse_lines", _no_fallback)
    monkeypatch.setattr(data_io, "_PARSE_CHUNK", 4096)
    result = parse_qos_log(tmp_path / "log.txt", planted.dims)
    assert (result.records, result.kept, result.dropped) == (
        planted.records, planted.kept, planted.dropped)
    t = result.tensor
    for got, want in zip((*t.ids, t.values), (planted.user_ids, planted.service_ids,
                                              planted.time_ids, planted.values)):
        assert np.array_equal(got, want)


def test_parse_peak_memory_is_bounded(tmp_path, monkeypatch):
    """Parsing holds little beyond the tensor it returns: a generated log of
    about 200k records peaks at no more than 1.6 times the bytes the tensor
    stores (values and codes), by tracemalloc."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import gen

    planted = gen.generate(tmp_path / "log.txt", 5, (142, 4500, 64), 190_000)
    tracemalloc.start()
    try:
        result = parse_qos_log(tmp_path / "log.txt", planted.dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = result.tensor
    assert result.records == planted.records > 195_000
    held = t.values.nbytes + t.codes.nbytes
    assert peak <= 1.6 * held, (peak, held)


def _traced_split(seed, n=200_000):
    """``(tensor, split, tracemalloc peak)`` of splitting a random ``n``-entry
    tensor 10/10/80, counting only what the split allocates."""
    dims = (142, 4500, 64)
    rng = np.random.default_rng(seed)
    codes = np.sort(rng.choice(dims[0] * dims[1] * dims[2], n, replace=False))
    t = SparseTensor3.from_codes(dims, codes, rng.uniform(0, 5, n))
    del codes
    tracemalloc.start()
    try:
        parts = split(t, SplitSpec(0.1, 0.1, 0.8, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return t, parts, peak


def test_split_peak_memory_is_bounded():
    """Splitting a 200k-entry tensor 10/10/80 holds at most 24 B per source
    entry above the tensor it is handed, by tracemalloc: room for the 16 B
    of partitions plus the labels, with no entry-sized positions or id
    copies."""
    n = 200_000
    _, parts, peak = _traced_split(3, n)
    assert sum(parts.counts.values()) == n
    assert peak <= 24 * n, peak / n


def test_split_copies_no_entry():
    """A split holds its shuffled order (4 B per entry, int32) and its labels
    (1 B) at most, by tracemalloc: no partition is formed and the order is
    not int64."""
    n = 200_000
    t, parts, peak = _traced_split(4, n)
    assert peak <= 6 * n, peak / n
    assert parts.source is t and parts.labels.nbytes == n


def test_underscore_in_a_comment_takes_the_fast_path(tmp_path, monkeypatch):
    """A partition file headed by a dataset name holding ``_`` is read by
    numpy, not line by line."""
    rng = np.random.default_rng(5)
    t = SparseTensor3.from_codes((8, 9, 10), rng.choice(720, 300, replace=False),
                                 rng.uniform(0, 5, 300))
    write_qos_log(t, tmp_path / "part.txt", header="ws_dream test partition")
    monkeypatch.setattr(data_io, "_parse_lines", _no_fallback)
    monkeypatch.setattr(data_io, "_PARSE_CHUNK", 1024)
    back = parse_qos_log(tmp_path / "part.txt", t.dims).tensor
    assert np.array_equal(back.codes, t.codes) and np.array_equal(back.values, t.values)


def test_chunk_without_data_takes_the_fast_path(tmp_path, monkeypatch):
    monkeypatch.setattr(data_io, "_parse_lines", _no_fallback)
    monkeypatch.setattr(data_io, "_PARSE_CHUNK", 16)
    path = _write(tmp_path, "0 0 0 1.0\n" + "# a comment block\n" * 4 + "\n1 1 1 2.0\n")
    result = parse_qos_log(path, DIMS)
    assert (result.records, entry_list(result.tensor)) == (
        2, [((0, 0, 0), 1.0), ((1, 1, 1), 2.0)])


class TestWriteBytes:
    """``write_qos_log`` writes the bytes of the row-by-row reference writer,
    and the file parses back to the same tensor, bit for bit."""

    def _check(self, tmp_path, tensor, header="partition"):
        write_qos_log(tensor, tmp_path / "fast.txt", header=header)
        ref_write_qos_log(tensor, tmp_path / "ref.txt", header=header)
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        back = parse_qos_log(tmp_path / "fast.txt", tensor.dims).tensor
        assert [x.tolist() for x in back.ids] == [x.tolist() for x in tensor.ids]
        assert back.values.tobytes() == tensor.values.tobytes()

    def _tensor(self, values, dims=(64, 64, 32), seed=0):
        """``values`` at distinct random cells, always including the first
        and the last cell of ``dims``."""
        values = np.asarray(values, dtype=np.float64)
        rng = np.random.default_rng(seed)
        size = int(np.prod(dims))
        codes = np.concatenate(([0, size - 1],
                                rng.choice(np.arange(1, size - 1), values.size - 2,
                                           replace=False)))
        return SparseTensor3.from_arrays(dims, *np.unravel_index(codes, dims), values)

    @pytest.mark.parametrize("header", [None, "empty"])
    def test_empty_tensor(self, tmp_path, header):
        self._check(tmp_path, from_entries((2, 3, 4), []), header)

    @pytest.mark.parametrize("header", ["a\nb", "a\rb"])
    def test_multi_line_header(self, tmp_path, header):
        """Each line of a header is its own comment line, so the file parses."""
        self._check(tmp_path, self._tensor([1.5, 0.25, 2.0]), header)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundary(self, tmp_path, offset):
        dims = (64, 64, 32)
        n = sparse._CHUNK + offset
        rng = np.random.default_rng(n)
        ii, jj, kk = np.unravel_index(rng.choice(np.prod(dims), n, replace=False), dims)
        self._check(tmp_path, SparseTensor3.from_arrays(dims, ii, jj, kk,
                                                        rng.uniform(0, 5, n)))

    def test_mask_writes_the_subset(self, tmp_path, monkeypatch):
        """``where`` writes the bytes of the masked subset: random masks, an
        all-false one (a header only), a window selecting nothing, and runs
        that straddle windows of 16 entries.  ``selected`` yields the mask's
        set positions in order, in nonempty batches of at most a window's
        worth, and no write renders more.  A mask of another length, or not
        boolean, is rejected when ``selected`` is called: an integer one is
        no list of positions."""
        monkeypatch.setattr(sparse, "_CHUNK", 16)
        render = data_io._render_lines
        sizes = []

        def counted(tables, ids, values):
            sizes.append(values.size)
            return render(tables, ids, values)

        monkeypatch.setattr(data_io, "_render_lines", counted)
        rng = np.random.default_rng(8)
        t = self._tensor(rng.uniform(0, 5, 100))
        n = t.n_entries
        skip_window = np.ones(n, bool)
        skip_window[16:32] = False
        straddling = np.zeros(n, bool)
        straddling[[15, 16, 31, 32, 33, 63, 64, 99]] = True
        masks = [rng.random(n) < p for p in (0.05, 0.5, 0.95)]
        masks += [np.zeros(n, bool), np.ones(n, bool), skip_window, straddling]
        for mask in masks:
            batches = list(t.selected(mask))
            np.testing.assert_array_equal(np.concatenate([np.zeros(0, np.intp), *batches]),
                                          np.flatnonzero(mask))
            assert all(0 < at.size <= 16 for at in batches)
            write_qos_log(t, tmp_path / "masked.txt", header="part", where=mask)
            write_qos_log(t.subset(mask), tmp_path / "subset.txt", header="part")
            assert ((tmp_path / "masked.txt").read_bytes()
                    == (tmp_path / "subset.txt").read_bytes())
        assert (tmp_path / "masked.txt").read_text().count("\n") == 9
        assert 0 < min(sizes) and max(sizes) <= 16
        for bad in (np.ones(n - 1, bool), np.arange(n) % 2, np.ones(n)):
            with pytest.raises(OutOfBoundsError, match="boolean with one element per entry"):
                write_qos_log(t, tmp_path / "bad.txt", where=bad)
            with pytest.raises(OutOfBoundsError, match="boolean with one element per entry"):
                t.selected(bad)

    def test_extreme_values_and_largest_ids(self, tmp_path):
        dims = (142, 4500, 64)
        entries = [((141, 0, 0), 0.0), ((0, 4499, 0), 5e-324), ((0, 0, 63), 1e-300),
                   ((141, 4499, 63), 0.1 + 0.2), ((1, 2, 3), 1e16), ((0, 0, 0), 7.5)]
        self._check(tmp_path, from_entries(dims, entries), None)

    EDGES = [
        0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
        9.9e-5, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
        1e15, np.nextafter(1e15, 0), 1e16, np.nextafter(1e16, 0), np.nextafter(1e16, 2e16),
        9999999999999998.0, 2.0 ** 52 - 1, 2.0 ** 52, 2.0 ** 52 + 1, 2.0 ** 53,
        1.0, 10.0, 100.0, 123456.5, 0.1, 0.001, 0.3, 2 / 3, 123456789012345.0,
        0.000123456789012345, 99999999999999.9, 1.7976931348623157e308,
    ]

    @pytest.mark.parametrize("value", EDGES)
    def test_edge_value(self, tmp_path, value):
        self._check(tmp_path, self._tensor([value, 1.5, value]))

    def test_zero_signs(self):
        """0.0 is rendered by numpy; -0.0 is left to repr, which keeps its sign."""
        ok = data_io._repr_digits(np.array([0.0, -0.0]))[0]
        assert ok.tolist() == [True, False]

    @pytest.mark.parametrize("decimals", range(18))
    def test_values_with_k_decimals(self, tmp_path, decimals):
        """Values below 100 with ``decimals`` decimals, the last one nonzero."""
        rng = np.random.default_rng(decimals)
        n = 2000
        scaled = rng.integers(0, 10 ** min(decimals + 1, 17), n) * 10 + rng.integers(1, 10, n)
        values = scaled / 10.0 ** decimals
        self._check(tmp_path, self._tensor(values, seed=decimals))
        if decimals <= 12:  # at most 15 significant digits
            short = values[values >= 1e-4]
            assert data_io._repr_digits(short)[0].all()

    def test_random_bit_patterns(self, tmp_path):
        """Finite nonnegative doubles of every magnitude, subnormals included."""
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 0x7FF0000000000000, 10 ** 5, dtype=np.int64)
        self._check(tmp_path, self._tensor(bits.view(np.float64), dims=(60, 60, 60)))

    def test_chunk_mixing_numpy_and_repr_rows(self, tmp_path):
        """One chunk whose rows alternate between the two renderings."""
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 5, 1000)
        values[::2] = np.round(values[::2], 3)
        values[::7] = 0.0
        ok = data_io._repr_digits(values)[0]
        assert ok[::2].all() and not ok.all()
        self._check(tmp_path, self._tensor(values))


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
        assert entry_list(a.train) == entry_list(b.train)
        assert entry_list(a.validation) == entry_list(b.validation)
        assert entry_list(a.test) == entry_list(b.test)
        c = split(t, SplitSpec(0.2, 0.1, 0.7, seed=6))
        assert entry_list(c.train) != entry_list(a.train)

    def test_union_equals_input(self):
        t = self._tensor(80)
        parts = split(t, SplitSpec(0.6, 0.1, 0.3, seed=9))
        merged = sorted(entry_list(parts.train) + entry_list(parts.validation)
                        + entry_list(parts.test))
        assert merged == sorted(entry_list(t))

    @pytest.mark.parametrize("ratios", [(0.1, 0.1, 0.8), (0.3, 0.1, 0.6),
                                        (0.05, 0.05, 0.2), (0.5, 0.25, 0.125)])
    def test_membership_matches_reference(self, ratios):
        """Each partition holds the entries at the sorted slice of the
        seeded permutation that the reference split picks."""
        t = self._tensor(101)
        for seed in (0, 1, 7, 2 ** 40):
            spec = SplitSpec(*ratios, seed=seed)
            parts = split(t, spec)
            for name, positions in zip(PARTITIONS, ref_split_positions(t.n_entries, spec)):
                part = getattr(parts, name)
                np.testing.assert_array_equal(part.codes, t.codes[positions])
                np.testing.assert_array_equal(part.values, t.values[positions])

    def test_empty_input(self):
        t = from_entries((2, 2, 2), [])
        with pytest.raises(EmptyInputError):
            split(t, SplitSpec(0.1, 0.1, 0.8))

    def test_manifest(self, tmp_path):
        t = self._tensor(50)
        parts = split(t, SplitSpec(0.2, 0.2, 0.6, seed=4))
        path = tmp_path / "manifest.json"
        write_split_manifest(parts, path, extra={"dataset": "toy"},
                             include_indices=True)
        text = path.read_text()
        doc = json.loads(text)
        # Compact like a checkpoint: no indentation, keys sorted, one newline.
        assert text == json.dumps(doc, sort_keys=True) + "\n"
        assert doc["counts"]["train"] == 10
        assert doc["dataset"] == "toy"
        assert len(doc["partitions"]["test"]) == 30
        for name in ("train", "validation", "test"):
            part = getattr(parts, name)
            assert doc["partitions"][name] == [list(ijk) for ijk, _ in entry_list(part)]


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_random((5, 6, 7), BlockStructure(((2, 2, 2), (1, 2, 1))), 13)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.dims == model.dims
        assert back.structure == model.structure
        for a, b in zip(model.parameter_arrays(), back.parameter_arrays()):
            assert a.tobytes() == b.tobytes()

    def test_checkpoint_is_compact_sorted_json(self, tmp_path):
        model = init_random((5, 6, 7), BlockStructure(((2, 2, 2),)), 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

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

    @pytest.mark.parametrize("key, value", [("dims", [3.9, 3, 3]),
                                            ("blocks", [[1.5, 1, 1]])])
    def test_fractional_shape_rejected(self, tmp_path, key, value):
        """A dim or rank that is no integer is an error, not truncated."""
        model = init_random((3, 3, 3), BlockStructure(((1, 1, 1),)), 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_boolean_rank_rejected(self, tmp_path):
        """true is no rank, although it would match a rank-1 core's shape."""
        model = init_random((3, 3, 3), BlockStructure(((1, 2, 2),)), 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["blocks"] = [[True, 2, 2]]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match="invalid block ranks"):
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

    def test_save_creates_parent_directories(self, tmp_path):
        """Every write creates the directories its path names, and leaves
        only the file it wrote behind."""
        path = tmp_path / "a" / "b" / "model.json"
        save_model(init_random((3, 4, 2), BlockStructure(((1, 2, 1),)), 0), path)
        assert load_model(path).dims == (3, 4, 2)
        assert [p.name for p in path.parent.iterdir()] == ["model.json"]


@pytest.mark.skipif(
    not (os.environ.get("BTDQOS_DATA_DIR")
         and os.path.exists(os.path.join(os.environ.get("BTDQOS_DATA_DIR", ""), "d1.txt"))),
    reason="WS-DREAM dynamic dataset not available")
def test_full_d1_ingest_matches_independent_line_count():
    """Full dataset ingest: entry count equals an independent text pass."""
    path = os.path.join(os.environ["BTDQOS_DATA_DIR"], "d1.txt")
    result = parse_qos_log(path, (142, 4500, 64))
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
