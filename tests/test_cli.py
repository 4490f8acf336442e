"""Command-line workflow tests: file outputs, manifests, determinism,
and error exit codes.  Commands run in-process through main(argv)."""

import concurrent.futures
import csv
import decimal
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summa import cli, tables
from summa.cli import main, read_labels_table, read_matrix_table, write_table
from summa.tables import _CHUNK_ROWS
from summa.exceptions import InvalidInput, NotConverged
from summa.inference import Z_CUTOFF
from summa.pipeline import run_pipeline
from summa.ranking import ScoreMatrix, rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble
from test_pipeline import COLLAPSED_LEAVE_OUT, ONE_METHOD_FACTOR


@pytest.fixture
def split_into(monkeypatch):
    """``split_into(parts)`` makes every table of at least ``parts``
    cells split into ``parts`` parts, as on a machine with ``parts``
    usable CPUs; it returns the list of children forked, which grows.
    ``split_into(parts, part_cells)`` sets ``tables._PART_CELLS`` to
    ``part_cells`` in place of 1."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def split(parts, part_cells=1):
        monkeypatch.setattr(tables, "_PART_CELLS", part_cells)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
        monkeypatch.setattr(os, "fork", counted_fork)
        return forked

    return split


def split_outcomes(split_into, read):
    """``read()``'s outcome split into 1, 2 and 3 parts: the ids and the
    value bytes it returns, or its InvalidInput message."""
    outcomes = []
    for parts in (1, 2, 3):
        split_into(parts)
        try:
            *_, ids, values = read()
        except InvalidInput as err:
            outcomes.append(str(err))
        else:
            outcomes.append((ids, np.ascontiguousarray(values).tobytes()))
    return outcomes


def run(*argv):
    return main([str(a) for a in argv])


def simulate(tmp_path, out="sim", **kwargs):
    args = {
        "--methods": 10, "--samples": 300, "--seed": 11,
        "--output-dir": tmp_path / out,
    }
    args.update(kwargs)
    argv = ["simulate"]
    for key, value in args.items():
        argv += [key, value]
    assert run(*argv) == 0
    return tmp_path / out


def write_scores(path, values):
    """Write the methods x samples ``values`` as a scores table."""
    m, n = values.shape
    write_table(path, ["sample_id", *(f"m{i}" for i in range(m))],
                [[f"s{k}" for k in range(n)], *values], "csv")
    return path


def reference_csv(path, header, columns):
    """The writer ``write_table`` must match: csv.writer over each cell's
    ``.17g`` (floats) or ``str`` text."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format(c, ".17g") if isinstance(c, float) else str(c)
                             for c in row])


def reference_json(path, header, columns):
    def plain(cell):
        cell = cell.item() if isinstance(cell, np.generic) else cell
        if isinstance(cell, float) and not math.isfinite(cell):
            return None
        return cell

    with open(path, "w") as handle:
        json.dump([{h: plain(c) for h, c in zip(header, row)} for row in zip(*columns)],
                  handle, indent=1, allow_nan=False)
        handle.write("\n")


def strict_json(path):
    """Parse ``path`` as strict JSON: NaN, Infinity and -Infinity fail."""
    def refuse(constant):
        raise ValueError(f"{path.name}: non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def awkward_table(n):
    """Columns of every kind write_table meets, over ``n`` rows."""
    rng = np.random.default_rng(0)
    ids = (["a,b", 'say "hi"', " padded ", "line\nbreak", ""]
           + [f"s{k}" for k in range(n)])[:n]
    floats = np.concatenate([
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324],
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n),
    ])[:n]
    mixed = [None, 3, 2.5, np.float64(0.1), np.int64(-7), np.float32(0.1), True,
             np.nan, -np.inf]
    mixed = (mixed * (n // len(mixed) + 1))[:n]
    return (
        ["sample id", 'quote"d', "comma,col", "int8", "int64", "mixed"],
        [tuple(ids), floats, floats[::-1].copy(),
         rng.integers(0, 2, size=n).astype(np.int8),
         rng.integers(-2**62, 2**62, size=n), mixed],
    )


class TestWriteTable:
    @pytest.mark.parametrize("n", [1, 7, 2 * _CHUNK_ROWS + 3])
    def test_csv_bytes_match_csv_writer(self, tmp_path, split_into, n):
        header, columns = awkward_table(n)
        reference_csv(tmp_path / "ref.csv", header, columns)
        # row counts that no part count divides; with one row, parts are empty
        for parts in (1, 2, 3):
            forked = split_into(parts)
            before = len(forked)
            write_table(tmp_path / "new.csv", header, columns, "csv")
            assert len(forked) == before + parts - 1
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_failed_part_raises(self, tmp_path, monkeypatch, split_into):
        # a part whose process fails must not leave a shorter table unnoticed
        split_into(3)
        parent, rows = os.getpid(), tables._csv_rows

        def failing_rows(line, cells, start, stop):
            if os.getpid() != parent and start > 0:
                raise MemoryError("no room for the part")
            return rows(line, cells, start, stop)

        monkeypatch.setattr(tables, "_csv_rows", failing_rows)
        header, columns = awkward_table(50)
        with pytest.raises(RuntimeError, match=r"part 2 of 3 exited with status 1"):
            write_table(tmp_path / "t.csv", header, columns, "csv")

    def test_csv_round_trips_floats(self, tmp_path):
        values = np.random.default_rng(1).standard_normal((3, 50))
        write_table(tmp_path / "t.csv", ["sample_id", "a", "b", "c"],
                    [[f"s{k}" for k in range(50)], *values], "csv")
        _, _, read = read_matrix_table(tmp_path / "t.csv")
        assert read.tobytes() == values.tobytes()

    def test_json_unchanged(self, tmp_path):
        header, columns = awkward_table(23)
        write_table(tmp_path / "new.json", header, columns, "json")
        reference_json(tmp_path / "ref.json", header, columns)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("n", [1, 1001, 2 * _CHUNK_ROWS + 3])
    def test_float_runs_match_csv_writer(self, tmp_path, split_into, n):
        # float64 columns before, between and after text and integer
        # columns; with 11 cells a row, no chunk or part size divides n
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((8, n))
        scores.flat[rng.choice(scores.size, size=min(40, scores.size), replace=False)] = (
            [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-300, 9.99e-5, 1e16, -3e17]
            * 4)[:min(40, scores.size)]
        ids = [f"s{k}" for k in range(n)]
        labels = rng.integers(0, 2, size=n)
        header = ["a", "b", "sample_id", "c", "d", "e", "label", "f", "count", "g", "h"]
        columns = [scores[0], scores[1], ids, scores[2], scores[3], scores[4], labels,
                   scores[5], labels.astype(np.int8), scores[6], scores[7]]
        reference_csv(tmp_path / "ref.csv", header, columns)
        for parts in (1, 2, 3):
            split_into(parts)
            write_table(tmp_path / "new.csv", header, columns, "csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_wide_float_table_peak_memory(self, tmp_path):
        # the writer's scratch is sized by the cells of a chunk: a copy of
        # the 8 MB of values would exceed the bound
        values = np.random.default_rng(6).standard_normal((200, 5000))
        header = ["sample_id", *(f"m{i}" for i in range(200))]
        columns = [[f"s{k}" for k in range(5000)], *values]
        assert values.nbytes >= 2 * WRITE_SCRATCH
        tracemalloc.start()
        try:
            write_table(tmp_path / "t.csv", header, columns, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < WRITE_SCRATCH


# a fixed bound on what write_table allocates at once, whatever the size
# of the table
WRITE_SCRATCH = 4_000_000


def float_text(values):
    """The CSV text write_table gives each of the float64 ``values``."""
    values = np.asarray(values, dtype=np.float64)
    return tables._FloatColumns([values])[0:len(values)]


def assert_float_text(values):
    values = np.asarray(values, dtype=np.float64).tolist()
    expected = [format(x, ".17g") for x in values]
    text = float_text(values)
    assert len(text) == len(expected)
    wrong = [(x, t) for x, t, e in zip(values, text, expected) if t != e]
    assert not wrong, wrong[:10]


def half_way_ties():
    """Doubles x = k / 2**(17 - E), k odd, in each decade E: |x| * 10**(16 - E)
    is an integer and a half, so the 17th digit is rounded half to even."""
    ties = []
    for e in range(-6, 17):
        low = math.ceil(Fraction(10) ** e * 2 ** (17 - e))
        high = math.ceil(Fraction(10) ** (e + 1) * 2 ** (17 - e)) - 1
        for k in (low, low + 1, low + 7, (low + high) // 2, high - 2, high):
            k |= 1
            if low <= k <= high and k < 2**53:
                ties.append(math.ldexp(k, e - 17))
    return ties


def around_powers_of_ten():
    """Each power of ten from 1e-6 to 1e17 and the two doubles on each side."""
    cells = []
    for k in range(-6, 18):
        below = above = float(f"1e{k}")
        cells.append(below)
        for _ in range(2):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            cells += [below, above]
    return cells


EDGE_FLOATS = (
    around_powers_of_ten()
    + half_way_ties()
    + [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
       np.nan, np.inf, 9.999999999999999e-5, 9999999999999998.0, 0.5, 100.0, 123456.0]
)


class TestFloatText:
    def test_matches_format_on_edges(self):
        # powers of ten and their neighbours, half-way ties, the two ends of
        # fixed notation, zeros, subnormals and non-finite values, both signs
        edges = np.array(EDGE_FLOATS)
        assert len(half_way_ties()) > 100
        assert_float_text(np.concatenate([edges, -edges]))

    def test_half_way_tie_rounds_to_even(self):
        assert float_text([1 + 2**-17, -(1 + 2**-17)]) == ["1.0000076293945312",
                                                           "-1.0000076293945312"]

    def test_matches_format_on_random_cells(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
        decades = rng.standard_normal(100_000) * 10.0 ** rng.integers(-5, 17, size=100_000)
        assert_float_text(np.concatenate([bits, decades, rng.standard_normal(50_000)]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
        st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
    ), min_size=1, max_size=50))
    def test_matches_format_on_any_bit_pattern(self, values):
        assert_float_text(values)


# ids that need every kind of CSV quoting, and padding the reader strips
ID_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n;')), max_size=8)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestReadTables:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3), st.data())
    def test_round_trip_through_write_table(self, tmp_path, split_into, m, data):
        ids = data.draw(st.lists(ID_TEXT, min_size=1, max_size=12))
        n = len(ids)
        values = np.array(data.draw(st.lists(FINITE, min_size=m * n, max_size=m * n)),
                          dtype=float).reshape(m, n)
        methods = data.draw(st.lists(ID_TEXT, min_size=m, max_size=m))
        path = tmp_path / "t.csv"
        for parts in (1, 3):
            split_into(parts)
            write_table(path, ["sample_id", *methods], [ids, *values], "csv")
            method_ids, sample_ids, read = read_matrix_table(path)
            assert method_ids == tuple(name.strip() for name in methods)
            assert sample_ids == tuple(sid.strip() for sid in ids)
            assert read.shape == (m, n)
            assert np.ascontiguousarray(read).tobytes() == values.tobytes()

    def test_blank_lines_skipped(self, tmp_path, split_into):
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a,b\r\n\r\ns0,1,2\r\n\r\n\r\n s1 ,3,4\n\n")
        for parts in (1, 2, 3):
            split_into(parts)
            method_ids, sample_ids, values = read_matrix_table(path)
            assert method_ids == ("a", "b")
            assert sample_ids == ("s0", "s1")
            assert values.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("delimiter", [";", "\t"])
    def test_other_delimiters(self, tmp_path, delimiter):
        path = tmp_path / "t.csv"
        rows = [["sample_id", "a", "b"], ["s,0", "1.5", "-2"], ['"s1"', "3e2", "4"]]
        path.write_text("".join(delimiter.join(row) + "\n" for row in rows))
        method_ids, sample_ids, values = read_matrix_table(path, delimiter)
        assert method_ids == ("a", "b")
        assert sample_ids == ("s,0", "s1")
        assert values.tolist() == [[1.5, 300.0], [-2.0, 4.0]]

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a,b\r\n\r\n")
        with pytest.raises(InvalidInput, match="no data rows") as err:
            read_matrix_table(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("row, reason", [
        ("s2,5", "expected 3 cells"),
        ("s2,5,6,7", "expected 3 cells"),
        ("s2,5,x", "could not convert"),
        # the cell's repr, cut to 100 characters
        ("s2,5," + "x" * 150, "could not convert string '" + "x" * 99 + " to float64"),
    ])
    def test_bad_row_after_blank_line_names_data_row(self, tmp_path, row, reason):
        # data rows count the non-blank records after the header, from 1
        path = tmp_path / "t.csv"
        path.write_text(f"sample_id,a,b\ns0,1,2\n\ns1,3,4\n\n{row}\ns3,7,8\n")
        with pytest.raises(InvalidInput) as err:
            read_matrix_table(path)
        message = str(err.value)
        assert message.startswith(f"{path}: ")
        assert reason in message
        assert "data row 3" in message

    def test_bad_label_after_blank_line_names_data_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\ns0,1\n\ns1,yes\n")
        with pytest.raises(InvalidInput, match="could not convert") as err:
            read_labels_table(path)
        assert f"{path}: data row 2" in str(err.value)

    @pytest.mark.parametrize("label", ["0.5", "1.0", "1.7", "1e0", "1_0", "\u0661",
                                       "99999999999999999999", "-9223372036854775809"])
    def test_non_integer_label_rejected(self, tmp_path, split_into, label):
        # a label must be ASCII text without "_" that int() reads, within int64
        path = tmp_path / "labels.csv"
        path.write_text(f"sample_id,label\ns0,1\n\ns1,{label}\ns2,0\n", encoding="utf-8")
        for parts in (1, 2):
            split_into(parts)
            with pytest.raises(InvalidInput) as err:
                read_labels_table(path)
            assert str(err.value) == (f"{path}: data row 2, column 2: "
                                      f"could not convert string {label!r} to int64")

    def test_label_values_error_names_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\ns0,1\ns1,2\n")
        with pytest.raises(InvalidInput) as err:
            read_labels_table(path)
        assert str(err.value) == f"{path}: labels must be 0/1, got values [1 2]"

    @pytest.mark.parametrize("reader", [read_matrix_table, read_labels_table])
    def test_undecodable_data_row(self, tmp_path, split_into, reader):
        # far enough into the file that the header decodes cleanly; split,
        # the byte lies in the last part
        path = tmp_path / "t.csv"
        rows = b"".join(b"s%d,1\n" % k for k in range(5000))
        path.write_bytes(b"sample_id,label\n" + rows + b"s5000,\xff1\n")
        for parts in (1, 2):
            forked = split_into(parts)
            with pytest.raises(InvalidInput, match="not utf-8 text") as err:
                reader(path)
            assert str(path) in str(err.value)
        assert len(forked) == 1

    def test_oversized_header_cell(self, tmp_path):
        # csv's field limit applies to the header record only
        path = tmp_path / "t.csv"
        path.write_text("sample_id," + "x" * 200_000 + "\n" + "y" * 200_000 + ",1\n")
        with pytest.raises(InvalidInput, match="field limit") as err:
            read_matrix_table(path)
        assert str(path) in str(err.value)
        path.write_text("sample_id,a\n" + "y" * 200_000 + ",1\n")
        assert read_matrix_table(path)[1] == ("y" * 200_000,)

    def test_third_label_column_ignored(self, tmp_path, split_into):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label,note\ns0,1,first\n\n s1 ,0\ns2,1,x,y\n")
        for parts in (1, 2):
            forked = split_into(parts)
            sample_ids, labels = read_labels_table(path)
            assert sample_ids == ("s0", "s1", "s2")
            assert labels.labels.tolist() == [1, 0, 1]
        assert len(forked) == 1

    @pytest.mark.parametrize("reader, rows, bad", [
        (read_matrix_table, [f"s{k},{k},-{k}" for k in range(40)], "s,5"),
        (read_matrix_table, [f"s{k},{k},-{k}" for k in range(40)], "s,5,6,7"),
        (read_matrix_table, [f"s{k},{k},-{k}" for k in range(40)], "s,5,x"),
        (read_labels_table, [f"s{k},{k % 2}" for k in range(40)], "s"),
        (read_labels_table, [f"s{k},{k % 2}" for k in range(40)], "s,1.5"),
    ])
    @pytest.mark.parametrize("parts", [2, 3])
    def test_error_in_a_later_part_names_its_data_row(self, tmp_path, split_into, reader,
                                                      rows, bad, parts):
        # the message of a split read is the one-part message, word for word
        rows = rows[:5] + [""] + rows[5:30] + ["", ""] + rows[30:36] + [bad] + rows[36:]
        path = tmp_path / "t.csv"
        path.write_text(("sample_id,a,b\n" if reader is read_matrix_table
                         else "sample_id,label\n") + "\n".join(rows) + "\n")
        with pytest.raises(InvalidInput) as whole:
            reader(path)
        assert "data row 37" in str(whole.value)
        forked = split_into(parts)
        with pytest.raises(InvalidInput) as split:
            reader(path)
        assert len(forked) == parts - 1
        assert str(split.value) == str(whole.value)

    @pytest.mark.parametrize("at", [3, 60])
    def test_no_split_after_a_quote(self, tmp_path, split_into, at):
        # a quoted cell may hold a line break: csv.reader reads on from the
        # chunk that holds the table's first '"', whichever part it is in
        rows = [f"s{k},{k}.5,{-k}" for k in range(80)]
        rows[at] = f'"quoted\r\n{at}",1,2'
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a,b\r\n" + "\r\n".join(rows) + "\r\n", newline="")
        whole = read_matrix_table(path)
        forked = split_into(2)
        split = read_matrix_table(path)
        assert split[:2] == whole[:2] and split[1][at] == f"quoted\r\n{at}"
        assert split[2].tobytes() == whole[2].tobytes()
        # the quote no longer stops the split
        assert len(forked) == 1

    @pytest.mark.parametrize("labels, body, rows", [
        pytest.param(True, ",1\n" * 3000 + ",0", 3001, id="last line unended"),
        pytest.param(True, ",1\r" * 3000, 3000, id="carriage returns"),
        pytest.param(False, ",1,2\n" * 3000 + ",3,4", 3001, id="two cells"),
    ])
    def test_minimal_records_fill_the_row_bound(self, tmp_path, split_into, labels, body,
                                                rows):
        # the shortest records a body can hold: as many rows as its bytes allow
        path = tmp_path / "t.csv"
        path.write_bytes(b"sample_id,a" + b",b" * (not labels) + b"\n" + body.encode())
        width = 1 if labels else 2
        assert (len(body) + 1) // (2 * width + 1) == rows
        outcomes = split_outcomes(split_into, lambda: tables._read_table(path, ",", labels))
        ids, values = outcomes[0]
        assert ids == ("",) * rows
        assert len(values) == rows * width * 8
        assert outcomes[1:] == outcomes[:1] * 2

    @pytest.mark.parametrize("chunk", [None, 16])
    def test_quoted_line_breaks_across_a_part_cut(self, tmp_path, monkeypatch, split_into,
                                                  chunk):
        # a cell that spans both cuts: each later part starts inside it and
        # reads its lines as plain ones, which the parent never places
        if chunk:
            monkeypatch.setattr(tables, "_READ_BYTES", chunk)
        quoted = "q\n" + "x,1,2\n" * 80 + "q"
        rows = [f"s{k},{k}.5,-{k}" for k in range(20)]
        rows[10] = f'"{quoted}",5,6'
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a,b\n" + "\n".join(rows) + "\n")
        outcomes = split_outcomes(split_into, lambda: read_matrix_table(path))
        assert outcomes[0][0][10] == quoted and len(outcomes[0][0]) == 20
        assert outcomes[1:] == outcomes[:1] * 2

    def test_parts_after_a_declined_first_part_left_unread(self, tmp_path, split_into):
        # each child's ids fill its pipe, so it is still writing when this
        # process closes the pipe unread; it exits cleanly and is reaped
        rows = [f"s{k},{k}.5,-{k}" for k in range(30_000)]
        rows[0] = '"s0",0.5,0'
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a,b\n" + "\n".join(rows) + "\n")
        forked = split_into(1)
        outcomes = split_outcomes(split_into, lambda: read_matrix_table(path))
        assert len(forked) == 0 + 1 + 2
        assert outcomes[0][0] == tuple(f"s{k}" for k in range(30_000))
        assert outcomes[1:] == outcomes[:1] * 2

    def test_labels_table_split(self, tmp_path, split_into):
        out = simulate(tmp_path)
        whole = read_labels_table(out / "labels.csv")
        forked = split_into(3)
        split = read_labels_table(out / "labels.csv")
        assert len(forked) == 2
        assert split[0] == whole[0]
        assert split[1].labels.tobytes() == whole[1].labels.tobytes()

    @pytest.mark.parametrize("rows, children", [(199, 0), (200, 1)])
    def test_write_and_read_split_alike(self, tmp_path, split_into, rows, children):
        # one rule on both sides: rows x 3 cells, ids included, against two
        # parts of at least 300 cells; the lines are of equal length, so
        # the read counts its rows exactly
        forked = split_into(2, part_cells=300)
        path = tmp_path / "t.csv"
        write_table(path, ["sample_id", "a", "b"],
                    [[f"s{k:03d}" for k in range(rows)], np.full(rows, 0.5), np.arange(rows) % 7],
                    "csv")
        assert len(forked) == children
        sample_ids = read_matrix_table(path)[1]
        assert len(forked) == 2 * children
        assert sample_ids == tuple(f"s{k:03d}" for k in range(rows))

    def test_tall_labels_table_read_in_one_part(self, tmp_path, split_into):
        # cli_tall's labels: 10**5 rows of 2 cells, ids included, fewer
        # than two parts of the real _PART_CELLS, so the read forks no child
        out = simulate(tmp_path, **{"--methods": 5, "--samples": 100_000})
        forked = split_into(2, part_cells=tables._PART_CELLS)
        assert len(read_labels_table(out / "labels.csv")[0]) == 100_000
        assert forked == []

    @pytest.mark.parametrize("reader, text, reason", [
        (read_matrix_table, "", "empty table"),
        (read_labels_table, "", "empty table"),
        (read_matrix_table, "sample_id\ns0\n", "need a sample-id column plus method columns"),
        (read_labels_table, "sample_id\ns0\n", "expected 'sample_id,label' table"),
    ])
    def test_not_a_table_rejected(self, tmp_path, reader, text, reason):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput) as err:
            reader(path)
        assert str(err.value) == f"{path}: {reason}"

    def test_failed_part_raises(self, tmp_path, monkeypatch, split_into):
        path = write_scores(tmp_path / "t.csv", np.ones((3, 60)))
        split_into(2)
        parent, kernel_cells = os.getpid(), tables._kernel_cells

        def failing_kernel_cells(*args):
            if os.getpid() != parent:
                raise MemoryError("no room for the part")
            return kernel_cells(*args)

        monkeypatch.setattr(tables, "_kernel_cells", failing_kernel_cells)
        with pytest.raises(RuntimeError, match="part 2 of 2 ended before sending it"):
            read_matrix_table(path)

    def test_underscore_digits_rejected(self, tmp_path):
        # float() reads "1_0" as 10.0; numpy's float syntax has no "_"
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a\ns0,1_0\n")
        with pytest.raises(InvalidInput, match="data row 1, column 2"):
            read_matrix_table(path)


def mantissa_text(digits, point, negative):
    """The digits of ``digits`` with a point before digit ``point``, and a
    minus sign where ``negative``."""
    text = str(digits)
    point = min(point, len(text))
    return "-" * negative + text[:point] + "." + text[point:]


def below_midpoint(x, digits):
    """The exact midpoint of the positive double ``x`` and the next one
    up, cut to ``digits`` significant digits: just below the midpoint, or
    on it where it has no more digits."""
    with decimal.localcontext() as context:
        context.prec, context.rounding = 1100, decimal.ROUND_DOWN
        midpoint = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
        context.prec = digits
        return format(+midpoint, "f")


# the cell forms float tables come in: 17, 15 and 6 significant digits,
# repr, exponent form, a leading "+", a point at either end, a signed
# zero, 18 and 19 digit mantissas, and decimals on or just below the
# midpoint of two doubles
FLOAT_CELLS = st.one_of(
    FINITE.map(lambda x: format(x, ".17g")),
    FINITE.map(repr),
    FINITE.map(lambda x: format(x, ".6g")),
    FINITE.map(lambda x: format(x, ".15g")),
    FINITE.map(lambda x: format(x, ".3e")),
    FINITE.map(lambda x: "+" + format(abs(x), ".17g")),
    st.sampled_from([".5", "5.", "-0", "-0.0", "0.", "-.25", "+.5", "007", "0.000"]),
    st.builds(mantissa_text, st.integers(10**17, 10**19 - 1), st.integers(0, 19),
              st.booleans()),
    st.builds(below_midpoint, st.floats(1e-5, 1e19), st.integers(15, 26)),
    st.builds(below_midpoint, st.floats(2.0**49, 2.0**64, exclude_max=True),
              st.integers(16, 20)),
)


def loadtxt_values(path, delimiter=","):
    """The value cells of a table as np.loadtxt reads them, methods x samples."""
    with open(path, newline="", encoding="utf-8") as handle:
        return np.loadtxt(handle, delimiter=delimiter, skiprows=1, ndmin=2, comments=None,
                          converters={0: lambda cell: 0.0}).T[1:]


def read_with_and_without_kernel(monkeypatch, path, delimiter=","):
    """``read_matrix_table``'s outcome with the kernel and with
    csv.reader alone, each its (method ids, sample ids, value bytes) or
    its InvalidInput message; and whether the kernel declined a chunk."""
    declined, kernel_cells = [], tables._kernel_cells

    def spied(*args):
        cells = kernel_cells(*args)
        declined.append(cells is None)
        return cells

    def outcome():
        try:
            method_ids, sample_ids, values = read_matrix_table(path, delimiter)
        except InvalidInput as err:
            return str(err)
        return method_ids, sample_ids, np.ascontiguousarray(values).tobytes()

    with monkeypatch.context() as patch:
        patch.setattr(tables, "_kernel_cells", spied)
        kernel = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(tables, "_kernel_delimiter", lambda delimiter: None)
        plain = outcome()
    return kernel, plain, any(declined)


# text the kernel reads, with float(), among the cases it declines
KERNEL_NAN, KERNEL_INF = "s0,nan,2\ns1,3,4\n", "s0,1.5,-inf\ns1,3,4\n"


class TestReadFloatCells:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 4), st.integers(1, 30), st.sampled_from([",", ";", "\t"]),
           st.sampled_from(["\n", "\r\n"]), st.booleans(), st.data())
    def test_values_match_loadtxt(self, tmp_path, monkeypatch, split_into, m, n, delimiter,
                                  newline, last_newline, data):
        cells = data.draw(st.lists(FLOAT_CELLS, min_size=m * n, max_size=m * n))
        lines = [delimiter.join(["sample_id", *(f"m{i}" for i in range(m))])]
        lines += [delimiter.join([f"s{k}", *cells[k * m:(k + 1) * m]]) for k in range(n)]
        path = tmp_path / "t.csv"
        path.write_text(newline.join(lines) + newline * last_newline, newline="")
        expected = loadtxt_values(path, delimiter)
        for parts in (1, 3):
            split_into(parts)
            kernel, plain, declined = read_with_and_without_kernel(monkeypatch, path, delimiter)
            assert not declined
            assert kernel == plain
            assert kernel[1] == tuple(f"s{k}" for k in range(n))
            assert kernel[2] == expected.tobytes()

    def test_many_cells_match_float(self, tmp_path):
        # 104 000 cells of the forms above, drawn by numpy, through one part
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(40_000) * 10.0 ** rng.integers(-6, 20, size=40_000)).tolist()
        mantissas = rng.integers(10**17, 10**19, size=10_000, dtype=np.uint64).tolist()
        near = rng.uniform(1, 2, size=5_000) * 2.0 ** rng.integers(-16, 64, size=5_000)
        # midpoints with 1 to 4 digits after the point, each exactly a tie;
        # a tenth of those with 4 round the wrong way by the product alone
        ties = rng.uniform(2.0**49, 2.0**53, size=4_000)
        cells = ([format(v, ".17g") for v in x] + [repr(v) for v in x[:20_000]]
                 + [format(v, ".15g") for v in x[20_000:]]
                 + [mantissa_text(d, k % 20, k % 3 == 0) for k, d in enumerate(mantissas)]
                 + [below_midpoint(v, 16 + k % 5) for k, v in enumerate(near.tolist())]
                 + [below_midpoint(v, 20) for v in ties.tolist()]
                 + ["-0", ".5", "5.", "+1.5", "1e5"] * 1000)
        assert len(cells) % 4 == 0
        rows = np.array(cells).reshape(-1, 4)
        path = tmp_path / "t.csv"
        path.write_text("sample_id,a,b,c,d\n" + "".join(
            f"s{k},{','.join(row)}\n" for k, row in enumerate(rows)))
        _, _, values = read_matrix_table(path)
        expected = np.array([float(cell) for cell in cells]).reshape(-1, 4).T
        assert np.ascontiguousarray(values).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [16, 100, 1000])
    def test_chunks_and_long_lines_round_trip(self, tmp_path, monkeypatch, split_into, chunk):
        # lines carried over from one chunk to the next, and lines longer
        # than a chunk's buffer
        monkeypatch.setattr(tables, "_READ_BYTES", chunk)
        values = np.random.default_rng(3).standard_normal((6, 90))
        path = write_scores(tmp_path / "t.csv", values)
        for parts in (1, 3):
            split_into(parts)
            method_ids, sample_ids, read = read_matrix_table(path)
            assert sample_ids == tuple(f"s{k}" for k in range(90))
            assert np.ascontiguousarray(read).tobytes() == values.tobytes()

    def test_cli_tall_table_matches_loadtxt(self, tmp_path):
        # the benchmark's CSV workload: 30 methods, 10**5 samples
        out = tmp_path / "tall"
        assert run("simulate", "--methods", 30, "--samples", 100_000, "--rho", 0.3,
                   "--seed", 1, "--output-dir", out) == 0
        method_ids, sample_ids, values = read_matrix_table(out / "scores.csv")
        assert method_ids == tuple(f"m{i:02d}" for i in range(30))
        assert sample_ids == tuple(f"s{k:05d}" for k in range(100_000))
        expected = loadtxt_values(out / "scores.csv")
        assert np.ascontiguousarray(values).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("body, expected", [
        pytest.param('"s0",1.5,2\ns1,3,4\n', ("s0", "s1"), id="quoted id"),
        pytest.param("s0,1.5,2\n\ns1,3,4\n", ("s0", "s1"), id="blank line"),
        pytest.param("s0, 1.5,2\ns1,3,4\n", ("s0", "s1"), id="space"),
        pytest.param(KERNEL_NAN, ("s0", "s1"), id="nan"),
        pytest.param(KERNEL_INF, ("s0", "s1"), id="inf"),
        pytest.param("s0,1.5\xa0,2\ns1,3,4\n", ("s0", "s1"), id="trailing NBSP"),
        pytest.param("s0,1.5\x0c,2\ns1,3,4\n", ("s0", "s1"), id="trailing form feed"),
        pytest.param("s0,1.5,2\rs1,3,4\n", ("s0", "s1"), id="lone carriage return"),
        pytest.param("sé,1.5,2\ns1,3,4\n", ("sé", "s1"), id="non-ASCII id"),
        pytest.param("s0,1_0,2\ns1,3,4\n", "data row 21, column 2: could not convert",
                     id="underscore"),
        pytest.param("s0,\u0661,2\ns1,3,4\n",
                     "data row 21, column 2: could not convert string '\u0661' to float64",
                     id="Arabic-Indic digit"),
        pytest.param("s0,,2\ns1,3,4\n", "data row 21, column 2: could not convert",
                     id="empty cell"),
        pytest.param("s0,1.5,2,7\ns1,3,4\n", "data row 21: expected 3 cells", id="extra cell"),
        pytest.param("s0,1.5.1,2\ns1,3,4\n", "data row 21, column 2: could not convert",
                     id="two points"),
        pytest.param("s0,.,2\ns1,3,4\n", "data row 21, column 2: could not convert",
                     id="lone point"),
        pytest.param("s0,-,2\ns1,3,4\n", "data row 21, column 2: could not convert",
                     id="lone sign"),
    ])
    @pytest.mark.parametrize("parts", [1, 2])
    def test_declined_text_reads_as_loadtxt(self, tmp_path, monkeypatch, split_into, body,
                                            expected, parts):
        # the ids that end the table, or its error; with 16-byte chunks the
        # kernel takes the lines before the text, and csv.reader goes on
        # from the chunk it declines
        path = tmp_path / "t.csv"
        path.write_bytes(("sample_id,a,b\n" + "s,1,2\n" * 20 + body).encode())
        split_into(parts)
        for chunk in (tables._READ_BYTES, 16):
            monkeypatch.setattr(tables, "_READ_BYTES", chunk)
            kernel, plain, declined = read_with_and_without_kernel(monkeypatch, path)
            # split, the text is in the second part, whose child declines it;
            # the kernel reads nan and inf by the cell rule
            assert declined == (parts == 1 and body not in (KERNEL_NAN, KERNEL_INF))
            assert kernel == plain
            if isinstance(expected, tuple):
                assert kernel[1] == ("s",) * 20 + expected
                assert kernel[2] == loadtxt_values(path).tobytes()
            else:
                assert kernel.startswith(f"{path}: {expected}")

    @pytest.mark.parametrize("delimiter", [".", "-", "e", "5", " "])
    def test_delimiter_in_a_number_reads_as_loadtxt(self, tmp_path, monkeypatch, delimiter):
        path = tmp_path / "t.csv"
        rows = [["id", "a", "b"], ["s0", "1", "2"], ["s1", "3", "4"]]
        path.write_text("".join(delimiter.join(row) + "\n" for row in rows))
        assert tables._kernel_delimiter(delimiter) is None
        kernel, plain, _ = read_with_and_without_kernel(monkeypatch, path, delimiter)
        assert kernel == plain
        assert isinstance(kernel, tuple)

    def test_integer_cells_match_int(self, tmp_path, monkeypatch, split_into):
        # a label table's cells: 1 to 19 digits, signs and leading zeros,
        # and the two ends of int64, which the kernel reads in full or
        # hands to the cell rule
        rng = np.random.default_rng(13)
        digits = rng.integers(1, 20, size=3000)
        cells = [("-" if k % 3 == 0 else "+" if k % 7 == 0 else "") + "0" * (k % 5 == 0)
                 + str(rng.integers(10 ** (d - 1), 10**d - 1, dtype=np.uint64, endpoint=True))
                 for k, d in enumerate(digits.tolist())]
        cells = [cell for cell in cells if -2**63 <= int(cell) < 2**63]
        cells += ["0", "-0", "007", str(2**63 - 1), str(-2**63), "9" * 18, "-" + "9" * 18]
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\n" + "".join(
            f"s{k},{cell}\n" for k, cell in enumerate(cells)))
        expected = np.array([int(cell) for cell in cells])
        declined, kernel_cells = [], tables._kernel_cells

        def spied(*args):
            taken = kernel_cells(*args)
            declined.append(taken is None)
            return taken

        monkeypatch.setattr(tables, "_kernel_cells", spied)
        for parts in (1, 3):
            split_into(parts)
            _, ids, values = tables._read_table(path, ",", labels=True)
            assert ids == tuple(f"s{k}" for k in range(len(cells)))
            assert values[:, 0].tobytes() == expected.tobytes()
        assert declined and not any(declined)
        for bad in [str(2**63), "1.0", "0.5", "1e0", "1_0"]:
            path.write_text(f"sample_id,label\ns0,1\ns1,{bad}\n")
            with pytest.raises(InvalidInput, match=f"data row 2, column 2: could not convert "
                                                   f"string '{bad}' to int64"):
                read_labels_table(path)


class TestSimulate:
    def test_writes_three_tables_and_manifest(self, tmp_path):
        out = simulate(tmp_path)
        for name in ("scores.csv", "labels.csv", "true_aurocs.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 11
        assert set(manifest["outputs"]) == {"scores.csv", "labels.csv", "true_aurocs.csv"}
        assert manifest["duration_s"] >= 0

    def test_deterministic_output_bytes(self, tmp_path):
        a = simulate(tmp_path, out="a")
        b = simulate(tmp_path, out="b")
        for name in ("scores.csv", "labels.csv", "true_aurocs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_prevalence_rejected(self, tmp_path):
        code = run("simulate", "--seed", 1, "--rho", "0",
                   "--output-dir", tmp_path / "bad")
        assert code != 0

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--output-dir", tmp_path / "x")
        assert err.value.code != 0

    def test_json_format(self, tmp_path):
        out = simulate(tmp_path, out="j", **{"--format": "json"})
        records = json.loads((out / "scores.json").read_text())
        assert len(records) == 300
        assert set(records[0]) == {"sample_id"} | {f"m{i:02d}" for i in range(10)}

    def test_scores_table_round_trip(self, tmp_path):
        out = simulate(tmp_path)
        method_ids, sample_ids, values = read_matrix_table(out / "scores.csv")
        assert len(method_ids) == 10
        assert values.shape == (10, 300)

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="a table splits only across two or more usable CPUs")
    def test_large_table_splits_across_cpus(self, tmp_path):
        # 17 000 rows of 31 cells: large enough that the writer and the
        # reader really fork, with no setting changed
        assert tables._part_count(17_000 * 31) >= 2
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = simulate(tmp_path, **{"--methods": 30, "--samples": 17_000})
        assert run("infer", out / "scores.csv", "--output-dir", tmp_path / "inf") == 0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert after.ru_utime + after.ru_stime > before.ru_utime + before.ru_stime

        data = simulate_ensemble(SimulationConfig(n_methods=30, n_samples=17_000, seed=11))
        method_ids, sample_ids, values = read_matrix_table(out / "scores.csv")
        assert (method_ids, sample_ids) == (data.scores.method_ids, data.scores.sample_ids)
        assert values.tobytes() == data.scores.values.tobytes()
        report = json.loads((tmp_path / "inf" / "report.json").read_text())
        expected = run_pipeline(rank_transform(data.scores, "midrank")).to_dict()
        assert report["rho"] == expected["rho"]
        assert [m["auroc"] for m in report["methods"]] == \
            [m["auroc"] for m in expected["methods"]]


class TestInfer:
    def test_report_and_ensembles(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 500})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["n_methods"] == 12
        assert report["rho_source"] == "estimated"
        assert report["lambda_e"] > 0
        assert len(report["methods"]) == 12
        assert {"method_id", "weight", "delta", "auroc", "auroc_raw",
                "recoverability_flag"} <= set(report["methods"][0])
        for name in ("method_estimates.csv", "ensemble_scores.csv",
                     "ensemble_labels.csv", "manifest.json"):
            assert (inf / name).exists()
        manifest = json.loads((inf / "manifest.json").read_text())
        assert len(manifest["input_digests"]) == 1
        assert set(report["tensor"]) == {"lambda_t_se", "z", "rho_interval"}

    def test_balanced_design_infers_near_half(self, tmp_path):
        # rho is reported as measured, near (not snapped to) one half,
        # and flagged exactly when its interval contains one half
        out = simulate(tmp_path, **{"--methods": 30, "--samples": 1000, "--seed": 3})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == pytest.approx(0.5, abs=0.12)
        assert report["rho_source"] == "estimated"
        low, high = report["tensor"]["rho_interval"]
        assert low <= report["rho"] <= high
        assert report["rho_degenerate"] == (low <= 0.5 <= high)

    def test_supplied_prevalence(self, tmp_path):
        out = simulate(tmp_path, **{"--rho": 0.3, "--seed": 9})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--prevalence", 0.3,
                   "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == 0.3
        assert report["rho_source"] == "assumed"

    def test_three_methods_rejected(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 3})
        code = run("infer", out / "scores.csv", "--prevalence", 0.5,
                   "--output-dir", tmp_path / "inf")
        assert code != 0
        manifest = json.loads((tmp_path / "inf" / "manifest.json").read_text())
        assert "error" in manifest

    def test_four_methods_report_degenerate_half(self, tmp_path):
        # the tensor stage needs 5 methods, so without a prevalence rho is
        # the flagged 1/2 of a tensor stage that measured nothing
        out = simulate(tmp_path, **{"--methods": 4, "--seed": 1})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == 0.5
        assert report["rho_source"] == "estimated"
        assert report["rho_degenerate"] is True
        assert report["lambda_t"] is None
        assert "tensor" not in report
        assert len(report["notes"]) == 1 and "fewer than 5 methods" in report["notes"][0]
        assert {"delta", "auroc", "auroc_raw"} <= set(report["methods"][0])

        _, _, values = read_matrix_table(out / "scores.csv")
        result = run_pipeline(rank_transform(ScoreMatrix.from_array(values), "midrank"))
        assert result.tensor is None
        assert result.report.rho == 0.5 and result.report.rho_degenerate
        assert result.report.notes == tuple(report["notes"])

    def test_four_methods_with_prevalence_skip_cross_check(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 4, "--seed": 1})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--prevalence", 0.3,
                   "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == 0.3
        assert report["rho_source"] == "assumed"
        assert report["rho_degenerate"] is False
        assert report["notes"] == ["fewer than 5 methods for the tensor stage; "
                                   "cross-check skipped"]

        _, _, values = read_matrix_table(out / "scores.csv")
        ranks = rank_transform(ScoreMatrix.from_array(values), "midrank")
        result = run_pipeline(ranks, prevalence=0.3)
        assert result.tensor is None
        assert result.report.rho == 0.3 and result.report.rho_assumed
        assert result.report.notes == tuple(report["notes"])

    def test_already_ranked_input(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 50
        ranks = np.array([rng.permutation(np.arange(1, n + 1)) for _ in range(6)])
        table = tmp_path / "ranks.csv"
        with open(table, "w") as handle:
            handle.write("sample_id," + ",".join(f"m{i}" for i in range(6)) + "\n")
            for k in range(n):
                handle.write(f"s{k}," + ",".join(str(int(r)) for r in ranks[:, k]) + "\n")
        inf = tmp_path / "inf"
        assert run("infer", table, "--already-ranked", "--ties", "strict",
                   "--prevalence", "0.4", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["n_samples"] == n

    def test_tensor_failure_reports_degenerate_half(self, tmp_path):
        # every sample next to its score-negated mirror: the third moments
        # vanish, so the tensor stage finds no signal
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400, "--rho": 0.3})
        method_ids, sample_ids, values = read_matrix_table(out / "scores.csv")
        mirrored = tmp_path / "mirrored.csv"
        write_table(mirrored, ["sample_id", *method_ids],
                    [list(sample_ids) + [f"{s}_mirror" for s in sample_ids],
                     *np.hstack([values, -values])], "csv")
        inf = tmp_path / "inf"
        assert run("infer", mirrored, "--output-dir", inf) == 0
        assert not (inf / "error.json").exists()
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == 0.5
        assert report["rho_source"] == "estimated"
        assert report["rho_degenerate"] is True
        assert report["lambda_t"] is None
        assert "tensor" not in report
        assert len(report["notes"]) == 1
        assert "error" not in json.loads((inf / "manifest.json").read_text())

    def test_balanced_small_design_is_flagged_not_snapped(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400,
                                    "--rho": 0.5, "--seed": 5})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        tensor = report["tensor"]
        low, high = tensor["rho_interval"]
        assert report["rho_degenerate"] is True
        assert low < 0.5 < high and low <= report["rho"] <= high
        assert abs(tensor["z"]) <= Z_CUTOFF
        assert report["lambda_t"] == pytest.approx(tensor["z"] * tensor["lambda_t_se"])
        assert report["notes"] == []

    def test_matrix_not_converged_writes_error_json(self, tmp_path):
        # one update step cannot meet the step test, so the matrix stage
        # runs out; the CLI writes the library's partial
        out = simulate(tmp_path, **{"--methods": 30, "--samples": 500})
        _, _, values = read_matrix_table(out / "scores.csv")
        ranks = rank_transform(ScoreMatrix.from_array(values), "midrank")
        with pytest.raises(NotConverged) as raised:
            run_pipeline(ranks, max_iter=1)
        expected = raised.value.partial
        assert expected.iterations == 1 and not expected.converged
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--max-iter", 1,
                   "--output-dir", inf) == 1
        error = json.loads((inf / "error.json").read_text())
        assert error["error"] == "NotConverged"
        partial = error["partial"]
        assert partial["lambda"] > 0
        assert len(partial["v"]) == 30
        assert partial["iterations"] == 1
        assert partial["residual"] >= 0
        assert partial["v"] == expected.v.tolist()
        assert partial["lambda"] == expected.lambda_
        manifest = json.loads((inf / "manifest.json").read_text())
        assert "error" in manifest
        assert "error.json" in manifest["outputs"]

    def test_power_iteration_out_of_steps_writes_error_json(self, tmp_path):
        # the same out-of-steps path on the default simulated design
        out = simulate(tmp_path)
        _, _, values = read_matrix_table(out / "scores.csv")
        ranks = rank_transform(ScoreMatrix.from_array(values), "midrank")
        with pytest.raises(NotConverged) as raised:
            run_pipeline(ranks, max_iter=1)
        partial = raised.value.partial
        assert partial.iterations == 1 and not partial.converged
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--max-iter", 1,
                   "--output-dir", inf) == 1
        error = json.loads((inf / "error.json").read_text())
        assert error["error"] == "NotConverged"
        assert error["partial"]["v"] == partial.v.tolist()
        assert error["partial"]["lambda"] == partial.lambda_
        assert "error.json" in json.loads((inf / "manifest.json").read_text())["outputs"]

    def test_factor_on_one_method_is_no_signal(self, tmp_path):
        table = write_scores(tmp_path / "scores.csv", ONE_METHOD_FACTOR)
        inf = tmp_path / "inf"
        assert run("infer", table, "--output-dir", inf) == 1
        manifest = json.loads((inf / "manifest.json").read_text())
        assert manifest["error"] == "the update puts the whole factor on one method"
        assert not (inf / "report.json").exists()

    def test_collapsed_leave_out_fit_reports_degenerate_half(self, tmp_path):
        table = write_scores(tmp_path / "scores.csv", COLLAPSED_LEAVE_OUT)
        inf = tmp_path / "inf"
        assert run("infer", table, "--output-dir", inf) == 0
        assert "error" not in json.loads((inf / "manifest.json").read_text())
        report = strict_json(inf / "report.json")
        assert report["rho"] == 0.5
        assert report["rho_degenerate"] is True
        assert report["lambda_t"] is None
        assert report["notes"] == ["tensor stage found no signal; "
                                   "rho taken as 1/2 and flagged degenerate"]
        assert all(0.0 <= m["auroc_raw"] <= 1.0 for m in report["methods"])

    def test_no_iterations_rejected(self, tmp_path):
        out = simulate(tmp_path)
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--max-iter", 0,
                   "--output-dir", inf) == 1
        manifest = json.loads((inf / "manifest.json").read_text())
        assert "max_iter" in manifest["error"]

    def test_deterministic_outputs(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400})
        for name in ("a", "b"):
            assert run("infer", out / "scores.csv", "--prevalence", 0.5,
                       "--output-dir", tmp_path / name) == 0
        for name in ("report.json", "method_estimates.csv",
                     "ensemble_scores.csv", "ensemble_labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestEvaluate:
    def test_two_ensemble_columns(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--prevalence", 0.5,
                   "--output-dir", inf) == 0
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", inf / "ensemble_scores.csv",
                   "--labels", out / "labels.csv", "--output-dir", ev) == 0
        lines = (ev / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "method_id,auroc,n_samples,n_positive"
        assert len(lines) == 3  # summa + woc

    def test_perfect_scores(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,good\ns0,4\ns1,3\ns2,2\ns3,1\n")
        labels.write_text("sample_id,label\ns0,1\ns1,1\ns2,0\ns3,0\n")
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 0
        rows = (ev / "metrics.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[1] == "1"

    def test_label_order_realigned(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\ns2,2\ns3,1\n")
        labels.write_text("sample_id,label\ns3,0\ns2,0\ns1,1\ns0,1\n")
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 0
        rows = (ev / "metrics.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[1] == "1"

    def test_id_mismatch_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\n")
        labels.write_text("sample_id,label\nsX,1\nsY,0\n")
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", tmp_path / "ev") != 0

    @pytest.mark.parametrize("score_ids, label_rows, repeated", [
        (["a", "b", "b"], ["b,0", "a,1", "a,1"], "'b' appears more than once in scores"),
        (["a", "b", "c"], ["b,0", "a,1", "a,1"], "'a' appears more than once in labels"),
    ])
    def test_repeated_ids_rejected(self, tmp_path, score_ids, label_rows, repeated):
        # before, a,b,b against b:0,a:1,a:1 paired silently with n_positive 1
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\n" + "".join(
            f"{sid},{k}\n" for k, sid in enumerate(score_ids)))
        labels.write_text("sample_id,label\n" + "".join(row + "\n" for row in label_rows))
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 1
        manifest = json.loads((ev / "manifest.json").read_text())
        assert repeated in manifest["error"]
        assert not (ev / "metrics.csv").exists()

    def test_single_class_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\n")
        labels.write_text("sample_id,label\ns0,1\ns1,1\n")
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", tmp_path / "ev") != 0

    def test_label_row_without_label_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\n")
        labels.write_text("sample_id,label\ns0,1\ns1\n")
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 1
        manifest = json.loads((ev / "manifest.json").read_text())
        assert "labels.csv: data row 2: expected at least 2 cells" in manifest["error"]


@pytest.mark.parametrize("command", ["infer", "evaluate"])
def test_parsed_table_dropped_before_ranking(tmp_path, monkeypatch, command):
    # the parsed table is as large as the scores, so it may not still be
    # alive when rank_transform builds the ranks
    sim = simulate(tmp_path)
    refs, alive = [], []

    def read(path, delimiter=","):
        method_ids, sample_ids, values = read_matrix_table(path, delimiter)
        refs.append(weakref.ref(values))
        return method_ids, sample_ids, values

    def ranks(scores, ties):
        alive.extend(ref() is not None for ref in refs)
        return rank_transform(scores, ties)

    monkeypatch.setattr(cli, "read_matrix_table", read)
    monkeypatch.setattr(cli, "rank_transform", ranks)
    if command == "infer":
        argv = ["infer", sim / "scores.csv"]
    else:
        argv = ["evaluate", "--scores", sim / "scores.csv", "--labels", sim / "labels.csv"]
    assert run(*argv, "--output-dir", tmp_path / "out") == 0
    assert alive == [False]


class TestManifestOutputs:
    """The manifest lists exactly the files a command wrote."""

    @staticmethod
    def assert_lists_directory(out):
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) | {"manifest.json"} == \
            {path.name for path in out.iterdir()}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["simulate", "infer", "evaluate", "sweep"])
    def test_each_command(self, tmp_path, command, fmt):
        sim = simulate(tmp_path)
        argv = {
            "simulate": ["simulate", "--methods", 6, "--samples", 100, "--seed", 2],
            "infer": ["infer", sim / "scores.csv"],
            "evaluate": ["evaluate", "--scores", sim / "scores.csv",
                         "--labels", sim / "labels.csv"],
            "sweep": ["sweep", "--axis", "methods", "--values", "5,6",
                      "--replicates", 2, "--seed", 3, "--samples", 200],
        }[command]
        out = tmp_path / "out"
        assert run(*argv, "--format", fmt, "--output-dir", out) == 0
        self.assert_lists_directory(out)

    def test_error_json(self, tmp_path):
        sim = simulate(tmp_path, **{"--methods": 30, "--samples": 500})
        out = tmp_path / "inf"
        assert run("infer", sim / "scores.csv", "--max-iter", 1, "--output-dir", out) == 1
        assert (out / "error.json").exists()
        self.assert_lists_directory(out)


class TestStrictJson:
    """Every JSON file is strict JSON: a non-finite float is written as null."""

    @staticmethod
    def parse_all(out):
        return {path.name: strict_json(path) for path in out.glob("*.json")}

    def test_infinite_z_in_report(self, tmp_path):
        # 40 samples tied at a level that rises with the method, 60 at 0:
        # every jackknife block holds 2 of the 40 and 3 of the 60, so
        # every leave-out gives the same lambda_t, its standard error is
        # 0 and z is infinite
        levels = np.linspace(1.0, 2.0, 5)
        values = np.where(np.arange(100) < 40, levels[:, None], 0.0)
        write_table(tmp_path / "flat.csv", ["sample_id", *(f"m{i}" for i in range(5))],
                    [[f"s{k}" for k in range(100)], *values], "csv")
        out = tmp_path / "out"
        assert run("infer", tmp_path / "flat.csv", "--output-dir", out) == 0
        files = self.parse_all(out)
        assert set(files) == {"report.json", "manifest.json"}
        assert files["report.json"]["tensor"]["lambda_t_se"] == 0.0
        assert files["report.json"]["tensor"]["z"] is None

    def test_nan_prevalence_in_manifest(self, tmp_path):
        sim = simulate(tmp_path)
        out = tmp_path / "out"
        assert run("infer", sim / "scores.csv", "--prevalence", "nan", "--output-dir", out) == 1
        files = self.parse_all(out)
        assert set(files) == {"manifest.json"}
        assert files["manifest.json"]["config"]["prevalence"] is None
        assert "prevalence" in files["manifest.json"]["error"]

    def test_infinite_rho_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--rho", "inf", "--seed", 1, "--output-dir", out) == 1
        files = self.parse_all(out)
        assert set(files) == {"manifest.json"}
        assert files["manifest.json"]["config"]["rho"] is None


class TestFailures:
    """Every failure exits 1, records the manifest error and prints one
    stderr line instead of a traceback."""

    @staticmethod
    def assert_reported(out, capsys, command, fragment):
        manifest = json.loads((out / "manifest.json").read_text())
        assert fragment in manifest["error"]
        assert manifest["outputs"] == []
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_infer_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "inf"
        assert run("infer", missing, "--output-dir", out) == 1
        self.assert_reported(out, capsys, "infer", str(missing))

    def test_missing_evaluate_scores(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\ns0,1\ns1,0\n")
        missing = tmp_path / "missing.csv"
        out = tmp_path / "ev"
        assert run("evaluate", "--scores", missing, "--labels", labels,
                   "--output-dir", out) == 1
        self.assert_reported(out, capsys, "evaluate", str(missing))

    # a quote or a line break cannot separate cells either
    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r"])
    def test_delimiter_not_one_character(self, tmp_path, capsys, delimiter):
        sim = simulate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "inf"
        assert run("infer", sim / "scores.csv", "--delimiter", delimiter,
                   "--output-dir", out) == 1
        self.assert_reported(out, capsys, "infer", "--delimiter")
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    def test_output_dir_is_a_file(self, tmp_path, capsys):
        # no manifest can be written there, but the failure is still one line
        afile = tmp_path / "afile"
        afile.write_text("taken\n")
        assert run("simulate", "--seed", 1, "--output-dir", afile) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"simulate: {afile}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert afile.read_text() == "taken\n"

    def test_output_file_is_a_directory(self, tmp_path, capsys):
        # an OSError on a command's file is its manifest error too
        out = tmp_path / "out"
        (out / "scores.csv").mkdir(parents=True)
        assert run("simulate", "--methods", 5, "--samples", 50, "--seed", 1,
                   "--output-dir", out) == 1
        self.assert_reported(out, capsys, "simulate", str(out / "scores.csv"))

    @pytest.mark.parametrize("failed", [False, True])
    def test_manifest_is_a_directory(self, tmp_path, capsys, failed):
        # the manifest's own OSError is the stderr line, unless the
        # command failed first
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        if failed:
            (out / "labels.csv").mkdir()
        assert run("simulate", "--methods", 5, "--samples", 50, "--seed", 1,
                   "--output-dir", out) == 1
        err = capsys.readouterr().err
        reported = out / ("labels.csv" if failed else "manifest.json")
        assert err.startswith(f"simulate: {reported}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (out / "scores.csv").is_file()
        assert (out / "true_aurocs.csv").is_file() != failed

    @pytest.mark.parametrize("bad, text, reason", [
        ("infer input", "", "empty table"),
        ("evaluate labels", "", "empty table"),
        ("infer input", "sample_id\ns0\n", "need a sample-id column plus method columns"),
        ("evaluate labels", "sample_id\ns0\n", "expected 'sample_id,label' table"),
    ])
    def test_input_not_a_table(self, tmp_path, capsys, bad, text, reason):
        table = tmp_path / "table.csv"
        table.write_text(text)
        out = tmp_path / "out"
        if bad == "infer input":
            command, argv = "infer", ["infer", table]
        else:
            sim = simulate(tmp_path)
            capsys.readouterr()
            command = "evaluate"
            argv = ["evaluate", "--scores", sim / "scores.csv", "--labels", table]
        assert run(*argv, "--output-dir", out) == 1
        self.assert_reported(out, capsys, command, f"{table}: {reason}")

    @pytest.mark.parametrize("bad", ["infer input", "evaluate labels"])
    def test_input_not_utf8(self, tmp_path, capsys, bad):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00bad,\x81\n")
        out = tmp_path / "out"
        if bad == "infer input":
            command, argv = "infer", ["infer", binary]
        else:
            sim = simulate(tmp_path)
            capsys.readouterr()
            command = "evaluate"
            argv = ["evaluate", "--scores", sim / "scores.csv", "--labels", binary]
        assert run(*argv, "--output-dir", out) == 1
        self.assert_reported(out, capsys, command, str(binary))


def test_runs_without_scipy(tmp_path):
    # any import of scipy or a scipy submodule raises in this interpreter
    code = """
import sys
sys.modules["scipy"] = None
from summa.cli import main
for argv in (
    ["simulate", "--methods", "8", "--samples", "200", "--seed", "5", "--output-dir", "sim"],
    ["infer", "sim/scores.csv", "--output-dir", "inf"],
    ["evaluate", "--scores", "sim/scores.csv", "--labels", "sim/labels.csv",
     "--output-dir", "ev"],
    ["sweep", "--axis", "methods", "--values", "6", "--replicates", "1", "--seed", "5",
     "--samples", "200", "--output-dir", "sw"],
):
    assert main(argv) == 0, argv
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sw" / "sweep.csv").exists()


def test_infer_outputs_do_not_depend_on_the_locale(tmp_path):
    # a UTF-8 table with non-ASCII ids, read and written under an ASCII locale
    table = tmp_path / "scores.csv"
    table.write_bytes((simulate(tmp_path) / "scores.csv").read_bytes()
                      .replace(b"\ns", "\n\u00e9".encode()))
    assert run("infer", table, "--output-dir", tmp_path / "here") == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src,
           "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    done = subprocess.run([sys.executable, "-m", "summa.cli", "infer", str(table),
                           "--output-dir", str(tmp_path / "ascii")],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert "\n\u00e9000,".encode() in (tmp_path / "here" / "ensemble_scores.csv").read_bytes()
    for name in ("report.json", "method_estimates.csv", "ensemble_scores.csv",
                 "ensemble_labels.csv"):
        assert (tmp_path / "ascii" / name).read_bytes() == \
            (tmp_path / "here" / name).read_bytes(), name


def test_manifest_is_utf8_under_an_ascii_locale(tmp_path):
    # Python decodes a non-ASCII argument into lone surrogates under an
    # ASCII locale; the manifest holds its UTF-8 text
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src,
           "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    here = "\u00e9".encode()
    codes = [subprocess.run([sys.executable, "-m", "summa.cli", *argv], cwd=tmp_path,
                            env=env, capture_output=True).returncode
             for argv in (["simulate", "--methods", "8", "--samples", "200", "--seed", "5",
                           "--output-dir", here],
                          ["infer", here + b"/scores.csv", "--output-dir", here + b"/inf"],
                          ["infer", here + b"/missing.csv", "--output-dir", here + b"/bad"])]
    assert codes == [0, 0, 1]
    out = tmp_path / os.fsdecode(here)
    manifests = [json.loads((out / sub / "manifest.json").read_bytes().decode("utf-8"))
                 for sub in ("", "inf", "bad")]
    assert manifests[0]["config"]["output_dir"] == "\u00e9"
    assert list(manifests[1]["input_digests"]) == ["\u00e9/scores.csv"]
    assert manifests[2]["error"].startswith("\u00e9/missing.csv: ")
    # no lone surrogate is left anywhere: strict UTF-8 encodes every string
    json.dumps(manifests, ensure_ascii=False).encode("utf-8")


def test_stderr_line_is_the_typed_bytes_under_an_ascii_locale(tmp_path):
    # the stderr line writes a non-ASCII argument's bytes, not escapes of
    # its lone surrogates: for a missing input, and for an output
    # directory that cannot be made
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src,
           "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    here = "\u00e9".encode()
    (tmp_path / os.fsdecode(here)).write_text("a file\n")
    errs = [subprocess.run([sys.executable, "-m", "summa.cli", *argv], cwd=tmp_path,
                           env=env, capture_output=True).stderr
            for argv in (["infer", b"missing" + here + b".csv", "--output-dir", b"out"],
                         ["simulate", "--seed", "1", "--output-dir", here + b"/out"])]
    assert errs[0].startswith(b"infer: missing\xc3\xa9.csv: ") and errs[0].count(b"\n") == 1
    assert errs[1].startswith(b"simulate: \xc3\xa9/out: ") and errs[1].count(b"\n") == 1


def parser_flags(parser) -> set[str]:
    """Every ``--flag`` of ``parser`` and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(option for option in action.option_strings if option.startswith("--"))
        if isinstance(action.choices, dict):  # the subcommands' parsers
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def test_readme_names_every_flag():
    # the Install section names pip's flags, not summa's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    before, _, rest = readme.partition("\n## Install\n")
    readme = before + rest[rest.index("\n## "):]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    # argparse gives every parser a --help
    defined = parser_flags(cli.build_parser()) - {"--help"}
    assert sorted(defined - named) == [], "flags the README does not name"
    assert sorted(named - defined) == [], "README flags the parser does not define"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it
    was asked for and maps in this process."""

    workers: list[int] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestSweep:
    def test_default_axis_values(self):
        from summa.cli import SWEEP_DEFAULT_VALUES

        assert SWEEP_DEFAULT_VALUES["methods"] == [str(v) for v in range(5, 31)]
        assert len(SWEEP_DEFAULT_VALUES["methods"]) == 26
        assert SWEEP_DEFAULT_VALUES["samples"] == ["30", "250", "1000", "4000"]
        assert len(SWEEP_DEFAULT_VALUES["prevalence"]) == 9

    def test_table_shape_and_summary(self, tmp_path):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5,8",
                   "--replicates", 2, "--seed", 4, "--samples", 250,
                   "--output-dir", sw) == 0
        lines = (sw / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        header = lines[0].split(",")
        assert header[:5] == ["axis", "value", "replicate", "seed",
                              "corr_inferred_true"]
        summary = (sw / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3

    def test_derived_seeds_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert run("sweep", "--axis", "prevalence", "--values", "0.3",
                       "--replicates", 2, "--seed", 21, "--methods", 8,
                       "--samples", 300, "--output-dir", tmp_path / name) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_parallel_matches_sequential(self, tmp_path):
        common = ["sweep", "--axis", "samples", "--values", "120,250",
                  "--replicates", 2, "--seed", 33, "--methods", 8]
        assert run(*common, "--output-dir", tmp_path / "seq") == 0
        assert run(*common, "--jobs", 2, "--output-dir", tmp_path / "par") == 0
        assert (tmp_path / "seq" / "sweep.csv").read_bytes() == \
            (tmp_path / "par" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 8, [3]),   # no more workers than tasks
        (2, 8, [2]),
        (64, 2, [2]),   # no more workers than processors
        (64, 1, []),    # one processor: serial, no pool
        (1, 8, []),
    ])
    def test_jobs_is_an_upper_bound(self, tmp_path, monkeypatch, jobs, cpus, workers):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        common = ["sweep", "--axis", "methods", "--values", "5,8,12",
                  "--replicates", 1, "--seed", 9, "--samples", 200]
        assert run(*common, "--jobs", jobs, "--output-dir", tmp_path / "par") == 0
        assert RecordingPool.workers == workers
        assert run(*common, "--output-dir", tmp_path / "seq") == 0
        for name in ("sweep.csv", "sweep_summary.csv"):
            assert (tmp_path / "seq" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_no_jobs_rejected(self, tmp_path, jobs):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5",
                   "--replicates", 1, "--seed", 1, "--jobs", jobs,
                   "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "--jobs" in manifest["error"]
        assert manifest["outputs"] == []

    def test_too_few_methods_cell_fails(self, tmp_path):
        # the matrix stage needs 4 methods, so a 3-method cell has no estimate
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "3",
                   "--replicates", 3, "--seed", 777,
                   "--output-dir", sw) == 0
        rows = (sw / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            cells = row.split(",")
            assert cells[-1] == "2"
            assert cells[4] == "nan"

    def test_all_failed_cell_summary_is_nan_without_warnings(self, tmp_path):
        sw = tmp_path / "sw"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("sweep", "--axis", "methods", "--values", "3,8",
                       "--replicates", 3, "--seed", 777, "--samples", 250,
                       "--output-dir", sw) == 0
        summary = (sw / "sweep_summary.csv").read_text().splitlines()
        assert summary[1] == "methods,3,3,nan,nan,nan,nan,nan,nan"
        # one of the three 8-method replicates is finite: a mean, no spread
        cells = summary[2].split(",")
        assert cells[5] != "nan" and cells[6] == "nan"

    def test_single_failed_replicate_has_zero_se(self, tmp_path):
        sw = tmp_path / "sw"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("sweep", "--axis", "methods", "--values", "3",
                       "--replicates", 1, "--seed", 777,
                       "--output-dir", sw) == 0
        summary = (sw / "sweep_summary.csv").read_text().splitlines()
        assert summary[1] == "methods,3,1,nan,nan,nan,0,nan,0"

    def test_standard_error_over_finite_replicates(self, tmp_path):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5,6", "--samples", 60,
                   "--rho", 0.5, "--replicates", 12, "--seed", 3, "--output-dir", sw) == 0
        with open(sw / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        with open(sw / "sweep_summary.csv", newline="", encoding="utf-8") as handle:
            summary = list(csv.DictReader(handle))
        finite_counts = []
        for cell in summary:
            for ensemble in ("summa", "woc"):
                x = np.array([float(row[f"{ensemble}_auroc"]) for row in rows
                              if row["value"] == cell["value"]])
                finite = x[~np.isnan(x)]
                finite_counts.append(len(finite))
                expected = finite.std(ddof=1) / np.sqrt(len(finite))
                assert float(cell[f"{ensemble}_se"]) == pytest.approx(expected, rel=1e-12)
        # mixed cells: some replicates declined, more than one did not
        assert finite_counts == [8, 8, 6, 6]

    @pytest.mark.parametrize("axis, value", [
        ("methods", "5.5"), ("samples", "many"), ("prevalence", "half"),
    ])
    def test_bad_axis_value_rejected(self, tmp_path, capsys, axis, value):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", axis, "--values", f"5,{value}",
                   "--replicates", 1, "--seed", 1, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert value in manifest["error"]
        assert manifest["outputs"] == []
        assert not (sw / "sweep.csv").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_replicates_rejected(self, tmp_path, count):
        # a cell without replicates would write a NaN row with a zero standard error
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5",
                   "--replicates", count, "--seed", 1, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "--replicates" in manifest["error"]
        assert manifest["outputs"] == []
        assert not (sw / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--max-iter", 0), ("--tol", -1), ("--tol", "nan")])
    def test_invalid_iteration_controls_rejected(self, tmp_path, flag, value):
        # the library rejects them in every replicate, which a sweep counts as declines
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "8", "--replicates", 2,
                   "--seed", 1, f"{flag}={value}", "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert flag.lstrip("-").replace("-", "_") in manifest["error"]
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("values", ["", ",", " , "])
    def test_explicit_empty_values_rejected(self, tmp_path, values):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", values, "--replicates", 2,
                   "--seed", 1, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "--values" in manifest["error"]
        assert manifest["outputs"] == []

    def test_repeated_value_rejected(self, tmp_path):
        # a repeated value would merge two cells into one summary row, twice
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "8,5,8",
                   "--replicates", 1, "--seed", 3, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "once" in manifest["error"]
        assert not (sw / "sweep.csv").exists()

    def test_invalid_cell_fails_before_any_replicate(self, tmp_path, monkeypatch):
        # the 0.001 cell leaves the positive class empty at N=400
        calls = []
        monkeypatch.setattr(cli, "simulate_ensemble", calls.append)
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "prevalence", "--values", "0.3,0.001",
                   "--samples", 400, "--methods", 12, "--replicates", 20, "--seed", 1,
                   "--output-dir", sw) == 1
        assert calls == []
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "leave one class empty" in manifest["error"]
        assert manifest["outputs"] == []
        assert not (sw / "sweep.csv").exists()

    def test_failure_writes_manifest(self, tmp_path):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5",
                   "--replicates", 1, "--seed", 1, "--rho", 0,
                   "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "prevalence" in manifest["error"]
        assert manifest["outputs"] == []
