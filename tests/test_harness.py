import copy
import math
import pickle
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bma import (
    BmaError,
    DegenerateGeometry,
    MissingGroundTruth,
    NoConvergence,
    OutOfRange,
    ParseError,
    SimScript,
    SimStep,
    TraceRecord,
    evaluate,
    evaluate_height,
    ingest_trace,
    predict_pressure,
    run_trace,
    simulate_trace,
    step,
    write_trace,
)
from bma import EstimatorState, StateEstimate, harness
from bma import estimator
from bma.estimator import balance_pressure, equilibrium, indent, reconstruct
import oracles


def basic_script(noise=0.0):
    return SimScript(
        steps=(
            SimStep(0.3e-6, 0.0, 0.4),
            SimStep(0.5e-6, 0.2, 0.4),
            SimStep(0.5e-6, 0.45, 0.4),
            SimStep(0.8e-6, 0.3, 0.4),
            SimStep(0.8e-6, 0.0, 0.4),
        ),
        sample_period=0.01,
        noise_pa=noise,
    )


def nine_digits(x, unit=1.0):
    """x as its trace cell reads back: x / unit at 9 significant digits, times unit."""
    return float(f"{x / unit:.9g}") * unit


# None or finite; an indentation in mm stays finite
TRUTH = st.one_of(st.none(), st.floats(-1e300, 1e300))


@st.composite
def trace_records(draw):
    """Records at any timestamps, sorted or not, finite nonnegative volumes,
    any pressure, and each truth cell None or finite on its own."""
    times = draw(st.lists(st.floats(), max_size=6))
    if draw(st.booleans()):
        times.sort()
    return [TraceRecord(t, draw(st.floats(0.0, 1e300)), draw(st.floats()), draw(TRUTH),
                        draw(TRUTH)) for t in times]


# (kind, row, k): a byte inserted at offset k of the row, a blank line before
# it, a 40 000-character cell inserted as its cell k, its cell k dropped, or
# the row swapped with row k; each index is taken modulo what it indexes
CSV_MUTATION = st.tuples(st.sampled_from([b"\xff", b"\x00", b"\r", "blank", "long", "drop",
                                          "swap"]),
                         st.integers(0, 99), st.integers(0, 99))


def mutate_csv(data: bytes, mutations) -> bytes:
    """data with each (kind, row, k) of `CSV_MUTATION` applied in turn."""
    rows = data.split(b"\n")
    for kind, i, k in mutations:
        i %= len(rows)
        cells = rows[i].split(b",")
        if kind == "blank":
            rows.insert(i, b"")
        elif kind == "swap":
            k %= len(rows)
            rows[i], rows[k] = rows[k], rows[i]
        elif kind == "long":
            cells.insert(k % (len(cells) + 1), b"x" * 40_000)
            rows[i] = b",".join(cells)
        elif kind == "drop":
            del cells[k % len(cells)]
            rows[i] = b",".join(cells)
        else:
            k %= len(rows[i]) + 1
            rows[i] = rows[i][:k] + kind + rows[i][k:]
    return b"\n".join(rows)


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "t_s,volume_ml,pressure_pa\n0.0,0.3,11000\n0.01,0.31,11050\n0.02,0.32,11100\n")
        records = ingest_trace(path)
        assert len(records) == 3
        assert records[0].v_f == pytest.approx(0.3e-6)
        assert not records[0].has_truth

    def test_negative_volume(self, tmp_path):
        path = tmp_path / "trace.csv"
        for bad in ("-1", "nan", "inf", "-inf"):
            path.write_text(f"t_s,volume_ml,pressure_pa\n0.0,0.3,11000\n0.01,{bad},11050\n")
            with pytest.raises(ParseError) as exc_info:
                ingest_trace(path)
            assert exc_info.value.line == 3

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,volume_ml,pressure_pa\n0.0,0.3,11000\n0.0,0.3,11000\n")
        with pytest.raises(ParseError, match="^line 3: timestamp 0.0 not greater") as exc_info:
            ingest_trace(path)
        assert exc_info.value.line == 3
        # a non-finite timestamp would defeat the monotone check
        for bad in ("nan", "inf"):
            path.write_text(
                f"t_s,volume_ml,pressure_pa\n0,0.3,11000\n{bad},0.3,11000\n0,0.3,11000\n")
            with pytest.raises(ParseError) as exc_info:
                ingest_trace(path)
            assert exc_info.value.line == 3

    def test_parse_error_survives_pickle_and_copy(self):
        error = ParseError("bad cell", line=3)
        for rebuilt in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
            assert (type(rebuilt), str(rebuilt), rebuilt.line) == (
                ParseError, "line 3: bad cell", 3)

    def test_truth_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "t_s,volume_ml,pressure_pa,force_n,indent_mm\n0.0,0.3,11000,0.2,1.5\n")
        rec = ingest_trace(path)[0]
        assert rec.f_true == 0.2
        assert rec.h2_true == pytest.approx(1.5e-3)
        assert rec.has_truth

    @pytest.mark.parametrize("truth", ["nan,1.0", "inf,1.0", "-inf,", "0.1,nan", "0.1,-inf",
                                       ",inf"])
    def test_nonfinite_truth_names_line(self, tmp_path, truth):
        path = tmp_path / "t.csv"
        path.write_text("t_s,volume_ml,pressure_pa,force_n,indent_mm\n"
                        f"0.0,0.4,9000,0.1,1.0\n0.01,0.4,9000,{truth}\n")
        with pytest.raises(ParseError, match="non-finite") as exc_info:
            ingest_trace(path)
        assert exc_info.value.line == 3

    def test_empty_truth_cell_is_no_truth(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_s,volume_ml,pressure_pa,force_n,indent_mm\n0.0,0.4,9000,,1.0\n"
                        "0.01,0.4,9000,0.2,\n")
        first, second = ingest_trace(path)
        assert (first.f_true, first.h2_true) == (None, pytest.approx(1e-3))
        assert (second.f_true, second.h2_true) == (0.2, None)
        assert not first.has_truth and not second.has_truth

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,vol\n0,1\n")
        with pytest.raises(ParseError):
            ingest_trace(path)

    @pytest.mark.parametrize("row", [
        "x,0.4,9000,,", "0.01,x,9000,,", "0.01,0.4,x,,", "0.01,0.4,9000,x,",
        "0.01,0.4,9000,0.1,x", "0.01,0.4",
    ])
    def test_unparsable_cell_names_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text("t_s,volume_ml,pressure_pa,force_n,indent_mm\n"
                        f"0.0,0.4,9000,,\n{row}\n")
        with pytest.raises(ParseError) as exc_info:
            ingest_trace(path)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize("row, missing", [
        ("0.01,0.5", "pressure_pa"), ("0.01", "volume_ml")])
    def test_short_row_names_the_missing_cell(self, tmp_path, row, missing):
        # a missing cell used to read as float()'s TypeError on None
        path = tmp_path / "t.csv"
        path.write_text(f"t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n{row}\n")
        with pytest.raises(ParseError, match=f"^line 3: missing {missing}$"):
            ingest_trace(path)

    @pytest.mark.parametrize("read, header, row, short", [
        (ingest_trace, "t_s,volume_ml,pressure_pa", "0.0,0.4,{}",
         "could not convert string to float: 'x'"),
        (harness.read_calibration, "volume_ml,height_mm,phase", "0.5,{},inflate",
         "could not convert string to float: 'x'"),
        (harness.read_calibration, "volume_ml,height_mm,phase", "0.5,4.0,{}",
         "unknown phase 'x'"),
    ], ids=["pressure", "height", "phase"])
    def test_long_cell_is_cut_in_the_refusal(self, tmp_path, read, header, row, short):
        # a cell under csv's field limit used to be quoted whole; a short one
        # keeps the text it had, float()'s own message or the phase's repr
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{row.format('x')}\n")
        with pytest.raises(ParseError, match=f"^line 2: {short}$"):
            read(path)
        path.write_text(f"{header}\n{row.format('x' * 100_000)}\n")
        with pytest.raises(ParseError) as exc:
            read(path)
        prefix, quoted = str(exc.value).split(" '")
        assert f"{prefix} 'x'" == f"line 2: {short}" and quoted == "xxxxxxxxxxxx...xxxxxxxxxxxxx'"

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        # like csv.DictReader: error lines count the rows read, not blank lines
        path = tmp_path / "t.csv"
        path.write_text("t_s,volume_ml,pressure_pa\n\n0.0,0.4,9000\n\n\n0.01,0.4\n")
        with pytest.raises(ParseError) as exc_info:
            ingest_trace(path)
        assert exc_info.value.line == 3
        path.write_text("t_s,volume_ml,pressure_pa\r\n0.0,0.4,9000\r\n\r\n0.01,0.4,9100\r\n")
        assert [r.p for r in ingest_trace(path)] == [9000.0, 9100.0]

    def test_columns_found_by_name(self, tmp_path):
        # any column order, extra columns ignored, a repeated name means its
        # last column, and a short row leaves the truth columns unset
        path = tmp_path / "t.csv"
        path.write_text("indent_mm,pressure_pa,x,volume_ml,t_s,force_n,t_s\n"
                        "1.5,9000,7,0.4,-1,0.2,0.0\n"
                        ",9100,7,0.4,-1,,0.01\n"
                        "2.0,9200,7,0.4,-1,0.3,0.02,extra\n")
        recs = ingest_trace(path)
        assert [r.t for r in recs] == [0.0, 0.01, 0.02]
        assert [r.p for r in recs] == [9000.0, 9100.0, 9200.0]
        assert [r.f_true for r in recs] == [0.2, None, 0.3]
        assert [r.has_truth for r in recs] == [True, False, True]
        path.write_text("t_s,volume_ml,pressure_pa,force_n,indent_mm\n0.0,0.4,9000,0.2\n")
        rec = ingest_trace(path)[0]
        assert (rec.f_true, rec.h2_true) == (0.2, None)

    def test_round_trip_9_digits(self, tmp_path):
        records = [
            TraceRecord(t=0.123456789, v_f=0.456789123e-6, p=11234.5678,
                        f_true=0.234567891, h2_true=1.23456789e-3),
            TraceRecord(t=1.123456789, v_f=0.556789123e-6, p=12234.5678,
                        f_true=0.334567891, h2_true=2.23456789e-3),
        ]
        path = tmp_path / "trace.csv"
        write_trace(path, records)
        back = ingest_trace(path)
        for a, b in zip(records, back):
            assert b.t == pytest.approx(a.t, rel=1e-9)
            assert b.v_f == pytest.approx(a.v_f, rel=1e-9)
            assert b.p == pytest.approx(a.p, rel=1e-9)
            assert b.f_true == pytest.approx(a.f_true, rel=1e-9)
            assert b.h2_true == pytest.approx(a.h2_true, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(records=trace_records())
    # partial truth beside no truth: write_trace used to drop the force column
    @example(records=[TraceRecord(0.0, 0.3e-6, 1e4, f_true=0.2),
                      TraceRecord(0.01, 0.3e-6, 1e4)])
    def test_write_then_ingest_rounds_to_9_digits(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_trace(path, records)
        times = [nine_digits(r.t) for r in records]
        # the first line whose timestamp is non-finite or not after the last one
        for line, (prev, t) in enumerate(zip([-math.inf, *times], times), start=2):
            if not math.isfinite(t):
                with pytest.raises(ParseError) as exc_info:
                    ingest_trace(path)
                assert exc_info.value.line == line
                return
            if t <= prev:
                with pytest.raises(ParseError, match=f"^line {line}: ") as exc_info:
                    ingest_trace(path)
                assert exc_info.value.line == line
                return
        want = [TraceRecord(
            t, nine_digits(r.v_f, harness.ML_TO_M3), nine_digits(r.p),
            None if r.f_true is None else nine_digits(r.f_true),
            None if r.h2_true is None else nine_digits(r.h2_true, harness.MM_TO_M),
        ) for t, r in zip(times, records)]
        # repr: a NaN pressure equals itself, and -0.0 differs from 0.0
        assert repr(ingest_trace(path)) == repr(want)


FLAG_NAMES = ["step_error", "DegenerateGeometry", "h2_clamped", "h2_prev_clamped",
              "nonpositive_pressure", "force_exceeds_bound"]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def old_trace_cells(r):
    """A record's t, volume and pressure as f-string cells at 9 digits."""
    return [f"{r.t:.9g}", f"{r.v_f / harness.ML_TO_M3:.9g}", f"{r.p:.9g}"]


def estimates_the_old_way(records, estimates):
    """The estimates file as nine f-string cells per row through csv.writer."""
    return oracles.csv_writer_bytes(
        (*harness.TRACE_COLUMNS, "h1_mm", "h2_mm", "h3_mm", "force_n", "p_hat_pa", "flags"),
        (old_trace_cells(rec) + [
            f"{est.h1 / harness.MM_TO_M:.9g}", f"{est.h2 / harness.MM_TO_M:.9g}",
            f"{est.h3 / harness.MM_TO_M:.9g}", f"{est.force:.9g}", f"{est.p_hat:.9g}",
            "|".join(sorted(est.flags))] for rec, est in zip(records, estimates)))


def trace_the_old_way(records):
    """The trace file as f-string cells through csv.writer; truth columns if any truth."""
    if all(r.f_true is None and r.h2_true is None for r in records):
        return oracles.csv_writer_bytes(harness.TRACE_COLUMNS, map(old_trace_cells, records))
    return oracles.csv_writer_bytes((*harness.TRACE_COLUMNS, "force_n", "indent_mm"), (
        old_trace_cells(r) + [f"{r.f_true:.9g}" if r.f_true is not None else "",
                              f"{r.h2_true / harness.MM_TO_M:.9g}" if r.h2_true is not None
                              else ""] for r in records))


class TestWriteTrace:
    @pytest.mark.parametrize("truth, header", [
        ([(None, None)] * 3, "t_s,volume_ml,pressure_pa"),
        ([(0.2, None), (None, None), (None, 1.5e-3)],
         "t_s,volume_ml,pressure_pa,force_n,indent_mm"),
        ([(0.0, 0.0), (-0.0, 2.5e-3), (0.45, 1.23456789e-3)],
         "t_s,volume_ml,pressure_pa,force_n,indent_mm"),
    ], ids=["no_truth", "partial_truth", "full_truth"])
    def test_bytes_of_each_layout(self, tmp_path, truth, header):
        records = [TraceRecord(0.01 * i, 0.3e-6 + 1e-8 * i, 1e4 - i, f, h)
                   for i, (f, h) in enumerate(truth)]
        path = tmp_path / "trace.csv"
        write_trace(path, records)
        assert path.read_bytes() == trace_the_old_way(records)
        assert path.read_text().startswith(header + "\n")

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(st.builds(
        TraceRecord, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, st.none() | ANY_FLOAT,
        st.none() | ANY_FLOAT), max_size=8))
    def test_bytes_of_any_values(self, tmp_path_factory, records):
        # NaN, +-inf, -0.0 and subnormal cells alike, each truth cell None or a float
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_trace(path, records)
        assert path.read_bytes() == trace_the_old_way(records)


class TestWriteEstimates:
    def test_bytes_of_a_run(self, cfg, tmp_path):
        # free, contact, clamped, null (two flags) and negative-pressure rows
        records = simulate_trace(contact_script(), cfg, seed=3)
        records += [TraceRecord(10.0, 0.5e-6, -300.0), TraceRecord(10.01, 0.05e-6, 1e4),
                    TraceRecord(10.02, 5e-6, 1e4), TraceRecord(10.03, 0.5e-6, math.nan)]
        estimates = run_trace(records, cfg)
        flags = {len(est.flags) for est in estimates}
        assert {0, 1, 2} <= flags and any(est.is_null for est in estimates)
        assert any(est.force < 0 for est in estimates)
        path = tmp_path / "est.csv"
        harness.write_estimates(path, records, estimates)
        assert path.read_bytes() == estimates_the_old_way(records, estimates)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.tuples(*[ANY_FLOAT] * 3), st.tuples(*[ANY_FLOAT] * 5),
                                   st.frozensets(st.sampled_from(FLAG_NAMES), max_size=3)),
                         max_size=8))
    def test_bytes_of_any_values(self, tmp_path_factory, rows):
        # negative, signed-zero, subnormal, huge and non-finite cells alike
        records = [TraceRecord(*r) for r, _, _ in rows]
        estimates = [StateEstimate(*e, flags) for _, e, flags in rows]
        path = tmp_path_factory.mktemp("est") / "est.csv"
        harness.write_estimates(path, records, estimates)
        assert path.read_bytes() == estimates_the_old_way(records, estimates)


class TestReadRows:
    def test_cells_in_the_order_asked(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("b,a,c\n1,2,3\n4,5\n")
        assert list(harness.read_rows(path, ("a", "b"), ("d", "c"))) == [
            (2, ("2", "1", None, "3")), (3, ("5", "4", None, None))]
        assert list(harness.read_rows(path, ("c",))) == [(2, ("3",)), (3, (None,))]

    def test_missing_required_column(self, tmp_path):
        # the refusal names only the columns the header lacks
        path = tmp_path / "t.csv"
        for text, missing in (("b,c\n1,2\n", r"\['a'\]"), ("", r"\['a', 'b'\]"),
                              ("\n\nc\n", r"\['a', 'b'\]")):
            path.write_text(text)
            with pytest.raises(ParseError, match=f"missing required columns {missing}$") as exc:
                list(harness.read_rows(path, ("b", "a")))
            assert exc.value.line == 1

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\n", b"\r\n\r\n", b"\xef\xbb\xbf\n"],
                             ids=["bom", "blank", "crlf-blanks", "bom-blank"])
    def test_byte_order_mark_and_blank_lines_before_header(self, tmp_path, prefix):
        # Excel's "CSV UTF-8" starts with a UTF-8 byte-order mark; neither it
        # nor a blank line is a header cell, and the header stays line 1
        trace = b"t_s,volume_ml,pressure_pa,force_n\n0.0,0.4,9000,\n0.01,0.5,9100,0.1\n"
        calibration = b"volume_ml,height_mm,phase\n0.5,4.0,inflate\n0.6,4.2,deflate\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        for read, text, bad_row in ((ingest_trace, trace, b"0.02,x,9200\n"),
                                    (harness.read_calibration, calibration, b"0.7,x,inflate\n")):
            plain.write_bytes(text)
            marked.write_bytes(prefix + text)
            assert read(marked) == read(plain) and len(read(plain)) == 2
            marked.write_bytes(prefix + text + bad_row)
            with pytest.raises(ParseError) as exc:
                read(marked)
            assert exc.value.line == 4

    @pytest.mark.parametrize("newline", [b"\n", b"\r"], ids=["lf", "cr"])
    @pytest.mark.parametrize("rows_before", [1, 800], ids=["row3", "past-8kb"])
    def test_undecodable_byte_names_its_row(self, tmp_path, rows_before, newline):
        # the text layer decodes 8 KB ahead of the rows csv has read; the
        # refusal names the row of the byte, counted as every other refusal
        # counts rows (no byte-order mark, no blank line), and the byte's offset
        path = tmp_path / "bad.csv"
        for read, header, row in (
                (ingest_trace, b"t_s,volume_ml,pressure_pa", b"%d,0.4,9000"),
                (harness.read_calibration, b"volume_ml,height_mm,phase", b"%d,4.0,inflate")):
            lines = [header, b"", *(row % i for i in range(rows_before)),
                     row % rows_before + b"\xff"]
            data = b"\xef\xbb\xbf" + newline.join(lines) + newline
            offset = len(data) - 2
            assert (offset > 8192) == (rows_before > 1)
            path.write_bytes(data)
            with pytest.raises(ParseError, match=f"^line {rows_before + 2}: byte 0xff at "
                                                 f"offset {offset} is not UTF-8$"):
                read(path)

    @pytest.mark.parametrize("head, refusal", [
        (b"t_s,volume_ml,pressure_pa\n0.0,0.4," + b"9" * 140_000 + b"\n",
         "line 2: field larger than field limit"),
        (b"t_s,volume_ml\n0.0,0.4\n", r"line 1: missing required columns \['pressure_pa'\]$"),
        (b"t_s,volume_ml\n" + b"0.0,0.4\n" * 2000, r"line 1: missing required columns"),
    ], ids=["oversized-row", "header", "header-past-8kb"])
    def test_refusal_met_first_comes_before_an_undecodable_byte(self, tmp_path, head, refusal):
        # the refusal of an oversized row or of the header does not depend on
        # whether the text layer decoded the byte's chunk before csv met it
        path = tmp_path / "bad.csv"
        path.write_bytes(head + b"0.01,0.4,9\xff00\n")
        with pytest.raises(ParseError, match=f"^{refusal}"):
            ingest_trace(path)

    @pytest.mark.parametrize("filler", [0, 1000], ids=["first-8kb", "past-8kb"])
    @pytest.mark.parametrize("read, text, fault", [
        (ingest_trace, b"t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n0.01,-0.5,9000\n"
         b"0.02,0.4,9000\n", "negative volume -0.5"),
        (harness.read_calibration, b"volume_ml,height_mm,phase\n0.1,3.0,inflate\n"
         b"0.2,3.0,inflat\n0.3,3.0,inflate\n", "unknown phase 'inflat'"),
    ], ids=["trace", "calibration"])
    def test_callers_refusal_of_an_earlier_row_comes_first(self, tmp_path, read, text, fault,
                                                           filler):
        # row 3's fault is refused before the byte of a later row, whether the
        # text layer decodes the byte's chunk before csv reads row 3 or after
        last = text.splitlines(keepends=True)[-1]
        data = text + last * filler + b"\xff" + last
        assert (len(data) > 8192) == (filler > 0)
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^line 3: {fault}$"):
            read(path)

    def test_valid_non_ascii_reads(self, tmp_path):
        # UTF-8 that is not ASCII, in the header and in a column no caller
        # reads, is not a byte to refuse
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        for read, header, rows in (
                (ingest_trace, b"t_s,volume_ml,pressure_pa", [b"0.0,0.4,9000", b"0.01,0.5,9100"]),
                (harness.read_calibration, b"volume_ml,height_mm,phase",
                 [b"0.5,4.0,inflate", b"0.6,4.2,deflate"])):
            plain.write_bytes(b"\n".join([header, *rows, b""]))
            marked.write_bytes(b"\n".join([header + b",note \xc2\xb5m",
                                           *(row + b",5 \xc2\xb5m" for row in rows), b""]))
            assert read(marked) == read(plain) and len(read(plain)) == 2

    @pytest.mark.parametrize("header", [b"t_s,volume_ml,pressure_pa,n\xffte",
                                        b"t_s,vol\xffume_ml,pressure_pa"],
                             ids=["extra-column", "required-column"])
    def test_undecodable_byte_in_header(self, tmp_path, header):
        # refused at line 1 before the header's columns are checked
        path = tmp_path / "bad.csv"
        path.write_bytes(header + b"\n0.0,0.4,9000\n")
        offset = header.index(b"\xff")
        with pytest.raises(ParseError, match=f"^line 1: byte 0xff at offset {offset} is not "
                                             "UTF-8$"):
            ingest_trace(path)

    def test_file_that_changes_as_it_is_read_is_refused(self, tmp_path):
        # the text layer has decoded the whole file before row 3 is read, and
        # the bytes reread for the offset no longer hold the byte
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n0.01,0.4,9\xff00\n")
        rows = harness.read_rows(path, harness.TRACE_COLUMNS)
        assert next(rows) == (2, ("0.0", "0.4", "9000"))
        path.write_bytes(b"t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n0.01,0.4,9000\n")
        with pytest.raises(ParseError, match="^line 3: byte that is not UTF-8 in a file that "
                                             "changed as it was read$"):
            next(rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mutations=st.lists(CSV_MUTATION, min_size=1, max_size=3))
    # a long phase or pressure cell used to be quoted whole in the refusal
    @example(mutations=[("long", 1, 2)])
    @pytest.mark.parametrize("read, text", [
        (ingest_trace, b"t_s,volume_ml,pressure_pa,force_n,indent_mm\n0.0,0.4,9000,,\n"
         b"0.01,0.5,9100,0.1,1.0\n0.02,0.6,9200,0.2,1.5\n"),
        (harness.read_calibration, b"volume_ml,height_mm,phase\n0.5,4.0,inflate\n"
         b"0.6,4.2,inflate\n0.6,4.1,deflate\n"),
    ], ids=["trace", "calibration"])
    def test_mutated_file_reads_or_refuses_on_one_short_line(self, tmp_path_factory, read,
                                                             text, mutations):
        path = tmp_path_factory.mktemp("mutant") / "mutant.csv"
        path.write_bytes(mutate_csv(text, mutations))
        try:
            read(path)
        except ParseError as exc:
            message = str(exc)
            assert len(message) <= 200 and len(message.splitlines()) == 1
            message.encode()   # no lone surrogate, which a UTF-8 stderr cannot print


class TestReadCalibration:
    HEADER = "volume_ml,height_mm,phase\n"

    def test_rows_in_si(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "0.5,4.0,inflate\n0.5,4.2, deflate \n")
        assert harness.read_calibration(path) == [
            (0.5 * harness.ML_TO_M3, 4.0 * harness.MM_TO_M, "inflate"),
            (0.5 * harness.ML_TO_M3, 4.2 * harness.MM_TO_M, "deflate")]

    def test_blank_lines_not_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\n0.5,4.0,inflate\n\n\n0.6,x,inflate\n")
        with pytest.raises(ParseError) as exc:
            harness.read_calibration(path)
        assert exc.value.line == 3

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "0.5,4.0,inflate\n0.6,4.1\n")
        with pytest.raises(ParseError, match="unknown phase ''") as exc:
            harness.read_calibration(path)
        assert exc.value.line == 3

    def test_repeated_column_means_its_last(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("volume_ml,height_mm,phase,height_mm\n0.5,x,inflate,4.0\n")
        assert harness.read_calibration(path) == [
            (0.5 * harness.ML_TO_M3, 4.0 * harness.MM_TO_M, "inflate")]


class TestSimulate:
    def test_no_force_matches_prediction(self, cfg):
        script = SimScript(steps=(SimStep(0.4e-6, 0.0, 0.1),), sample_period=0.01)
        records = simulate_trace(script, cfg, seed=0)
        p_hat = predict_pressure(0.4e-6, cfg)
        for rec in records:
            assert rec.p == pytest.approx(p_hat, rel=1e-12)

    def test_seed_determinism(self, cfg):
        a = simulate_trace(basic_script(noise=50.0), cfg, seed=42)
        b = simulate_trace(basic_script(noise=50.0), cfg, seed=42)
        assert a == b
        c = simulate_trace(basic_script(noise=50.0), cfg, seed=43)
        assert a != c

    def test_closed_loop_force_recovery(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        estimates = run_trace(records, cfg)
        for rec, est in zip(records, estimates):
            if rec.f_true != 0:
                assert est.force == pytest.approx(rec.f_true, rel=1e-6)
            assert est.h2 == rec.h2_true

    def test_noise_is_scalar_draws_in_order(self, cfg):
        # one draw per hold gives the values that one scalar draw per sample
        # from the same seed gives, added to the noise-free pressures
        noisy = simulate_trace(contact_script(), cfg, seed=9)
        clean = simulate_trace(replace(contact_script(), noise_pa=0.0), cfg, seed=9)
        rng = np.random.default_rng(9)
        assert len(noisy) == len(clean) > len(contact_script().steps)
        for rec, ref in zip(noisy, clean):
            assert type(rec.p) is float
            assert rec.p == ref.p + rng.normal(0.0, 20.0)
            assert (rec.t, rec.v_f, rec.f_true, rec.h2_true) == (
                ref.t, ref.v_f, ref.f_true, ref.h2_true)

    def test_rejects_below_model_volume(self, cfg):
        script = SimScript(steps=(SimStep(0.05e-6, 0.0, 0.1),), sample_period=0.01)
        with pytest.raises(Exception):
            simulate_trace(script, cfg, seed=0)

    @pytest.mark.parametrize("v_ml, force, error", [
        (0.5, 0.55, None), (0.35, 1.0, None),
        (0.35, 5.0, NoConvergence), (0.35, 100.0, DegenerateGeometry)])
    def test_numpy_scalar_script_as_float_script(self, cfg, v_ml, force, error):
        # a script of numpy scalars gives the float script's records, repr for
        # repr, or its refusal, with no numpy warning on the way
        script = SimScript((SimStep(0.3e-6, 0.0, 0.05), SimStep(v_ml * 1e-6, force, 0.05)),
                           sample_period=0.01, noise_pa=2.0)
        numpy_script = SimScript(
            tuple(SimStep(*map(np.float64, (s.v_f, s.force, s.hold))) for s in script.steps),
            np.float64(script.sample_period), np.float64(script.noise_pa))

        def outcome(script):
            try:
                return simulate_trace(script, cfg, seed=1)
            except BmaError as exc:
                return type(exc), str(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = outcome(numpy_script), outcome(script)
        assert repr(got) == repr(want)
        if error:
            assert want[0] is error
        else:
            assert len(want) == 10

    def test_held_records_match_equilibrium_closed_form(self, cfg):
        # a record whose volume and indentation equal the previous record's is
        # a fixed point of the update: the closed form from one reconstruction
        # gives its pressure and its scripted force (the closed-loop
        # acceptance script), and the package's closed form is the oracle's
        script = SimScript(steps=(SimStep(0.30e-6, 0.00, 20.0),
                                  SimStep(0.50e-6, 0.20, 20.0),
                                  SimStep(0.50e-6, 0.55, 20.0),
                                  SimStep(0.80e-6, 0.35, 20.0),
                                  SimStep(0.80e-6, 0.00, 20.0)),
                           sample_period=0.01)
        records = simulate_trace(script, cfg, seed=0)
        held = [r for prev, r in zip(records, records[1:])
                if (r.v_f, r.h2_true) == (prev.v_f, prev.h2_true)]
        assert len(held) > len(records) // 2 and any(r.f_true > 0 for r in held)
        for r in held:
            p, force = equilibrium(r.v_f, r.h2_true, cfg)
            assert (p, force) == oracles.equilibrium(r.v_f, r.h2_true, cfg)
            assert abs(p - r.p) <= 1e-15 * r.p
            assert abs(force - r.f_true) <= 2e-15


class TestHoldCheck:
    """Each hold is checked on the equilibrium curve before any sample."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(v_ml=st.floats(0.30, 0.95), force=st.floats(0.0, 0.5, exclude_min=True))
    def test_accepts_what_the_update_from_rest_settles_on(self, cfg, v_ml, force):
        v_f = v_ml * harness.ML_TO_M3
        last = oracles.from_rest_converges(v_f, force, cfg)
        if last is None:
            return
        h2 = harness._hold_equilibrium(v_f, force, cfg)
        # A first step from rest below the 1e-10 m stopping step ends the
        # iteration at once, which says nothing of where the hold rests: short
        # of contact onset the update climbs away from h2 = 0 by such steps.
        # Otherwise compare with the iteration run on to 1e-15 m steps: the
        # 1e-10 m stop alone leaves up to about 2e-9 m where dPhi/dh2 is near 0.95.
        if last > 1e-10:
            limit = oracles.from_rest_converges(v_f, force, cfg, tol=1e-15, cap=10_000)
            assert abs(h2 - limit) <= 1e-9

    def test_slow_hold_simulates(self, cfg):
        # the update from rest approaches this equilibrium too slowly to settle
        # within 100 iterations (dPhi/dh2 = 0.87), but it does contract there
        v_f, force = 0.70e-6, 0.027
        assert oracles.from_rest_converges(v_f, force, cfg) is None
        h2 = harness._hold_equilibrium(v_f, force, cfg)
        assert equilibrium(v_f, h2, cfg)[1] == pytest.approx(force, rel=1e-9)
        records = simulate_trace(SimScript((SimStep(v_f, force, 0.5),), 0.01), cfg, seed=0)
        assert len(records) == 50
        assert all(math.isfinite(r.p) and math.isfinite(r.h2_true) for r in records)
        # the emitted indentation closes in on the equilibrium, by 13 % a sample
        assert 0 < h2 - records[-1].h2_true < 1e-2 * h2

    @pytest.mark.parametrize("v_ml, force", [(0.35, 100.0), (0.20, 0.1)])
    def test_force_out_of_reach_names_volume_and_force(self, cfg, v_ml, force):
        # no indentation balances 100 N at 0.35 ml before reconstruct refuses
        # the flat membrane, and at 0.20 ml no indentation pushes at all
        v_f = v_ml * harness.ML_TO_M3
        with pytest.raises(DegenerateGeometry, match=f"F={force} at V_f={v_f}"):
            harness._hold_equilibrium(v_f, force, cfg)

    def test_unstable_equilibrium_refused(self, cfg):
        # 5 N at 0.35 ml balances at 0.95 h1, near the flat-membrane end,
        # where the update overshoots: dPhi/dh2 is about -6.2 there
        script = SimScript(steps=(SimStep(0.35e-6, 5.0, 0.1),), sample_period=0.01)
        with pytest.raises(NoConvergence, match="F=5.0"):
            simulate_trace(script, cfg, seed=0)

    @pytest.mark.parametrize("v_ml, force, error", [(0.05, 0.1, DegenerateGeometry),
                                                    (1.5, 0.0, OutOfRange),
                                                    (0.35, 5.0, NoConvergence)])
    def test_refused_hold_names_step_in_file_units(self, cfg, v_ml, force, error):
        # the hold check's error keeps its class and its SI message, after the
        # step's index, volume_ml and force_n
        v_f = v_ml * harness.ML_TO_M3
        with pytest.raises(error) as hold:
            harness._hold_equilibrium(v_f, force, cfg)
        script = SimScript((SimStep(0.5e-6, 0.1, 0.1), SimStep(v_f, force, 0.1)), 0.01)
        with pytest.raises(error) as sim:
            simulate_trace(script, cfg, seed=0)
        assert type(sim.value) is error
        assert str(sim.value) == f"step 1 (volume_ml {v_ml:g}, force_n {force:g}): {hold.value}"

    @pytest.mark.parametrize("force", [0.0, -0.1, 1e-285, 1e-12])
    def test_no_push_needs_no_solve(self, cfg, monkeypatch, force):
        # A hold with F <= 0 rests at h2 = 0, as the update from rest does at
        # once, and so does a push that moves h2 off rest by at most 1e-13 m.
        # Near rest the curve is rounding: below about 1e-18 m, h3 = h1 - h2
        # rounds to h1, so the center shift is 0 and F(h2) > 0 even short of
        # contact onset, and a solve for 1e-285 N ends on a root there that
        # the stability test refuses
        def no_solve(*args):
            raise AssertionError("solved a hold without a push")

        monkeypatch.setattr(harness, "equilibrium", no_solve)
        assert harness._hold_equilibrium(0.5e-6, force, cfg) == 0.0

    def test_softening_config_pins_todays_verdicts(self, cfg_a):
        # On config A at 0.575 ml, F_eq - 0.35 N changes sign three times, so
        # the curve is not one dip and one rise; the bracket closes on the
        # first crossing at 0.35 N, and 0.45 N is refused as unstable
        v_f = 0.575e-6
        h1 = reconstruct(v_f, 0.0, cfg_a).h1
        grid = np.linspace(0.0, h1, 4001)[:-1].tolist()
        signs = []
        for h2 in grid:
            try:
                signs.append(equilibrium(v_f, h2, cfg_a)[1] > 0.35)
            except DegenerateGeometry:
                signs.append(None)
        crossings = [(grid[i - 1] + grid[i]) / 2 * 1e3 for i in range(1, len(grid))
                     if None not in signs[i - 1:i + 1] and signs[i - 1] != signs[i]]
        assert crossings == pytest.approx([4.197, 4.557, 4.668], abs=2e-3)
        for force, h2_mm in ((0.35, 4.197), (0.40, 4.335)):
            assert harness._hold_equilibrium(v_f, force, cfg_a) * 1e3 == pytest.approx(
                h2_mm, abs=5e-4)
        with pytest.raises(NoConvergence, match="F=0.45"):
            harness._hold_equilibrium(v_f, 0.45, cfg_a)


def contact_script():
    return SimScript(
        steps=(
            SimStep(0.6e-6, 0.1, 0.2),
            SimStep(0.6e-6, 0.6, 0.2),
            SimStep(0.35e-6, 0.25, 0.2),
            SimStep(0.9e-6, 0.4, 0.2),
        ),
        sample_period=0.01,
        noise_pa=20.0,
    )


def reference_simulate(script, cfg, seed):
    # the simulator loop composed as balance_pressure(reconstruct(...)) + step
    rng = np.random.default_rng(seed)
    records, state, t = [], EstimatorState(), 0.0
    for s in script.steps:
        for _ in range(max(1, round(s.hold / script.sample_period))):
            p = balance_pressure(reconstruct(s.v_f, state.h2_prev, cfg), s.v_f, s.force)
            est, state = step(state, s.v_f, p, cfg)
            if script.noise_pa > 0:
                p += rng.normal(0.0, script.noise_pa)
            records.append(TraceRecord(t=t, v_f=s.v_f, p=p, f_true=s.force, h2_true=est.h2))
            t += script.sample_period
    return records


class TestSimulateReconstructsOnce:
    @pytest.mark.parametrize("script", [basic_script(noise=50.0), contact_script()])
    def test_matches_step_composition(self, cfg, script):
        assert repr(simulate_trace(script, cfg, seed=4)) == repr(
            reference_simulate(script, cfg, seed=4))

    def test_one_reconstruction_per_update(self, cfg, monkeypatch):
        built, handed = [], []

        def counting_reconstruct(*args):
            built.append(reconstruct(*args))
            return built[-1]

        def recording_indent(g, *args):
            handed.append(g)
            return indent(g, *args)

        def no_step(*args):
            raise AssertionError("the simulator rebuilds through step")

        def checked_hold(*args):
            # the hold checks run before the first sample; count only the
            # emission loop's reconstructions
            h2 = hold_equilibrium(*args)
            built.clear()
            handed.clear()
            return h2

        hold_equilibrium = harness._hold_equilibrium
        monkeypatch.setattr(harness, "reconstruct", counting_reconstruct)
        monkeypatch.setattr(harness, "indent", recording_indent)
        monkeypatch.setattr(harness, "step", no_step)
        monkeypatch.setattr(harness, "_hold_equilibrium", checked_hold)
        records = simulate_trace(contact_script(), cfg, seed=0)
        # every emitted sample builds one reconstruction and hands that same
        # object to the indentation core
        assert len(built) == len(handed) == len(records)
        assert all(a is b for a, b in zip(built, handed))

    def test_never_builds_estimates(self, cfg, monkeypatch):
        # the simulator carries a bare h2, so it builds no estimate
        want = repr(simulate_trace(contact_script(), cfg, seed=0))

        def no_estimate(*args):
            raise AssertionError("the simulator builds an estimate")

        monkeypatch.setattr(estimator, "StateEstimate", no_estimate)
        with pytest.raises(AssertionError):   # the patch does reach step's estimate
            step(EstimatorState(), 0.5e-6, 11000.0, cfg)
        assert repr(simulate_trace(contact_script(), cfg, seed=0)) == want


class TestRunTrace:
    def test_adversarial_never_aborts(self, cfg):
        rng = np.random.default_rng(9)
        records = []
        t = 0.0
        for i in range(300):
            v = rng.uniform(0.02e-6, 1.05e-6)  # includes below-range and beyond-fit
            p = rng.choice([rng.uniform(-5e4, 5e4), rng.uniform(1e8, 1e9), 0.0])
            records.append(TraceRecord(t=t, v_f=v, p=float(p)))
            t += 0.01
        estimates = run_trace(records, cfg)
        assert len(estimates) == 300
        for est in estimates:
            if not est.is_null:
                assert 0.0 <= est.h2 <= est.h1

    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.one_of(st.floats(), st.sampled_from([0.0, 0.5, 1.0, math.nan])),
                st.one_of(st.floats(), st.floats(0.02e-6, 1.05e-6)),
                st.one_of(st.floats(), st.floats(-5e4, 5e4),
                          st.sampled_from([5e-324, 1e154, 1e200, 1.7e308, -1.7e308])),
            ),
            max_size=25,
        ),
        h2_start=st.one_of(st.floats(), st.sampled_from([0.0, -1e-3, math.nan, math.inf,
                                                          -math.inf])),
    )
    def test_arbitrary_floats_never_abort(self, cfg, samples, h2_start):
        # any timestamps, repeated, backward or not finite included: run_trace
        # does not read them, and hands step each record's own pressure
        records = [TraceRecord(t=t, v_f=v, p=p) for t, v, p in samples]
        handed, carried = [], []

        def recording_step(state, v_f, p, cfg):
            handed.append(p)
            est, new = step(state, v_f, p, cfg)
            carried.append((est.is_null, state.h2_prev, new.h2_prev))
            return est, new

        with mock.patch.object(harness, "step", recording_step):
            estimates = run_trace(records, cfg, EstimatorState(h2_prev=h2_start))
        assert len(estimates) == len(records) == len(handed)
        assert all(p is rec.p for rec, p in zip(records, handed))
        for est in estimates:
            if not est.is_null:
                assert 0.0 <= est.h2 <= est.h1
        # a skipped sample keeps the carried state, even a bad starting one;
        # an estimated sample carries a finite, nonnegative indentation on
        for is_null, before, after in carried:
            if is_null:
                assert after == before or math.isnan(before) and math.isnan(after)
            else:
                assert math.isfinite(after) and after >= 0.0

    NULL_FLAGS = [{"nonfinite_input"}, {"below_model_range"},
                  {"step_error", "DegenerateGeometry"}, {"step_error", "OutOfRange"}]
    ESTIMATE_FLAGS = {"force_exceeds_bound", "nonpositive_pressure", "h2_clamped",
                      "h2_prev_clamped"}

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        v_f=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                             10 ** 400, -10 ** 400]),
            st.floats(-1e-3, 0.0999e-6),          # below the 0.1 ml model floor
            st.floats(0.1e-6, 1.0e-6),            # inside the fixture fit's range
            st.floats(1.0001e-6, 1.7e308),        # above the fit's v_max of 1 ml
        ),
        p=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324,
                             10 ** 400, -10 ** 400]),
            st.floats(-1e9, 0.0),
            st.floats(0.0, 1e9),
        ),
        # a float, or ("h1", k): k times the apex height at v_f, at or above it
        # (k mm where the fit has no height at v_f: such a sample is null)
        h2=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, -1e-3, -5e-324, 0.0,
                             10 ** 400, -10 ** 400]),
            st.floats(-1e-2, 2e-2),
            st.tuples(st.just("h1"), st.sampled_from([1.0, 1.0 + 1e-12, 1.5, 10.0])),
        ),
        step_index=st.integers(0, 2 ** 40),
    )
    @example(v_f=1.5e-6, p=11000.0, h2=0.0, step_index=0)          # OutOfRange
    @example(v_f=0.5e-6, p=1.7e308, h2=0.0, step_index=0)          # DegenerateGeometry
    @example(v_f=0.5e-6, p=11000.0, h2=("h1", 1.0), step_index=0)  # restart at h1
    # ints past the float range: two null samples and a restart
    @example(v_f=10 ** 400, p=11000.0, h2=0.0, step_index=0)
    @example(v_f=0.5e-6, p=-10 ** 400, h2=0.0, step_index=0)
    @example(v_f=0.5e-6, p=11000.0, h2=10 ** 400, step_index=0)
    def test_step_is_total(self, cfg, v_f, p, h2, step_index):
        # step decides every sample itself: it raises nothing, a null estimate
        # names one refusal and keeps the carried h2, any other estimate lies
        # in [0, h1] with only the flags of an estimated sample
        if isinstance(h2, tuple):
            inside = cfg.v_min_model <= v_f <= cfg.fit.v_max
            h2 = h2[1] * evaluate_height(cfg.fit, v_f) if inside else h2[1] * 1e-3
        state = EstimatorState(h2_prev=h2, step_index=step_index)
        est, new = step(state, v_f, p, cfg)
        assert new.step_index == step_index + 1
        if est.is_null:
            assert est.flags in self.NULL_FLAGS
            assert all(math.isnan(x) for x in (est.h1, est.h3, est.force, est.p_hat))
            assert new.h2_prev == h2 or math.isnan(new.h2_prev) and math.isnan(h2)
        else:
            assert 0.0 <= est.h2 <= est.h1 and est.h2 == new.h2_prev
            assert est.flags <= self.ESTIMATE_FLAGS
            assert ("h2_prev_clamped" in est.flags) == (not 0.0 <= h2 < est.h1)

    def test_nonfinite_fit_flags_step_error(self, cfg):
        # a finite fit whose height is not a usable positive float must not
        # abort a run (a NaN fit is refused when it is built)
        records = [TraceRecord(t=0.01 * i, v_f=cfg.fit.v_max, p=11000.0) for i in range(3)]
        for coeffs, error in [
            ((-1e-3,) + (0.0,) * 7, "OutOfRange"),            # height <= 0
            ((1e308,) * 8, "OutOfRange"),                     # height overflows to inf
            ((1e200,) + (0.0,) * 7, "DegenerateGeometry"),    # h ** 2 overflows
        ]:
            estimates = run_trace(records, replace(cfg, fit=replace(cfg.fit, coeffs=coeffs)))
            assert len(estimates) == 3
            assert all(est.is_null and est.flags == {"step_error", error}
                       for est in estimates)

class TestEvaluate:
    def test_noise_free_closed_loop(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        report = evaluate(records, cfg)
        assert report.rmse_f <= 1e-6
        assert report.rmse_h2 <= 1e-9  # meters
        assert report.rmse_p is not None and report.rmse_p <= 1e-6
        assert report.n_null == 0

    def test_contact_window(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        report = evaluate(records, cfg, contact_window=(0.4, 1.2))
        assert report.window_rmse_f is not None
        assert report.window_rmse_f <= 1e-6

    @pytest.mark.parametrize("window", [(2.0, 0.5), (math.nan, 1.0), (0.0, math.nan)])
    def test_bad_window_rejected(self, cfg, window):
        records = simulate_trace(basic_script(), cfg, seed=0)
        with pytest.raises(ValueError, match="contact window"):
            evaluate(records, cfg, contact_window=window)

    def test_point_window_accepted(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        t = records[50].t
        report = evaluate(records, cfg, contact_window=(t, t))
        assert report.window_rmse_f is not None

    def test_missing_truth(self, cfg):
        records = [TraceRecord(t=0.0, v_f=0.4e-6, p=11000.0)]
        with pytest.raises(MissingGroundTruth):
            evaluate(records, cfg)

    def test_no_sample_within_the_modeled_volume_range(self, cfg):
        # every sample below 0.1 ml is a null estimate, so no error can be taken
        records = [TraceRecord(0.01 * i, 0.05e-6, 1000.0, 0.0, 0.0) for i in range(3)]
        with pytest.raises(MissingGroundTruth,
                           match="^no samples within the modeled volume range$"):
            evaluate(records, cfg)

    def test_near_zero_force_counts_as_no_contact(self, cfg):
        # a measured zero-force reading is never exactly 0; within
        # NO_CONTACT_FORCE_N it still selects the sample for rmse_p
        records = simulate_trace(basic_script(noise=20.0), cfg, seed=3)
        want = evaluate(records, cfg).rmse_p
        jittered = [replace(r, f_true=(-1e-12, 1e-12)[i % 2]) if r.f_true == 0 else r
                    for i, r in enumerate(records)]
        assert evaluate(jittered, cfg).rmse_p == want
        # a force past the tolerance is contact and leaves the selection
        pushed = [replace(r, f_true=2 * harness.NO_CONTACT_FORCE_N) if r.f_true == 0 else r
                  for r in records]
        assert evaluate(pushed, cfg).rmse_p is None

    def test_noise_raises_error_floor(self, cfg):
        noisy = simulate_trace(basic_script(noise=100.0), cfg, seed=1)
        report = evaluate(noisy, cfg)
        assert report.rmse_f > 1e-6


class TestScriptValidation:
    def test_bad_period(self):
        with pytest.raises(ValueError):
            SimScript(steps=(SimStep(0.4e-6, 0.0, 1.0),), sample_period=0.0)

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            SimScript(steps=(SimStep(0.4e-6, 0.0, -1.0),), sample_period=0.01)

    def test_empty(self):
        with pytest.raises(ValueError):
            SimScript(steps=(), sample_period=0.01)

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise amplitude must be nonnegative"):
            SimScript(steps=(SimStep(0.4e-6, 0.0, 1.0),), sample_period=0.01, noise_pa=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10 ** 400, id="int_past_float")])
    @pytest.mark.parametrize("field", ["v_f", "force", "hold", "sample_period", "noise_pa"])
    def test_nonfinite_rejected(self, field, bad):
        step_values = {"v_f": 0.4e-6, "force": 0.1, "hold": 0.1}
        script_values = {"sample_period": 0.01, "noise_pa": 0.0}
        (step_values if field in step_values else script_values)[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimScript(steps=(SimStep(0.3e-6, 0.0, 0.1), SimStep(**step_values)),
                      **script_values)
