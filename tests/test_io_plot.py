"""Tests for curve file formats and SVG rendering."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliffscale import curve_io
from cliffscale.curves import CurveError, ScalingCurve, aggregate_trials, fit_power_law
from cliffscale.curve_io import curve_to_json, read_curve_csv, write_curve_csv
from cliffscale.svgplot import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH, PlotError, render_svg


def sample_curve(trials=3):
    rng = np.random.default_rng(8)
    records = [
        (n, t, float(2.0 * n**-0.7 + 0.05) * (1 + 0.05 * rng.uniform()))
        for n in (10, 32, 100, 316, 1000)
        for t in range(trials)
    ]
    return aggregate_trials(records, metadata={"task": "demo", "estimator": "lstsq"})


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        curve = sample_curve()
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back.points == curve.points

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_errors_round_trip_as_python_floats(self, tmp_path, dtype):
        errs = (dtype(0.5), dtype(0.1), dtype(5e-30))
        curve = ScalingCurve(points=((3, errs), (4, (2, 0.25))))
        want = ((3, tuple(map(float, errs))), (4, (2.0, 0.25)))
        assert curve.points == want
        assert all(type(e) is float for _, stored in curve.points for e in stored)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        assert path.read_text().splitlines()[1] == f"3,0,{float(errs[0])!r}"
        assert read_curve_csv(path).points == want
        assert json.loads(curve_to_json(curve))["points"] == [
            {"n": n, "errors": list(errs)} for n, errs in want
        ]

    def test_numpy_integer_n_writes_as_int(self, tmp_path):
        # Both writers give a numpy-n curve the bytes of its plain-int twin.
        plain = ScalingCurve(points=((3, (0.5, 2)), (10, (0.25,))), metadata={"d": 3})
        typed = ScalingCurve(points=((np.int64(3), (0.5, 2)), (np.int32(10), (0.25,))), metadata={"d": np.int64(3)})
        assert curve_to_json(typed) == curve_to_json(plain)
        write_curve_csv(plain, tmp_path / "plain.csv")
        write_curve_csv(typed, tmp_path / "typed.csv")
        assert (tmp_path / "typed.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert read_curve_csv(tmp_path / "typed.csv").points == plain.points

    def test_analysis_identical_after_round_trip(self, tmp_path):
        curve = sample_curve()
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        f1, f2 = fit_power_law(curve), fit_power_law(back)
        assert (f1.A, f1.alpha, f1.E, f1.residual) == (f2.A, f2.alpha, f2.E, f2.residual)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("10,0,0.5\n")
        with pytest.raises(CurveError, match=":1:"):
            read_curve_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,trial,error\n10,0,0.5\nporridge,0,0.1\n")
        with pytest.raises(CurveError, match=":3:"):
            read_curve_csv(path)

    def test_negative_error_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,trial,error\n10,0,-0.5\n")
        with pytest.raises(CurveError, match=":2:"):
            read_curve_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CurveError, match="empty"):
            read_curve_csv(path)


# Replacement bytes for one field of a valid file: raw bytes (invalid
# UTF-8 included), text, integers past the int64 range of n, float reprs.
MUTATED_FIELDS = st.one_of(
    st.binary(max_size=12),
    st.text(max_size=12).map(str.encode),
    st.integers().map(lambda i: str(i).encode()),
    st.integers(2**62, 2**70).map(lambda i: str(i).encode()),
    st.floats().map(lambda f: repr(f).encode()),
)
VALID_ROWS = st.lists(
    st.tuples(st.integers(1, 10**6), st.integers(0, 5), st.floats(0, 1e6)), min_size=1, max_size=8
)


@st.composite
def csv_text(draw) -> bytes:
    """Mostly canonical CSV bytes, some with the edits the C path must refuse."""
    ns = st.one_of(st.integers(1, 3), st.integers(1, 2**63 - 1))
    trials = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))
    cells = sorted(draw(st.lists(st.tuples(ns, trials), min_size=1, max_size=8, unique=True)))
    errors = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
        st.sampled_from(["-0.0", "5e-324", "2.2250738585072014e-308", "1e-400", "+.5", "5.", "1e+16"]),
    )
    rows = [[str(n), str(t), draw(errors)] for n, t in cells]
    edits = draw(st.lists(
        st.tuples(st.sampled_from(["+", "-", "0", " ", "1e400", "nan", "swap", "dup", "#", ""]), st.integers(0, 7),
                  st.integers(0, 2)),
        max_size=2,
    ))
    for kind, i, column in edits:
        i %= len(rows)
        if kind in ("+", "-", "0", " "):
            rows[i][column] = kind + rows[i][column]
        elif kind in ("1e400", "nan"):
            rows[i][2] = kind
        elif kind == "swap" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        elif kind == "dup":
            rows.insert(i, list(rows[i]))
    lines = [",".join(fields) for fields in rows]
    for kind, i, _ in edits:
        if kind in ("#", ""):
            lines.insert(i % len(lines), kind)
    eol = draw(st.sampled_from(["\n"] * 3 + ["\r\n"]))
    return ("n,trial,error" + eol + eol.join(lines) + eol * draw(st.booleans())).encode()


CSV_TEXT = csv_text()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "curve.csv"


def read_or_curve_error(path, data: bytes) -> None:
    """read_curve_csv raises only CurveError, and what it returns is usable."""
    path.write_bytes(data)
    try:
        curve = read_curve_csv(path)
    except CurveError:
        return
    assert len(curve.ns) == len(curve.statistic("median")) >= 1


class TestCsvProperties:
    @given(data=st.binary(max_size=200), with_header=st.booleans())
    def test_arbitrary_bytes(self, csv_path, data, with_header):
        read_or_curve_error(csv_path, b"n,trial,error\n" * with_header + data)

    @given(rows=VALID_ROWS, row=st.integers(0, 7), column=st.integers(0, 2), field=MUTATED_FIELDS)
    def test_valid_file_with_one_field_mutated(self, csv_path, rows, row, column, field):
        fields = [[str(n).encode(), str(t).encode(), repr(e).encode()] for n, t, e in rows]
        fields[row % len(fields)][column] = field
        read_or_curve_error(csv_path, b"n,trial,error\n" + b"".join(b",".join(f) + b"\n" for f in fields))

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"n,trial,error\r\n10,0,0.5\r\n2\xff0,0,0.1\n")
        with pytest.raises(CurveError, match=r":3: not UTF-8"):
            read_curve_csv(path)

    def test_n_beyond_int64_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,trial,error\n{2**63 - 1},0,0.5\n{2**63},0,0.1\n")
        with pytest.raises(CurveError, match=":3:"):
            read_curve_csv(path)

    # int() and float() accept digit-group underscores, surrounding spaces,
    # signs and non-ASCII digits; the format does not.
    @pytest.mark.parametrize(
        "row",
        ["1_0,0,0.5", "٣٣,0,0.25", " 7 ,0,0.1", "7,+1,0.1", "7,-0,0.1", "+7,0,0.1", "7,1,0_5", "7,1, 0.5",
         "7,1,0.5\t", "7,1,٠.٥", "7,1,0.５"],
    )
    def test_non_ascii_decimal_field_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,trial,error\n10,0,0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(CurveError, match=":3:"):
            read_curve_csv(path)

    @given(data=CSV_TEXT)
    @example(data=b"n,trial,error\n1,0,5e-324\n1,1,4e-320\n1,7,2.2250738585072014e-308\n9223372036854775807,0,1e-400\n")
    @example(data=b"n,trial,error\n1,0,-0.0\n")
    @example(data=b"n,trial,error\n+5,0,0.5\n")
    @example(data=b"n,trial,error\n5,-0,0.5\n")
    @example(data=b"n,trial,error\n0,0,0.5\n")
    @example(data=b"n,trial,error\n 7 ,0,0.1\n")
    @example(data=b"n,trial,error\n9223372036854775808,0,0.5\n")
    @example(data=b"n,trial,error\n5,0,0.5\n#\n6,0,0.5\n")
    @example(data=b"n,trial,error\n5,0,0.5\r\n6,0,0.5\r\n")
    @example(data=b"n,trial,error\n5,0,0.5\n\n6,0,0.5\n")
    @example(data=b"n,trial,error\n6,0,0.5\n5,0,0.5\n")
    @example(data=b"n,trial,error\n5,1,0.5\n5,0,0.5\n")
    @example(data=b"n,trial,error\n5,0,0.5\n5,0,0.25\n")
    def test_fast_path_returns_the_line_loops_curve(self, csv_path, data):
        csv_path.write_bytes(data)
        fast = curve_io._read_canonical(csv_path, None)
        if fast is not None:
            assert curve_to_json(fast) == curve_to_json(curve_io._read_lines(csv_path, None))

    @given(cells=VALID_ROWS.map(lambda rows: {(n, t): e for n, t, e in rows}))
    def test_fast_path_reads_what_write_curve_csv_writes(self, csv_path, cells):
        curve = aggregate_trials((n, t, e) for (n, t), e in cells.items())
        write_curve_csv(curve, csv_path)
        fast = curve_io._read_canonical(csv_path, {"task": "x"})
        assert fast is not None
        assert curve_to_json(fast) == curve_to_json(ScalingCurve(points=curve.points, metadata={"task": "x"}))


class TestJson:
    def test_curve_round_trip(self):
        curve = sample_curve()
        payload = json.loads(curve_to_json(curve))
        assert payload == {
            "metadata": curve.metadata,
            "points": [{"n": n, "errors": list(errs)} for n, errs in curve.points],
        }


def reference_csv(curve) -> bytes:
    """What write_curve_csv writes, as it was first formulated: one f-string per record."""
    lines = [curve_io.CSV_HEADER]
    lines.extend(f"{n},{t},{repr(e)}" for n, errs in curve.points for t, e in enumerate(errs))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_curve_json(curve) -> str:
    """curve_to_json as it was first formulated: json.dumps of the whole payload."""
    payload = {
        "points": [{"n": n, "errors": list(errs)} for n, errs in curve.points],
        "metadata": dict(curve.metadata),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


WRITER_ERRORS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, 0.1, 1.0]),
    st.integers(0, 2**70),
)


@st.composite
def writer_curves(draw) -> ScalingCurve:
    ns = sorted(draw(st.lists(st.integers(1, 2**63 - 1), max_size=4, unique=True)))
    points = tuple((n, tuple(draw(st.lists(WRITER_ERRORS, min_size=1, max_size=5)))) for n in ns)
    metadata = draw(st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3))
    return ScalingCurve(points=points, metadata=metadata)


# Pinned curves: none, one point, int errors up to 2**70, -0.0, the smallest
# subnormal, reprs in exponent form, the largest n, and metadata that is
# non-ASCII or needs escaping.
WRITER_EXAMPLES = [
    ScalingCurve(points=()),
    ScalingCurve(points=((7, (0.25,)),)),
    ScalingCurve(points=((1, (0, 3, 2**70)), (2, (-0.0, 5e-324, 1e-310)), (2**63 - 1, (1e22, 1e16, 0.1)))),
    ScalingCurve(points=((10, (0.5,)),), metadata={"t\u00e2che": "\u03b1\u2013\U0001f600", "k": "a\"b\\c\nd\te\x00"}),
]


def with_writer_examples(test):
    for curve in WRITER_EXAMPLES:
        test = example(curve=curve)(test)
    return test


class TestWritersMatchReferences:
    @given(curve=writer_curves())
    @with_writer_examples
    def test_csv_bytes(self, csv_path, curve):
        write_curve_csv(curve, csv_path)
        assert csv_path.read_bytes() == reference_csv(curve)

    @given(curve=writer_curves())
    @with_writer_examples
    # A curve stores numpy errors as Python floats.
    @example(curve=ScalingCurve(points=((3, (np.float64(0.1), np.float64(2.0))),)))
    def test_json_text(self, curve):
        assert curve_to_json(curve) == reference_curve_json(curve)

    @given(curve=writer_curves())
    @with_writer_examples
    # Unequal trial counts, int zeros, and metadata that needs JSON escapes.
    @example(curve=ScalingCurve(points=((2, (0, 0.5, 0)), (9, (0,))), metadata={"q": 'say "hi"\\\n\u00e9'}))
    def test_one_pass_writes_what_the_two_writers_write(self, csv_path, curve):
        json_path = csv_path.with_name("curve.json")
        write_curve_csv(curve, csv_path, _json_path=json_path)
        one_pass = csv_path.read_bytes(), json_path.read_bytes()
        write_curve_csv(curve, csv_path)
        json_path.write_text(curve_to_json(curve), encoding="utf-8")
        assert one_pass == (csv_path.read_bytes(), json_path.read_bytes())


class TestRenderSvg:
    def test_deterministic_bytes(self):
        curve = sample_curve()
        a = render_svg([curve], vline=100)
        b = render_svg([curve], vline=100)
        assert a == b

    def test_structure_single_curve(self):
        svg = render_svg([sample_curve()])
        assert svg.count("<polyline") == 1
        assert svg.count("<polygon") == 1
        assert svg.startswith("<svg")

    def test_overlay_adds_polyline_only(self):
        curve = sample_curve()
        overlay = aggregate_trials(
            [(n, 0, 2.0 * n**-0.7 + 0.05) for n in (10, 100, 1000)], metadata={"task": "closed form"}
        )
        svg = render_svg([curve], overlays=[overlay])
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") == 1
        assert "closed form" in svg
        # An overlay is clamped up to the floor, as a curve is.
        zero = aggregate_trials([(10, 0, 0.5), (100, 0, 0.0)], metadata={"task": "closed form"})
        with pytest.raises(PlotError, match="^'closed form' has nonpositive"):
            render_svg([curve], overlays=[zero])
        assert render_svg([curve], overlays=[zero], floor=1e-20).count("<polyline") == 2

    def test_vline_dashed_marker(self):
        svg = render_svg([sample_curve()], vline=100)
        assert "stroke-dasharray" in svg

    @pytest.mark.parametrize("vline", [1, 100, 100_000], ids=["below", "inside", "above"])
    def test_vline_lies_within_the_frame(self, vline):
        # The curve spans n in [10, 1000]; a marker outside that range
        # widens the x axis, so it lands inside the frame too.
        svg = render_svg([sample_curve()], vline=vline)
        x1, y1, x2, y2 = map(float, re.search(
            r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)" stroke="#555555"', svg
        ).groups())
        assert x1 == x2 and MARGIN_LEFT <= x1 <= WIDTH - MARGIN_RIGHT
        assert (y1, y2) == (MARGIN_TOP, HEIGHT - MARGIN_BOTTOM)

    def test_single_point_curve_rejected(self):
        curve = aggregate_trials([(10, 0, 0.5), (10, 1, 0.4)])
        with pytest.raises(PlotError, match="single-point"):
            render_svg([curve])

    def test_nonpositive_values_need_floor(self):
        curve = aggregate_trials([(10, 0, 0.5), (100, 0, 0.0), (1000, 0, 0.1)])
        with pytest.raises(PlotError, match="floor"):
            render_svg([curve])
        svg = render_svg([curve], floor=1e-20)
        assert svg.count("<polyline") == 1

    @pytest.mark.parametrize("floor", [math.nan, math.inf])
    def test_non_finite_floor_rejected(self, floor):
        with pytest.raises(PlotError, match="floor"):
            render_svg([sample_curve()], floor=floor)

    def test_no_curves_rejected(self):
        with pytest.raises(PlotError):
            render_svg([])

    def test_legend_uses_metadata(self):
        svg = render_svg([sample_curve()])
        assert "demo lstsq" in svg
