"""Round-trip properties of the one CSV format in `casimetry.io`, and the
rules of its text-table reader `read_table`.

Every value comes back as its ``.10e`` rendering parsed again, every
comment comes back in order on its own line, and no writer emits a CR.
Inputs the format cannot carry (a comment with a line break, a float
whose ``.10e`` form overflows) must be refused by the writer, so every
file a writer produces is one the reader accepts.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from casimetry import hypforce as hf
from casimetry import metrology as mt
from casimetry.io import format_column, read_csv, read_table, write_csv

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def rendered(values):
    """What the format carries of each value: its .10e text, parsed."""
    return np.array([float(format(v, ".10e")) for v in np.ravel(values)],
                    dtype=float).reshape(np.shape(values))


def fits(comments, values):
    """True if the writer must accept these comments and values."""
    return (not any("\n" in c or "\r" in c for c in comments)
            and np.all(np.isfinite(rendered(values))))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("io") / "table.csv"


@given(data=st.integers(1, 4).flatmap(
           lambda k: arrays(np.float64, st.tuples(st.integers(0, 8),
                                                  st.just(k)),
                            elements=FINITE)),
       comments=st.lists(st.text(), max_size=4))
def test_table_round_trip(path, data, comments):
    columns = tuple(f"c{k}" for k in range(data.shape[1]))
    if not fits(comments, data):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_csv(path, columns, data.T, comments)
        return
    write_csv(path, columns, data.T, comments)
    assert b"\r" not in path.read_bytes()
    back_comments, back = read_csv(path, columns)
    assert back_comments == list(enumerate(comments, 1))
    assert back.shape == data.shape
    assert np.array_equal(back, rendered(data))


@st.composite
def ensembles(draw):
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        z = draw(arrays(np.float64, n, elements=st.floats(160e-9, 750e-9)))
        p = draw(arrays(np.float64, n, elements=FINITE))
        sets.append(np.column_stack([z, p]))
    return mt.MeasurementEnsemble(tuple(sets))


@given(ensemble=ensembles(), comments=st.lists(st.text(), max_size=3))
def test_ensemble_round_trip(path, ensemble, comments):
    points = np.concatenate(ensemble.sets)
    if not fits(comments, points):
        with pytest.raises(ValueError):
            mt.save_ensemble_csv(ensemble, path, comments)
        return
    mt.save_ensemble_csv(ensemble, path, comments)
    assert b"\r" not in path.read_bytes()
    back = mt.load_ensemble_csv(path)
    assert back.z_range == ensemble.z_range
    assert len(back.sets) == len(ensemble.sets)
    for got, want in zip(back.sets, ensemble.sets):
        assert np.array_equal(got, rendered(want))


@st.composite
def constraint_curves(draw):
    lams = sorted(draw(st.sets(POSITIVE, min_size=1, max_size=6)))
    n = len(lams)
    alphas = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    z_best = draw(st.lists(FINITE, min_size=n, max_size=n))
    return hf.ConstraintCurve(tuple(zip(lams, alphas, z_best)))


@given(curve=constraint_curves(), comments=st.lists(st.text(), max_size=3))
def test_constraint_round_trip(path, curve, comments):
    entries = np.array(curve.entries)
    want = rendered(entries)
    # ranges closer than the format's 11 digits would become equal on disk
    if not fits(comments, entries) or not np.all(np.diff(want[:, 0]) > 0):
        with pytest.raises(ValueError):
            hf.save_constraint_csv(curve, path, comments)
        return
    hf.save_constraint_csv(curve, path, comments)
    assert b"\r" not in path.read_bytes()
    back = hf.load_constraint_csv(path)
    assert np.array_equal(np.array(back.entries), want)


def test_integer_columns_read_exactly(path):
    write_csv(path, ("i", "x"), [(0, 12), (1.5, -2.0)])
    assert path.read_text() == ("i,x\n0,1.5000000000e+00\n"
                                "12,-2.0000000000e+00\n")
    _, data = read_csv(path, ("i", "x"), integer_columns=("i",))
    assert data.tolist() == [[0.0, 1.5], [12.0, -2.0]]


def test_shared_column_text_writes_the_same_bytes(tmp_path):
    # one column formatted once stands for its values in several files;
    # 2,500 rows span three write chunks
    z = np.linspace(160e-9, 750e-9, 2500)
    i, p = np.arange(2500), -1e-3 / np.arange(1, 2501)
    z_text = format_column(tmp_path / "a.csv", z)
    assert z_text == [format(v, ".10e") for v in z]
    assert format_column(tmp_path / "a.csv", i) == [str(k) for k in range(2500)]
    for data, name in (((i, z, p), "a.csv"), ((i, z_text, p), "b.csv"),
                       ((format_column(tmp_path, i), z_text, format_column(tmp_path, p)),
                        "c.csv")):
        assert write_csv(tmp_path / name, ("i", "z_m", "p"), data, ["note"]) is None
    want = (tmp_path / "a.csv").read_bytes()
    assert want.count(b"\n") == 2502 and want.endswith(b"\n")
    assert (tmp_path / "b.csv").read_bytes() == want
    assert (tmp_path / "c.csv").read_bytes() == want


def test_write_memory_does_not_grow_with_the_row_count(tmp_path):
    # rows are formatted and written in chunks, never as one whole-file text;
    # the input arrays exist before tracing starts, so the peak leaves them out
    def peak(n):
        z, p = np.linspace(160e-9, 750e-9, n), np.linspace(-1e-3, -1e-6, n)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", ("z_m", "pressure_Pa"), (z, p), ["note"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert peak(16_000) <= 1.25 * peak(1_000)


@pytest.mark.parametrize("data", [([1.0, 2.0],), ([1.0, 2.0], [3.0]),
                                  ([1.0], [2.0], [3.0])])
def test_columns_must_fit_the_header(tmp_path, data):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        write_csv(path, ("x", "y"), data)
    assert not path.exists()


def test_overflow_at_real_size_is_refused_before_the_file_opens(tmp_path):
    # the finiteness check runs on the whole table at once; the hypothesis
    # tests above draw at most 8 rows
    data = np.column_stack([np.linspace(160e-9, 750e-9, 4000),
                            np.full(4000, -1e-3)])
    data[2000, 1] = 1.7976931348623157e308
    path = tmp_path / "big.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")
                       + ".*has no finite .10e form"):
        write_csv(path, ("z_m", "pressure_Pa"), data.T)
    assert not path.exists()


def test_mixed_int_float_rows_read_back_exactly(tmp_path):
    rng = np.random.default_rng(3)
    z = rng.uniform(160e-9, 750e-9, 4000)
    p = rng.normal(-1e-3, 1e-4, 4000)
    # Python and numpy integers and floats, mixed within each column
    rows = [(k // 400 if k % 2 else np.int64(k // 400),
             float(z[k]) if k % 3 else z[k], p[k]) for k in range(4000)]
    path = tmp_path / "ensemble.csv"
    write_csv(path, ("set_index", "z_m", "pressure_Pa"), list(zip(*rows)),
              ["z_range_m = 1.6e-07, 7.5e-07"])
    _, back = read_csv(path, ("set_index", "z_m", "pressure_Pa"),
                       integer_columns=("set_index",))
    assert back[:, 0].tolist() == [k // 400 for k in range(4000)]
    assert np.array_equal(back[:, 1:], rendered(np.column_stack([z, p])))
    ensemble = mt.load_ensemble_csv(path)
    assert [len(s) for s in ensemble.sets] == [400] * 10
    assert np.array_equal(np.concatenate(ensemble.sets), back[:, 1:])


def test_crlf_file_still_reads(path):
    path.write_bytes(b"# note\r\nx,y\r\n1.0,2.0\r\n")
    comments, data = read_csv(path, ("x", "y"))
    assert comments == [(1, "note")]
    assert data.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("text, line", [
    ("", None),
    ("# only a comment\n", None),
    ("y,x\n1,2\n", 1),
    ("x,y\n1,2\n3\n", 3),
    ("x,y\n1,2,3\n", 2),
    ("x,y\n1,abc\n", 2),
    ("x,y\n\n1,nan\n", 3),
    ("x,y\n-inf,1\n", 2),
])
def test_reader_names_the_place(path, text, line):
    path.write_text(text)
    where = f"{path}:{line}: " if line else f"{path}: expected header"
    with pytest.raises(ValueError, match=re.escape(where)):
        read_csv(path, ("x", "y"))


# ---------------------------------------------------------------- read_table

def test_table_comments_blanks_and_commas():
    lines = ["# unit: eV", "", "1.0 2.0  # inline", "  # indented comment",
             "3.0,4.0", "5.0 ,\t6.0", "#"]
    comments, data, line_numbers = read_table(lines, "t.txt", 2)
    assert comments == [(1, "unit: eV"), (4, "indented comment"), (7, "")]
    assert data.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert line_numbers == [3, 5, 6]


def test_table_inf_parses():
    _, data, _ = read_table(["4.1e3 inf", "1 -Infinity"], "stack.txt", 2)
    assert data.tolist() == [[4.1e3, np.inf], [1.0, -np.inf]]


def test_table_with_no_rows_has_the_column_count():
    comments, data, line_numbers = read_table(["# nothing", ""], "t.txt", 3)
    assert comments == [(1, "nothing")] and data.shape == (0, 3)
    assert line_numbers == []


def test_table_reads_a_file_handle(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 2\r\n3 4\n")
    with open(path) as fh:
        assert read_table(fh, path, 2)[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("row", ["1.0", "1.0 2.0 3.0", "1.0 abc", "nan 1.0",
                                 "1.0 NaN", "1.0,,", "1.0 2.0e", "0x10 1"])
def test_table_rejects_bad_rows_naming_the_line(row):
    lines = ["# header", "1.0 2.0", row, "3.0 4.0"]
    with pytest.raises(ValueError, match=re.escape("t.txt:3: expected 2 numbers")):
        read_table(lines, "t.txt", 2)
