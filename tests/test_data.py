import contextlib
import csv
import io
import json
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driverlens.cli import main
from driverlens.data import (
    CATEGORICAL,
    NUMERIC,
    Dataset,
    RawTable,
    encode,
    handle_missing,
    load_csv,
)
from driverlens.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
        table = load_csv(path, "label")
        assert table.n_rows == 3
        assert table.n_columns == 3
        assert table.target_column == "label"
        assert table.target_index == 2

    def test_target_absent(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n")
        with pytest.raises(DataError, match="target column not found"):
            load_csv(path, "speed")

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "c")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(str(tmp_path / "nope.csv"), "label")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, "label")

    def test_missing_cell_markers(self, tmp_path):
        path = write(tmp_path, "a,b,label\n,NA,x\n1,2,y\n")
        table = load_csv(path, "label")
        assert table.rows[0][0] is None
        assert table.rows[0][1] is None
        assert table.rows[1][0] == "1"

    @pytest.mark.parametrize("header,named", [
        ("a,a,label", "repeats the column name 'a' at columns 1, 2"),
        ("label,b,label", "repeats the column name 'label' at columns 1, 3"),
        ("a,,label", "empty column name at column(s) 2"),
        (",b,label,", "empty column name at column(s) 1, 4"),
    ])
    def test_empty_or_repeated_header_name_rejected(self, tmp_path, header,
                                                    named):
        cells = ",".join(["1"] * (header.count(",") + 1))
        path = write(tmp_path, f"{header}\n{cells}\n")
        with pytest.raises(DataError, match=re.escape(named)):
            load_csv(path, "label")

    def test_quoted_cells(self, tmp_path):
        path = write(tmp_path, 'a,label\n"wet, icy",x\n"say ""hi""",y\n')
        table = load_csv(path, "label")
        assert table.rows[0][0] == "wet, icy"
        assert table.rows[1][0] == 'say "hi"'


class TestHandleMissing:
    def test_fill_mean_numeric(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n,y\n3,x\n")
        table = handle_missing(load_csv(path, "label"), "fill_mean")
        assert float(table.rows[1][0]) == 2.0

    def test_no_missing_is_identity(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,u,x\n2,v,y\n")
        original = load_csv(path, "label")
        for policy in ("fill_mean", "drop_rows"):
            result = handle_missing(original, policy)
            assert result.rows == original.rows

    def test_drop_rows(self, tmp_path):
        rows = "\n".join(["1,u,x", "2,,y", "3,w,x", "4,u,y", "5,v,x"])
        path = write(tmp_path, "a,b,label\n" + rows + "\n")
        table = handle_missing(load_csv(path, "label"), "drop_rows")
        assert table.n_rows == 4
        assert all(cell is not None for row in table.rows for cell in row)

    def test_drop_rows_preserves_surviving_cells(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,u,x\n2,,y\n3,w,x\n")
        before = load_csv(path, "label")
        after = handle_missing(before, "drop_rows")
        assert after.rows == [before.rows[0], before.rows[2]]

    def test_fill_mean_keeps_present_cells(self, tmp_path):
        path = write(tmp_path, "a,label\n1.5,x\n,y\n2.5,x\n")
        before = load_csv(path, "label")
        after = handle_missing(before, "fill_mean")
        assert after.rows[0][0] == "1.5"
        assert after.rows[2][0] == "2.5"

    def test_modal_fill_tie_lexicographic(self, tmp_path):
        path = write(tmp_path, "cond,label\ndry,x\nicy,y\n,x\ndry,y\nicy,x\n")
        table = handle_missing(load_csv(path, "label"), "fill_mean")
        assert table.rows[2][0] == "dry"  # dry/icy tie at 2 each

    def test_modal_fill_tie_among_many_categories(self):
        # 300 single categories, then "zulu" and "delta" five times each;
        # the tie goes to the smaller although "zulu" comes first
        cells = [f"cat{i:03d}" for i in range(300)] + ["zulu", "delta"] * 5
        cells += [None] * 4
        rows = [[cell, "xy"[i % 2]] for i, cell in enumerate(cells)]
        table = handle_missing(RawTable(["cond", "label"], rows, "label"))
        assert [row[0] for row in table.rows[-4:]] == ["delta"] * 4
        assert [row[0] for row in table.rows[:-4]] == cells[:-4]

    def test_fill_follows_kind_overrides(self, tmp_path):
        # a numeric-looking column forced categorical gets its mode, not its
        # mean, so the fill is never a category of its own
        path = write(tmp_path, "zone,speed,label\n10,1,x\n20,2,y\n,3,x\n"
                               "20,4,y\n10,5,x\n20,6,y\n")
        table = load_csv(path, "label")
        assert handle_missing(table, "fill_mean").rows[2][0] == "16.0"
        overrides = {"zone": "categorical"}
        filled = handle_missing(table, "fill_mean", kind_overrides=overrides)
        assert filled.rows[2][0] == "20"
        _, encoding = encode(filled, kind_overrides=overrides)
        assert encoding.columns["zone"] == ("10", "20")

    def test_numeric_override_checks_cells_before_filling(self, tmp_path):
        path = write(tmp_path, "road,label\ndry,x\n,y\nicy,x\n")
        table = load_csv(path, "label")
        with pytest.raises(DataError, match="column 'road', row 0: cannot parse"):
            handle_missing(table, "fill_mean", kind_overrides={"road": "numeric"})
        with pytest.raises(DataError, match="schema override for 'road' must be"):
            handle_missing(table, "fill_mean", kind_overrides={"road": "text"})

    def test_all_missing_column_errors(self, tmp_path):
        path = write(tmp_path, "a,label\n,x\n,y\n")
        with pytest.raises(DataError, match="entirely missing"):
            handle_missing(load_csv(path, "label"), "fill_mean")


    @pytest.mark.parametrize("labels", [("0", "1"), ("calm", "reckless")],
                             ids=["numeric", "string"])
    def test_missing_label_is_never_imputed(self, tmp_path, labels):
        a, b = labels
        path = write(tmp_path, f"x,label\n1,{a}\n2,{b}\n3,NA\n4,{a}\n")
        table = load_csv(path, "label")
        with pytest.raises(DataError, match="target column 'label', row 2"):
            handle_missing(table, "fill_mean")
        kept = handle_missing(table, "drop_rows")
        assert [row[1] for row in kept.rows] == [a, b, a]


class TestEncode:
    def test_categorical_sorted_unique(self, tmp_path):
        path = write(tmp_path, "cond,label\ndry,x\nicy,y\ndry,x\n")
        dataset, enc = encode(load_csv(path, "label"))
        assert enc.columns["cond"] == ("dry", "icy")
        assert dataset.X[:, 0].tolist() == [0.0, 1.0, 0.0]
        assert dataset.schema[0].kind == CATEGORICAL

    def test_target_sorted_classes(self, tmp_path):
        path = write(tmp_path, "a,label\n1,normal\n2,aggressive\n3,vague\n")
        dataset, enc = encode(load_csv(path, "label"))
        assert dataset.classes == ("aggressive", "normal", "vague")
        assert dataset.y.tolist() == [1, 0, 2]

    def test_decode_round_trip(self, tmp_path):
        path = write(tmp_path, "cond,label\nwet,x\ndry,y\nicy,x\nwet,y\n")
        dataset, enc = encode(load_csv(path, "label"))
        cats = enc.columns["cond"]
        decoded = [cats[int(code)] for code in dataset.X[:, 0]]
        assert decoded == ["wet", "dry", "icy", "wet"]
        assert [enc.classes[c] for c in dataset.y] == ["x", "y", "x", "y"]

    def test_numeric_parsing(self, tmp_path):
        path = write(tmp_path, "a,label\n1.5,x\n-2e3,y\n")
        dataset, _ = encode(load_csv(path, "label"))
        assert dataset.schema[0].kind == NUMERIC
        assert dataset.X[:, 0].tolist() == [1.5, -2000.0]

    def test_forced_numeric_unparsable_names_column_and_row(self, tmp_path):
        path = write(tmp_path, "speed,label\n10,x\nfast,y\n")
        with pytest.raises(DataError, match=r"'speed', row 1.*'fast'"):
            encode(load_csv(path, "label"), kind_overrides={"speed": "numeric"})

    def test_forced_categorical_on_numbers(self, tmp_path):
        path = write(tmp_path, "a,label\n10,x\n2,y\n")
        dataset, enc = encode(load_csv(path, "label"),
                              kind_overrides={"a": "categorical"})
        # string sort: "10" < "2"
        assert enc.columns["a"] == ("10", "2")
        assert dataset.X[:, 0].tolist() == [0.0, 1.0]

    def test_nonfinite_strings_are_categorical(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\ninf,y\n")
        dataset, _ = encode(load_csv(path, "label"))
        assert dataset.schema[0].kind == CATEGORICAL

    def test_single_class_target_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,calm\n2,calm\n")
        with pytest.raises(DataError,
                           match="target column 'label' holds one class, 'calm'"):
            encode(load_csv(path, "label"))

    def test_missing_cells_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n,y\n")
        with pytest.raises(DataError, match="missing cell"):
            encode(load_csv(path, "label"))

    def test_codes_are_dense(self, tmp_path):
        rng = np.random.default_rng(3)
        cats = ["red", "green", "blue", "amber"]
        lines = ["colour,label"]
        for _ in range(40):
            lines.append(f"{cats[rng.integers(4)]},c{rng.integers(3)}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        dataset, enc = encode(load_csv(path, "label"))
        codes = set(dataset.X[:, 0].astype(int).tolist())
        assert codes == set(range(len(enc.columns["colour"])))
        assert set(dataset.y.tolist()) == set(range(len(dataset.classes)))

    def test_distinct_strings_code_in_linear_time(self):
        # 20,000 shuffled distinct strings in a feature and in the target:
        # each code is the value's position in sorted order
        rng = np.random.default_rng(24)
        trips = [f"trip-{k}" for k in rng.permutation(20_000)]
        labels = [f"t{k}" for k in rng.permutation(20_000)]
        table = RawTable(["trip", "label"],
                         [[t, l] for t, l in zip(trips, labels)], "label")
        start = time.perf_counter()
        dataset, enc = encode(table)
        assert time.perf_counter() - start < 1.0
        for values, cats, codes in ((trips, enc.columns["trip"], dataset.X[:, 0]),
                                    (labels, enc.classes, dataset.y)):
            sorted_values, positions = np.unique(values, return_inverse=True)
            assert cats == tuple(sorted_values.tolist())
            assert np.array_equal(codes, positions)
            assert [cats[int(code)] for code in codes] == values

    def test_deterministic_from_bytes(self, tmp_path):
        text = "a,cond,label\n1,dry,x\n2,icy,y\n3,dry,x\n"
        d1, _ = encode(load_csv(write(tmp_path, text, "one.csv"), "label"))
        d2, _ = encode(load_csv(write(tmp_path, text, "two.csv"), "label"))
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        assert d1.classes == d2.classes
        assert d1.schema == d2.schema


class TestDataset:
    def test_immutable_arrays(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,y\n")
        dataset, _ = encode(load_csv(path, "label"))
        with pytest.raises(ValueError):
            dataset.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            dataset.y[0] = 1

    def test_invariant_checks(self):
        from driverlens.data import ColumnSchema
        schema = (ColumnSchema("a", NUMERIC, 0),)
        with pytest.raises(DataError, match="non-finite"):
            Dataset(X=np.array([[np.nan]]), y=np.array([0]),
                    schema=schema, classes=("x", "y"))
        with pytest.raises(DataError, match="codes outside"):
            Dataset(X=np.array([[1.0]]), y=np.array([5]),
                    schema=schema, classes=("x", "y"))


# -- properties of the ingest path: load_csv -> handle_missing -> encode

MISSING = st.sampled_from(["", "NA"])
NUMBER = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
TEXT = st.text(alphabet='ab ,"', min_size=1, max_size=5)  # quoting cases
COLUMN_CELLS = {
    "numeric": st.one_of(NUMBER, MISSING),
    "text": st.one_of(TEXT, MISSING),
    "mixed": st.one_of(NUMBER, TEXT, MISSING),
    "all-missing": MISSING,
}


@st.composite
def raw_tables(draw):
    """(header, rows) of text cells; the label is last and never missing,
    and small row counts make single-row classes common."""
    n_rows = draw(st.integers(1, 10))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)),
                          min_size=1, max_size=4))
    columns = [draw(st.lists(COLUMN_CELLS[k], min_size=n_rows, max_size=n_rows))
               for k in kinds]
    labels = draw(st.lists(st.sampled_from(["x", "y", "z"]),
                           min_size=n_rows, max_size=n_rows))
    header = [f"c{j}" for j in range(len(kinds))] + ["label"]
    return header, [[col[i] for col in columns] + [labels[i]]
                    for i in range(n_rows)]


def write_table(directory, header, rows):
    path = os.path.join(directory, "table.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path


def parsed(rows):
    return [[None if cell in ("", "NA") else cell for cell in row] for row in rows]


def is_number(cell):
    try:
        return np.isfinite(float(cell))
    except ValueError:
        return False


@settings(max_examples=100, deadline=None, database=None)
@given(table=raw_tables())
def test_load_csv_reads_back_what_csv_writer_wrote(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as directory:
        raw = load_csv(write_table(directory, header, rows), "label")
    assert raw.header == header
    assert raw.rows == parsed(rows)
    assert raw.target_index == len(header) - 1


@settings(max_examples=100, deadline=None, database=None)
@given(table=raw_tables())
def test_handle_missing_fills_or_drops_and_keeps_present_cells(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as directory:
        raw = load_csv(write_table(directory, header, rows), "label")
    complete = [row for row in raw.rows if None not in row]
    if complete:
        assert handle_missing(raw, "drop_rows").rows == complete
    else:
        with pytest.raises(DataError, match="drop_rows removed every row"):
            handle_missing(raw, "drop_rows")

    empty = [j for j in range(len(header)) if all(r[j] is None for r in raw.rows)]
    if empty:
        with pytest.raises(DataError, match=f"column 'c{empty[0]}' is entirely"):
            handle_missing(raw, "fill_mean")
        return
    filled = handle_missing(raw, "fill_mean")
    for j in range(len(header)):
        present = [r[j] for r in raw.rows if r[j] is not None]
        fills = {f[j] for r, f in zip(raw.rows, filled.rows) if r[j] is None}
        assert all(f[j] == r[j] for r, f in zip(raw.rows, filled.rows)
                   if r[j] is not None)
        assert len(fills) <= 1
        if fills and all(is_number(v) for v in present):
            assert fills == {repr(float(np.mean([float(v) for v in present])))}
        elif fills:
            top = max(present.count(v) for v in present)
            assert fills == {min(v for v in present if present.count(v) == top)}


@settings(max_examples=100, deadline=None, database=None)
@given(table=raw_tables())
def test_encode_decodes_back_to_the_cells(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as directory:
        raw = load_csv(write_table(directory, header, rows), "label")
    complete = [row for row in raw.rows if None not in row]
    if not complete:
        return
    if len({row[-1] for row in complete}) == 1:
        with pytest.raises(DataError, match="holds one class"):
            encode(handle_missing(raw, "drop_rows"))
        return
    data, enc = encode(handle_missing(raw, "drop_rows"))
    assert data.n_rows == len(complete)
    assert [enc.classes[c] for c in data.y] == [row[-1] for row in complete]
    assert list(enc.classes) == sorted({row[-1] for row in complete})
    for j, column in enumerate(data.schema):
        cells = [row[j] for row in complete]
        if all(is_number(v) for v in cells):
            assert column.kind == NUMERIC
            assert data.X[:, j].tolist() == [float(v) for v in cells]
        else:
            assert column.kind == CATEGORICAL
            cats = enc.columns[column.name]
            assert list(cats) == sorted(set(cells))
            assert [cats[int(code)] for code in data.X[:, j]] == cells


def run_prep(directory, doc, stage="prep"):
    """(exit code, stderr) of `driverlens <stage>` on the config doc."""
    config = os.path.join(directory, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"out_dir": os.path.join(directory, "out"), **doc}, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([stage, "--config", config])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, database=None)
@given(table=raw_tables(), policy=st.sampled_from(["fill_mean", "drop_rows"]),
       leak_safe=st.booleans())
def test_cli_prep_exits_0_or_2_and_names_the_cause(table, policy, leak_safe):
    header, rows = table
    with tempfile.TemporaryDirectory() as directory:
        doc = {"input": {"csv": write_table(directory, header, rows),
                         "target": "label"},
               "missing_policy": policy, "leak_safe": leak_safe}
        code, err = run_prep(directory, doc)
        wrote = os.path.exists(os.path.join(directory, "out", "scaler.json"))
    assert "Traceback" not in err
    assert code in (0, 2), err
    assert wrote == (code == 0)
    kept = (parsed(rows) if policy == "fill_mean"
            else [row for row in parsed(rows) if None not in row])
    all_missing = any(all(row[j] is None for row in kept)
                      for j in range(len(header) - 1))
    labels = [row[-1] for row in kept]
    if policy == "fill_mean" and all_missing:
        assert "entirely missing" in err
    elif not kept:
        assert "drop_rows removed every row" in err
    elif len(set(labels)) == 1:
        assert f"target column 'label' holds one class, {labels[0]!r}" in err
    elif leak_safe and any(labels.count(v) == 1 for v in labels):
        assert "has a single row; cannot stratify" in err
    if code == 2:
        assert err.startswith("data error: ")


@pytest.mark.parametrize("stage", ["prep", "run"])
@pytest.mark.parametrize("leak_safe", [False, True])
@pytest.mark.parametrize("header,named", [
    (["a", "a", "label"], "repeats the column name 'a' at columns 1, 2"),
    (["a", "", "label"], "empty column name at column(s) 2"),
])
def test_cli_rejects_empty_or_repeated_header_names(stage, leak_safe, header,
                                                     named):
    rows = [[str(i), str(i % 3), "xy"[i % 2]] for i in range(12)]
    with tempfile.TemporaryDirectory() as directory:
        doc = {"input": {"csv": write_table(directory, header, rows),
                         "target": "label"},
               "models": ["GNB"], "leak_safe": leak_safe}
        code, err = run_prep(directory, doc, stage)
        wrote = os.path.exists(os.path.join(directory, "out"))
    assert code == 2, err
    assert err.startswith("data error: ") and named in err
    assert not wrote


@pytest.mark.parametrize("stage", ["prep", "run"])
@pytest.mark.parametrize("leak_safe", [False, True])
@pytest.mark.parametrize("policy", ["fill_mean", "drop_rows"])
def test_cli_single_class_target_names_the_target(stage, leak_safe, policy):
    # under drop_rows the one "rough" row has a missing cell, so one class is
    # left after dropping; under fill_mean every label is "calm"
    rows = [[str(i), "calm"] for i in range(8)]
    if policy == "drop_rows":
        rows.append(["NA", "rough"])
    with tempfile.TemporaryDirectory() as directory:
        doc = {"input": {"csv": write_table(directory, ["a", "label"], rows),
                         "target": "label"},
               "models": ["GNB"], "missing_policy": policy,
               "leak_safe": leak_safe}
        code, err = run_prep(directory, doc, stage)
        wrote = os.path.exists(os.path.join(directory, "out"))
    assert code == 2, err
    assert err.startswith("data error: ")
    assert "target column 'label' holds one class, 'calm'" in err
    assert "GNB" not in err
    assert not wrote


@pytest.mark.parametrize("stage", ["prep", "train"])
def test_cli_table_without_a_feature_column_is_a_data_error(stage):
    # the forests used to divide by the zero feature count in train
    rows = [["xy"[i % 2]] for i in range(60)]
    with tempfile.TemporaryDirectory() as directory:
        doc = {"input": {"csv": write_table(directory, ["label"], rows),
                         "target": "label"},
               "models": ["RFC", "LR"]}
        code, err = run_prep(directory, doc, stage)
        wrote = os.path.exists(os.path.join(directory, "out"))
    assert code == 2, err
    assert err.startswith("data error: ")
    assert "the table has no feature column" in err and "'label'" in err
    assert not wrote


@settings(max_examples=40, deadline=None, database=None)
@given(key=st.sampled_from(["missing_policy", "schema_overrides"]),
       value=st.text(max_size=8).filter(
           lambda v: v not in ("fill_mean", "drop_rows", "numeric",
                               "categorical")))
def test_cli_bad_ingest_setting_exits_1(key, value):
    with tempfile.TemporaryDirectory() as directory:
        table = write_table(directory, ["a", "label"],
                            [["1", "x"], ["2", "y"], ["3", "x"], ["4", "y"]])
        doc = {"input": {"csv": table, "target": "label"},
               key: value if key == "missing_policy" else {"a": value}}
        code, err = run_prep(directory, doc)
        wrote = os.path.exists(os.path.join(directory, "out"))
    assert code == 1, err
    named = {"missing_policy": "missing_policy",
             "schema_overrides": "schema override for 'a'"}[key]
    assert err.startswith("error: ") and named in err
    assert not wrote


@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_cli_schema_override_naming_the_target_is_a_data_error(kind):
    # the target is always label-encoded; an override for it used to be
    # dropped without a word
    rows = [[str(i), "xy"[i % 2]] for i in range(8)]
    with tempfile.TemporaryDirectory() as directory:
        doc = {"input": {"csv": write_table(directory, ["a", "label"], rows),
                         "target": "label"},
               "models": ["GNB"], "schema_overrides": {"label": kind}}
        code, err = run_prep(directory, doc)
        wrote = os.path.exists(os.path.join(directory, "out"))
    assert code == 2, err
    assert err.startswith("data error: ")
    assert "schema override names the target column 'label'" in err
    assert not wrote
