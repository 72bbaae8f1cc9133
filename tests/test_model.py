"""Tests for the core data model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import (
    CapExceededError,
    DataMatrix,
    Partition,
    ValidationError,
    enumerate_partitions,
    load_matrix_csv,
)
from crossclust.model import _canonical_partition, canonical_labels

from oracles import (
    partitions_by_block_recursion,
    partitions_by_label_strings,
    stirling2,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


class TestDataMatrix:
    def test_binary_autodetect(self):
        assert DataMatrix([[0, 1], [1, 0]]).is_binary
        assert not DataMatrix([[0.5, 1.0]]).is_binary

    @pytest.mark.parametrize(
        "values, binary",
        [
            ([[-0.0, 1.0], [0.0, 1.0]], True),
            ([[0.0]], True),
            ([[1.0]], True),
            ([[0.5]], False),
            (np.zeros((3, 4)), True),
            (np.ones((2, 5)), True),
            ([[0.0, 1.0, 2.0]], False),
            ([[0.0, 1.0 + 2.0**-52]], False),
            ([[-1.0, 0.0]], False),
            ([[5e-324, 1.0]], False),
        ],
    )
    def test_binary_exactly_when_every_entry_is_0_or_1(self, values, binary):
        x = DataMatrix(values)
        assert x.is_binary is binary
        assert x.transpose().is_binary is binary
        assert x.transpose().transpose() == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            DataMatrix([[1.0, float("nan")]])
        with pytest.raises(ValidationError):
            DataMatrix([[float("inf")]])

    def test_rejects_empty_and_1d(self):
        with pytest.raises(ValidationError):
            DataMatrix([[]])
        with pytest.raises(ValidationError):
            DataMatrix([1.0, 2.0])

    @pytest.mark.parametrize("values", [[[1, 2], [3]], [["a"]]])
    def test_rejects_ragged_and_non_numeric(self, values):
        with pytest.raises(ValidationError) as exc:
            DataMatrix(values)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_values_are_readonly(self):
        x = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            x.values[0, 0] = 3.0

    def test_transpose(self):
        x = DataMatrix([[1, 2, 3], [4, 5, 6]])
        assert x.transpose().shape == (3, 2)
        assert x.transpose().values[2, 0] == 3.0


@st.composite
def csv_texts(draw):
    """Mostly well-formed CSV text, with the odd field or line that is not."""
    field = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["0", "1", "-0", "+.5", "1e3", " 2 ", "\xa03", "nan", "-inf",
                         "1e400", "1_0", "\u0661", "", "#", "0x10"]),
    )
    width = draw(st.integers(1, 3))
    lines = draw(st.lists(
        st.one_of(
            st.lists(field, min_size=width, max_size=width).map(",".join),
            st.sampled_from(["", "  ", "1"]),
        ),
        min_size=1, max_size=4,
    ))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def line_reader(path):
    """The line-by-line CSV reader, frozen: the matrix, or the error text."""
    rows, width = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(f) for f in line.split(",")]
            except ValueError:
                return f"line {lineno}: non-numeric field in matrix file"
            if width is None:
                width = len(row)
            elif len(row) != width:
                return f"line {lineno}: expected {width} fields, got {len(row)}"
            if not all(map(math.isfinite, row)):
                return f"line {lineno}: non-finite value"
            rows.append(row)
    return np.array(rows) if rows else "matrix file contains no rows"


class TestCsvLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,0\n1,0,1\n")
        x = load_matrix_csv(path)
        assert x.shape == (2, 3)
        assert x.is_binary

    def test_real_values(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.25,1.5\n-2,0\n")
        x = load_matrix_csv(path)
        assert not x.is_binary
        assert x.values[1, 0] == -2.0

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0,1\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_matrix_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\nx,0\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(f"0,1\n\n1,0\n0.5,{value}\n")
        with pytest.raises(ValidationError, match="line 4: non-finite value"):
            load_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_matrix_csv(path)

    # Each file gives the matrix, or the error text, of the line-by-line
    # reader that predates the one-call parse.
    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"\n1,2\n\n3,4\n\n", [[1, 2], [3, 4]]),
            (b"1,2\n   \n\t\n3,4\n", [[1, 2], [3, 4]]),
            (b"1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
            (b"1,2\n3,4", [[1, 2], [3, 4]]),
            (b" 1 , 2\n3 ,4 \n", [[1, 2], [3, 4]]),
            (b"1_0,2\n3,4\n", [[10, 2], [3, 4]]),
            ("\u0661,2\n3,\u0664\n".encode(), [[1, 2], [3, 4]]),
            (b"1,2,\n3,4,\n", "line 1: non-numeric field in matrix file"),
            (b"1,2\n3,4,5\n", "line 2: expected 2 fields, got 3"),
            (b"\xef\xbb\xbf1,2\n3,4\n", "line 1: non-numeric field in matrix file"),
            (b"1,2\n3,4\nnan,5\n", "line 3: non-finite value"),
            (b"1,2\n-inf,4\n", "line 2: non-finite value"),
            (b"1,2\n1e400,4\n", "line 2: non-finite value"),
            (b"1,2\n3,#4\n", "line 2: non-numeric field in matrix file"),
            (b"1,2,3\n", [[1, 2, 3]]),
            (b"1\n2\n3\n", [[1], [2], [3]]),
            (b"7.5\n", [[7.5]]),
            (b"\n \n", "matrix file contains no rows"),
        ],
    )
    def test_edge_cases(self, tmp_path, data, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as info:
                load_matrix_csv(path)
            assert str(info.value) == expected
        else:
            assert load_matrix_csv(path).values.tolist() == expected

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0,1\r1,0\r\n\n0,\xe9\n")
        with pytest.raises(ValidationError, match="^line 4: not UTF-8 text$"):
            load_matrix_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(csv_texts(), st.text(alphabet="019.,-+e_ \t\r\nainf#\ufeff\u0661\xa0", max_size=40)))
    def test_matches_the_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            got = load_matrix_csv(path).values
        except ValidationError as exc:
            got = str(exc)
        expected = line_reader(path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


def _first_label_error(labels, k):
    """The text of the first error that a label-by-label pass raises on a
    partition of at least one item with k >= 1, or None if it passes."""
    top = -1
    for i, lab in enumerate(labels):
        if not isinstance(lab, (int, np.integer)):
            return "assignment labels must be integers"
        if lab < 0 or lab >= k:
            return f"label {lab} out of range [0, {k})"
        if lab > top + 1:
            return f"assignment is not canonical at position {i}: label {lab} appears before {top + 1}"
        top = max(top, int(lab))
    return None


_RETYPES = {
    "int": int, "int8": np.int8, "int64": np.int64, "bool": bool, "np.bool": np.bool_,
    "float": float, "str": str, "negative": lambda lab: -lab - 1,
}


@st.composite
def _labelings(draw):
    """(labels, k): a restricted growth string, possibly with more labels
    than k, whose labels are each kept or retyped or moved out of range."""
    k = draw(st.integers(1, 4))
    labels, top = [], -1
    for _ in range(draw(st.integers(1, 12))):
        labels.append(draw(st.integers(0, top + 1)))
        top = max(top, labels[-1])
    kinds = st.sampled_from(["int"] * 8 + sorted(_RETYPES) + ["at least k"])
    out = []
    for lab in labels:
        kind = draw(kinds)
        out.append(lab + k if kind == "at least k" else _RETYPES[kind](lab))
    return tuple(out), k


class TestPartition:
    def test_valid(self):
        p = Partition((0, 0, 1, 1), 2)
        assert p.n_items == 4
        assert p.n_clusters == 2
        assert p.clusters == ((0, 1), (2, 3))
        assert p.one_based_clusters() == ((1, 2), (3, 4))

    def test_rejects_non_canonical(self):
        with pytest.raises(ValidationError):
            Partition((1, 0), 2)
        with pytest.raises(ValidationError):
            Partition((0, 2), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Partition((0, 1), 1)
        with pytest.raises(ValidationError):
            Partition((), 1)

    def test_from_labels_canonicalizes(self):
        p = Partition.from_labels([5, 5, 2, 5])
        assert p.assignment == (0, 0, 1, 0)

    @pytest.mark.parametrize("k", [None, 2])
    def test_from_labels_rejects_no_items(self, k):
        with pytest.raises(ValidationError, match="partition needs at least one item"):
            Partition.from_labels([], k)

    def test_equality_ignores_k(self):
        assert Partition((0, 1), 2) == Partition((0, 1), 5)
        assert hash(Partition((0, 1), 2)) == hash(Partition((0, 1), 5))
        assert Partition((0, 0), 1) != Partition((0, 1), 2)

    @settings(max_examples=400, deadline=None)
    @given(_labelings())
    def test_validation_is_the_label_by_label_checks(self, case):
        """A partition is accepted exactly when the label-by-label checks
        accept it, and rejected with the text of the first check to fail."""
        labels, k = case
        try:
            got = Partition(labels, k).assignment
        except ValidationError as exc:
            got = str(exc)
        expected = _first_label_error(labels, k)
        assert got == (labels if expected is None else expected)

    @pytest.mark.parametrize("labels, k, text", [
        ((0, 2, "a"), 3, "assignment is not canonical at position 1: label 2 appears before 1"),
        ((0, 1.0), 2, "assignment labels must be integers"),
        ((0, np.int8(-1)), 2, "label -1 out of range [0, 2)"),
        ((0, 1, np.int64(2)), 2, "label 2 out of range [0, 2)"),
        ((0, np.bool_(True)), 2, "assignment labels must be integers"),
    ])
    def test_rejections_name_the_first_bad_label(self, labels, k, text):
        with pytest.raises(ValidationError) as exc:
            Partition(labels, k)
        assert str(exc.value) == text

    @pytest.mark.parametrize("labels", [(False, True, True), (0, np.int8(1), np.int64(0), True)])
    def test_accepts_integer_labels_of_any_integer_type(self, labels):
        assert Partition(labels, 2).n_clusters == 2

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=10))
    def test_canonicalization_idempotent(self, labels):
        once = canonical_labels(labels)
        assert canonical_labels(once) == once

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=10))
    def test_from_labels_preserves_grouping(self, labels):
        p = Partition.from_labels(labels)
        # same items grouped together before and after relabeling
        for i in range(len(labels)):
            for j in range(len(labels)):
                assert (labels[i] == labels[j]) == (
                    p.assignment[i] == p.assignment[j]
                )

    @given(st.integers(1, 7).flatmap(
        lambda k: st.tuples(st.lists(st.integers(0, k - 1), min_size=1, max_size=30), st.just(k))
    ))
    def test_array_labels_canonicalize_as_from_labels(self, case):
        labels, k = case
        fast = _canonical_partition(np.array(labels), k)
        slow = Partition.from_labels(labels, k=k)
        assert fast.assignment == slow.assignment and fast.k == slow.k == k
        assert all(type(lab) is int for lab in fast.assignment)


class TestEnumeratePartitions:
    def test_single_cluster_forced(self):
        parts = list(enumerate_partitions(3, 1))
        assert [p.assignment for p in parts] == [(0, 0, 0)]

    def test_bell_3(self):
        assert len(list(enumerate_partitions(3, 3))) == 5

    def test_t4_k2(self):
        # S(4,1) + S(4,2) = 1 + 7
        assert len(list(enumerate_partitions(4, 2))) == 8

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_matches_label_string_bruteforce(self, t):
        for max_k in range(1, t + 1):
            ours = {p.assignment for p in enumerate_partitions(t, max_k)}
            assert ours == partitions_by_label_strings(t, max_k)

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_full_enumeration_matches_block_recursion(self, t):
        ours = [p.assignment for p in enumerate_partitions(t, t)]
        assert len(ours) == len(set(ours)) == BELL[t]
        assert set(ours) == partitions_by_block_recursion(t)

    @pytest.mark.parametrize("t,max_k", [(5, 2), (6, 3), (7, 2), (8, 4)])
    def test_counts_match_stirling_sums(self, t, max_k):
        expected = sum(stirling2(t, j) for j in range(1, max_k + 1))
        assert sum(1 for _ in enumerate_partitions(t, max_k)) == expected

    def test_lexicographic_order(self):
        parts = [p.assignment for p in enumerate_partitions(4, 4)]
        assert parts == sorted(parts)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            enumerate_partitions(15, 2)

    def test_invalid_bounds(self):
        with pytest.raises(ValidationError):
            enumerate_partitions(3, 0)
        with pytest.raises(ValidationError):
            enumerate_partitions(3, 4)


class TestBiclustering:
    def test_grid_shape_validated(self):
        import numpy as np
        from crossclust import Biclustering

        rows = Partition((0, 0, 1), 2)
        cols = Partition((0, 1), 2)
        good = Biclustering(rows, cols, np.zeros((2, 2)))
        assert not good.per_bicluster_costs.any()
        with pytest.raises(ValidationError):
            Biclustering(rows, cols, np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            Biclustering(rows, cols, np.full((2, 2), -1.0))
