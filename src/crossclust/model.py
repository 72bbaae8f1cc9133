"""Core data model: dense matrices, canonical set partitions, biclusters.

Partitions are stored as restricted growth strings: the first item gets
label 0 and every later item is labeled either like some earlier item or
with the smallest label not used yet.  Each set partition therefore has
exactly one representation and partition equality is tuple equality.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceededError, ValidationError

#: Hard ceiling for exhaustive partition enumeration.  The number of set
#: partitions of t items grows like the Bell numbers and Bell(14) is
#: already ~1.9e8, the edge of what a desk-scale run can sweep.
ENUMERATION_CAP = 14


class DataMatrix:
    """Immutable dense matrix of finite reals with a validated 0/1 flag.

    When ``is_binary`` is omitted it is auto-detected from the entries;
    an explicit value overrides detection, except that claiming binary
    for a matrix with entries outside {0, 1} is rejected.
    """

    __slots__ = ("_values", "is_binary")

    def __init__(self, values, is_binary: bool | None = None):
        arr = np.array(values, dtype=float, order="C")
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("matrix values must form a nonempty 2-D grid")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("matrix entries must all be finite")
        detected = bool(np.all((arr == 0.0) | (arr == 1.0)))
        if is_binary is None:
            is_binary = detected
        elif is_binary and not detected:
            raise ValidationError("binary flag set but entries are not all 0 or 1")
        arr.setflags(write=False)
        self._values = arr
        self.is_binary = bool(is_binary)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_rows(self) -> int:
        return self._values.shape[0]

    @property
    def n_cols(self) -> int:
        return self._values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    def transpose(self) -> "DataMatrix":
        return DataMatrix(self._values.T.copy(), is_binary=self.is_binary)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataMatrix):
            return NotImplemented
        return self.is_binary == other.is_binary and np.array_equal(
            self._values, other._values
        )

    def __repr__(self) -> str:
        kind = "binary" if self.is_binary else "real"
        return f"DataMatrix({self.n_rows}x{self.n_cols}, {kind})"


def load_matrix_csv(path, binary: bool | None = None) -> DataMatrix:
    """Read a headerless numeric CSV file, one matrix row per line.

    One ``np.loadtxt`` call parses a well-formed file.  A file it rejects,
    or one with a non-finite value, is parsed again line by line, which
    accepts every field Python's ``float`` accepts (``1_0``, Unicode
    digits) and ignores blank and whitespace-only lines.  That pass raises
    :class:`ValidationError` with the offending 1-based line number on
    bytes that are not UTF-8, ragged rows, non-numeric fields or
    non-finite values (``nan``, ``inf``).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    values = None
    if raw and not raw.isspace():  # loadtxt warns on a file with no data
        try:
            values = np.loadtxt(
                io.BytesIO(raw), delimiter=",", ndmin=2, comments=None, dtype=float,
                encoding="utf-8",
            )
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        values = _parse_csv_lines(raw)
    return DataMatrix(values, is_binary=binary)


def _parse_csv_lines(raw: bytes) -> list[list[float]]:
    """The line-by-line pass of :func:`load_matrix_csv`."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # line breaks as text mode reads them
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValidationError(f"line {lineno}: not UTF-8 text") from exc
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ValidationError(
                f"line {lineno}: non-numeric field in matrix file"
            ) from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"line {lineno}: expected {width} fields, got {len(row)}"
            )
        # a finite sum proves every value finite; an overflowing one does not
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ValidationError(f"line {lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise ValidationError("matrix file contains no rows")
    return rows


def canonical_labels(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel an arbitrary label sequence into restricted-growth form."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of T items to at most ``k`` clusters, in canonical form.

    ``assignment`` must be a restricted growth string; use
    :meth:`from_labels` to canonicalize arbitrary labelings.  Two
    partitions compare equal iff their assignments are equal; the
    declared ``k`` is a capacity, not part of the identity.
    """

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.assignment) < 1:
            raise ValidationError("partition needs at least one item")
        if self.k < 1:
            raise ValidationError("cluster bound k must be >= 1")
        top = -1
        for i, lab in enumerate(self.assignment):
            if not isinstance(lab, (int, np.integer)):
                raise ValidationError("assignment labels must be integers")
            if lab < 0 or lab >= self.k:
                raise ValidationError(f"label {lab} out of range [0, {self.k})")
            if lab > top + 1:
                raise ValidationError(
                    f"assignment is not canonical at position {i}: "
                    f"label {lab} appears before {top + 1}"
                )
            top = max(top, int(lab))

    @classmethod
    def from_labels(cls, labels: Sequence[int], k: int | None = None) -> "Partition":
        canon = canonical_labels(labels)
        used = max(canon) + 1
        return cls(canon, used if k is None else k)

    @property
    def n_items(self) -> int:
        return len(self.assignment)

    @property
    def n_clusters(self) -> int:
        return max(self.assignment) + 1

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Member indices per cluster, in label order."""
        groups: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for idx, lab in enumerate(self.assignment):
            groups[lab].append(idx)
        return tuple(tuple(g) for g in groups)

    def one_based_clusters(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(i + 1 for i in g) for g in self.clusters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash(self.assignment)

    def __repr__(self) -> str:
        return f"Partition({list(self.assignment)}, k={self.k})"


def enumerate_partitions(t: int, max_k: int) -> Iterator[Partition]:
    """Yield every partition of ``t`` items into at most ``max_k``
    nonempty clusters, each exactly once, in restricted-growth-string
    (lexicographic) order.

    The total count is sum of Stirling numbers S(t, j) for j = 1..max_k.
    Enumeration is refused outright for t > 14 since the Bell-number
    growth makes it intractable.
    """
    if t > ENUMERATION_CAP:
        raise CapExceededError(
            f"partition enumeration capped at {ENUMERATION_CAP} items, got {t}"
        )
    if t < 1:
        raise ValidationError("item count must be >= 1")
    if max_k < 1 or max_k > t:
        raise ValidationError(f"cluster bound must be in [1, {t}], got {max_k}")
    return _walk_partitions(t, max_k)


def _walk_partitions(t: int, max_k: int) -> Iterator[Partition]:
    """Restricted growth strings in lexicographic order: each step bumps the
    rightmost label that may grow and resets every label after it to 0.

    The strings are canonical by construction, so the partitions skip the
    validation of ``Partition.__post_init__``.
    """
    new = object.__new__
    labels = [0] * t
    top = [0] * t  # top[i]: the largest label among labels[: i + 1]
    last = max_k - 1
    while True:
        part = new(Partition)
        part.__dict__.update(assignment=tuple(labels), k=max_k)
        yield part
        i = t - 1
        while i > 0 and (labels[i] > top[i - 1] or labels[i] == last):
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        high = top[i] = max(top[i - 1], labels[i])
        for j in range(i + 1, t):
            labels[j] = 0
            top[j] = high


@dataclass(frozen=True, eq=False)
class Bicluster:
    """A block of a matrix induced by a row subset and a column subset.

    Both index sets must be nonempty, strictly increasing and in bounds.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]
    source: DataMatrix

    def __post_init__(self):
        _check_index_set(self.row_set, self.source.n_rows, "row")
        _check_index_set(self.col_set, self.source.n_cols, "column")

    @classmethod
    def whole(cls, x: DataMatrix) -> "Bicluster":
        return cls(tuple(range(x.n_rows)), tuple(range(x.n_cols)), x)

    @property
    def n(self) -> int:
        return len(self.row_set)

    @property
    def m(self) -> int:
        return len(self.col_set)

    @cached_property
    def values(self) -> np.ndarray:
        block = self.source.values[np.ix_(self.row_set, self.col_set)]
        block.setflags(write=False)
        return block


def _check_index_set(indices: tuple[int, ...], bound: int, axis: str) -> None:
    if len(indices) == 0:
        raise ValidationError(f"{axis} subset must be nonempty")
    prev = -1
    for i in indices:
        if not isinstance(i, (int, np.integer)):
            raise ValidationError(f"{axis} indices must be integers")
        if i <= prev:
            raise ValidationError(f"{axis} subset must be strictly increasing")
        if i < 0 or i >= bound:
            raise ValidationError(f"{axis} index {i} out of bounds [0, {bound})")
        prev = i


def submatrix(x: DataMatrix, rows: Sequence[int], cols: Sequence[int]) -> Bicluster:
    """View of ``x`` restricted to the given sorted row/column subsets."""
    return Bicluster(tuple(int(r) for r in rows), tuple(int(c) for c in cols), x)


@dataclass(frozen=True, eq=False)
class Biclustering:
    """A row partition crossed with a column partition, plus the cost of
    every induced block (indexed by row-cluster label and column-cluster
    label)."""

    rows: Partition
    cols: Partition
    per_bicluster_costs: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.per_bicluster_costs, dtype=float)
        expected = (self.rows.n_clusters, self.cols.n_clusters)
        if grid.shape != expected:
            raise ValidationError(
                f"cost grid shape {grid.shape} does not match cluster counts {expected}"
            )
        if not np.all(np.isfinite(grid)) or np.any(grid < -1e-9):
            raise ValidationError("per-bicluster costs must be finite and >= 0")
        grid.setflags(write=False)
        object.__setattr__(self, "per_bicluster_costs", grid)

    @property
    def total_cost(self) -> float:
        return float(self.per_bicluster_costs.sum())
