"""Core data model: dense matrices, canonical set partitions, biclusterings.

Partitions are stored as restricted growth strings: the first item gets
label 0 and every later item is labeled either like some earlier item or
with the smallest label not used yet.  Each set partition therefore has
exactly one representation and partition equality is tuple equality.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceededError, ValidationError

#: Hard ceiling for exhaustive partition enumeration.  The number of set
#: partitions of t items grows like the Bell numbers and Bell(14) is
#: already ~1.9e8, the edge of what a desk-scale run can sweep.
ENUMERATION_CAP = 14


def _as_floats(values, copy: bool = False) -> np.ndarray:
    """``values`` as a float array, a C-ordered copy with ``copy``.  What
    numpy cannot read as numbers of one rectangular shape, such as ragged
    rows or text, raises :class:`ValidationError`, not numpy's error."""
    try:
        return np.array(values, dtype=float, order="C") if copy else np.asarray(values, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValidationError("values must be numbers of one rectangular shape") from exc


class DataMatrix:
    """Immutable dense matrix of finite reals.

    ``is_binary`` holds exactly when every entry is 0 or 1: the input
    class, and with it the L1 certificate, is read off the entries.
    """

    __slots__ = ("_values", "is_binary")

    def __init__(self, values):
        arr = _as_floats(values, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("matrix values must form a nonempty 2-D grid")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("matrix entries must all be finite")
        arr.setflags(write=False)
        self._values = arr
        self.is_binary = bool(np.all((arr == 0.0) | (arr == 1.0)))

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
        return DataMatrix(self._values.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataMatrix):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        kind = "binary" if self.is_binary else "real"
        return f"DataMatrix({self.n_rows}x{self.n_cols}, {kind})"


def load_matrix_csv(path) -> DataMatrix:
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
    return DataMatrix(values)


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
        # the loop's checks over the whole tuple at once: integer labels, first
        # used in the order 0, 1, ..., d - 1, with d <= k; the loop below only
        # names the first bad label
        types = set(map(type, self.assignment))
        if types == {int} or all(issubclass(t, (int, np.integer)) for t in types):
            firsts = list(dict.fromkeys(self.assignment))
            if len(firsts) <= self.k and firsts == list(range(len(firsts))):
                return
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
        return cls(canon, max(canon, default=0) + 1 if k is None else k)

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
    growth makes it intractable.  This is a view of
    :func:`partition_blocks`, one :class:`Partition` per row; the exact
    solvers walk only prefixes here.
    """
    _check_enumeration(t, max_k)
    # blocks of at least 14 rows (>= max_k) keep the prefixes of
    # partition_blocks shorter than t, so its recursion here ends
    return _partitions(partition_blocks(t, max_k, 1 << 12), max_k)


def _partitions(blocks: Iterator[np.ndarray], k: int) -> Iterator[Partition]:
    """The rows of label blocks as partitions.  The rows are canonical by
    construction, so they skip the validation of ``Partition.__post_init__``."""
    new = object.__new__
    for block in blocks:
        for labels in block.tolist():
            part = new(Partition)
            part.__dict__.update(assignment=tuple(labels), k=k)
            yield part


def _canonical_partition(labels: np.ndarray, k: int) -> Partition:
    """``Partition.from_labels(labels.tolist(), k)`` for an integer array
    of labels in [0, k): numpy relabels it in first-occurrence order, which
    is canonical by construction, so the result skips the validation of
    ``Partition.__post_init__`` as :func:`_partitions` does."""
    first = np.full(k, labels.size)  # labels absent from the array sort last
    np.minimum.at(first, labels, np.arange(labels.size))
    relabel = np.empty(k, dtype=int)
    relabel[np.argsort(first)] = np.arange(k)
    part = object.__new__(Partition)
    part.__dict__.update(assignment=tuple(relabel[labels].tolist()), k=k)
    return part


def _check_enumeration(t: int, max_k: int) -> None:
    if t > ENUMERATION_CAP:
        raise CapExceededError(
            f"partition enumeration capped at {ENUMERATION_CAP} items, got {t}"
        )
    if t < 1:
        raise ValidationError("item count must be >= 1")
    if max_k < 1 or max_k > t:
        raise ValidationError(f"cluster bound must be in [1, {t}], got {max_k}")


def partition_blocks(t: int, k: int, rows: int) -> Iterator[np.ndarray]:
    """The partitions of :func:`enumerate_partitions`, in its order, as
    (P, t) int8 label blocks of at most ``rows`` rows each.

    Only the prefixes of the first p labels are walked, on
    :func:`enumerate_partitions`, the least p >= 1 with k**(t - p) <= rows,
    so that no prefix has more than ``rows`` completions.  These depend
    only on the prefix's largest label, so each table of them is built
    once (:func:`_completions`) and set next to every such prefix.  With
    k == 1 the all-in-one partition is one zero row, under no cap.
    """
    if rows < 1:
        raise ValidationError(f"block size must be >= 1, got {rows}")
    if k == 1:
        return iter([np.zeros((1, t), dtype=np.int8)])
    _check_enumeration(t, k)
    return _blocks(t, k, rows)


def _blocks(t: int, k: int, rows: int) -> Iterator[np.ndarray]:
    s = t - 1  # labels per completion
    while k**s > rows:
        s -= 1
    p = t - s
    buf, size = np.empty((rows, t), dtype=np.int8), 0
    for prefix in enumerate_partitions(p, min(k, p)):
        tail = _completions(s, k, prefix.n_clusters - 1)
        if size + len(tail) > rows:
            yield buf[:size]
            buf, size = np.empty((rows, t), dtype=np.int8), 0
        out = buf[size : size + len(tail)]
        out[:, :p], out[:, p:] = prefix.assignment, tail
        size += len(tail)
    yield buf[:size]


def partition_count(t: int, k: int) -> int:
    """Number of partitions of ``t`` items into at most ``k`` clusters: the
    sum of the Stirling numbers S(t, j), j = 1..k, by their recurrence
    S(i, j) = j S(i - 1, j) + S(i - 1, j - 1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(t):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


@lru_cache(maxsize=16)
def label_table(t: int, k: int) -> np.ndarray:
    """Read-only (P, t) int8 table of every partition of ``t`` items into
    at most ``k`` clusters, one label string per row, in the order of
    :func:`enumerate_partitions`; built once per (t, k)."""
    table = np.concatenate(list(partition_blocks(t, k, 1 << 12)))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _completions(s: int, k: int, top: int) -> np.ndarray:
    """Read-only (C, s) int8 table of the label strings that extend a
    restricted growth string with largest label ``top`` by ``s`` labels,
    below ``k``, in lexicographic order.  Built by prefix extension: a
    string whose largest label is h gets the children 0..min(h + 1, k - 1)."""
    labels, tops = np.zeros((1, 0), dtype=np.int8), np.array([top])
    for _ in range(s):
        counts = np.minimum(tops + 1, k - 1) + 1
        parent = np.repeat(np.arange(len(tops)), counts)
        child = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        labels = np.hstack([labels[parent], child[:, None].astype(np.int8)])
        tops = np.maximum(tops[parent], child)
    labels.setflags(write=False)
    return labels


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
