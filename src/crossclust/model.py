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
        """The transposed matrix, as a read-only C-ordered copy; the entries
        were validated once, so ``is_binary`` carries over unchecked."""
        t = object.__new__(DataMatrix)
        t._values = self._values.T.copy()
        t._values.setflags(write=False)
        t.is_binary = self.is_binary
        return t

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
    # partition_blocks shorter than t, so its recursion here ends; blocks of
    # 256 keep the lists ``_partitions`` makes of a block's rows small
    return _partitions(partition_blocks(t, max_k, 1 << 8), max_k)


def _partitions(blocks: Iterator[np.ndarray], k: int) -> Iterator[Partition]:
    """The rows of label blocks as partitions.  The rows are canonical by
    construction, so they skip the validation of ``Partition.__post_init__``:
    the walk makes one object per partition, and validated, a walk of 12
    items into at most 3 clusters takes about four times as long."""
    new = object.__new__
    for block in blocks:
        for labels in block.tolist():
            part = new(Partition)
            part.__dict__.update(assignment=tuple(labels), k=k)
            yield part


def _canonical_partition(labels: np.ndarray, k: int) -> Partition:
    """``Partition.from_labels(labels.tolist(), k)`` for an integer array
    of labels in [0, k): numpy relabels it in first-occurrence order, and
    the result is validated as any ``Partition``."""
    first = np.full(k, labels.size)  # labels absent from the array sort last
    np.minimum.at(first, labels, np.arange(labels.size))
    relabel = np.empty(k, dtype=int)
    relabel[np.argsort(first)] = np.arange(k)
    return Partition(tuple(relabel[labels].tolist()), k)


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
    (P, t) int8 label blocks of at most ``rows`` rows each: the label
    blocks of :func:`keyed_blocks`."""
    return (labels for labels, _ in keyed_blocks(t, k, rows))


def keyed_blocks(t: int, k: int, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of :func:`partition_blocks`, each with the (k, P) int16
    keys of its partitions' groups, cluster-major.  A group is keyed by
    its bitmask, item i adding 1 << i; an empty group has key 0.  With
    k == 1 the all-in-one partition is one zero row, under no cap, and
    its one group is keyed by item 0 alone, so a long axis needs no wide
    mask.

    Only the prefixes of the first p labels are walked, on
    :func:`enumerate_partitions`, the least p >= 1 with k**(t - p) <= rows,
    so that no prefix has more than ``rows`` completions.  These, with
    their keys, depend only on the prefix's largest label, so each table
    of them is built once (:func:`_completions`) and set next to every
    such prefix: a group's key is its prefix's, plus its completion's
    shifted left by p.
    """
    if rows < 1:
        raise ValidationError(f"block size must be >= 1, got {rows}")
    if k == 1:
        return iter([(np.zeros((1, t), dtype=np.int8), np.ones((1, 1), dtype=np.int16))])
    _check_enumeration(t, k)
    return _blocks(t, k, rows)


def _blocks(t: int, k: int, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    s = t - 1  # labels per completion
    while k**s > rows:
        s -= 1
    p = t - s
    # partitions along the last axis of labels and keys alike: each write
    # below is then of whole rows, and a label block is a transposed view
    labels, keys, size = np.empty((t, rows), dtype=np.int8), np.empty((k, rows), dtype=np.int16), 0
    # the completions by the prefix's largest label, their keys shifted past it
    tails = [_completions(s, k, top) for top in range(min(k, p))]
    tails = [(tail, tail_keys << p) for tail, tail_keys in tails]
    for prefix in enumerate_partitions(p, min(k, p)):
        tail, tail_keys = tails[prefix.n_clusters - 1]
        if size + tail.shape[1] > rows:
            yield labels[:, :size].T, keys[:, :size]
            labels, keys, size = np.empty_like(labels), np.empty_like(keys), 0
        end = size + tail.shape[1]
        head = [0] * k  # the prefix's group keys
        for i, c in enumerate(prefix.assignment):
            head[c] += 1 << i
        labels[:p, size:end] = np.array(prefix.assignment, dtype=np.int8)[:, None]
        labels[p:, size:end] = tail
        np.add(tail_keys, np.array(head, dtype=np.int16)[:, None], out=keys[:, size:end])
        size = end
    yield labels[:, :size].T, keys[:, :size]


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
def _completions(s: int, k: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (s, C) int8 table of the C label strings, one per column,
    that extend a restricted growth string with largest label ``top`` by
    ``s`` labels, below ``k``, in lexicographic order, with the (k, C)
    int16 keys of their groups (see :func:`keyed_blocks`), item 0 the
    first label.  Built by prefix extension: a string whose largest label
    is h gets the children 0..min(h + 1, k - 1), and child c adds 1 << j
    to key c."""
    labels, tops = np.zeros((0, 1), dtype=np.int8), np.array([top])
    keys = np.zeros((k, 1), dtype=np.int16)
    for j in range(s):
        counts = np.minimum(tops + 1, k - 1) + 1
        parent = np.repeat(np.arange(len(tops)), counts)
        child = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        labels = np.vstack([labels[:, parent], child.astype(np.int8)])
        keys = keys[:, parent]
        keys[child, np.arange(len(parent))] += 1 << j
        tops = np.maximum(tops[parent], child)
    labels.setflags(write=False)
    keys.setflags(write=False)
    return labels, keys


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
