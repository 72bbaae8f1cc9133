"""Independent brute-force reference implementations.

Everything here is deliberately written in plain Python (statistics
module, nested loops, label-string enumeration) so that it shares no code
path with the library being tested.  Expected values in the test suite
are either computed by these oracles or were frozen from them.
"""

import statistics
from fractions import Fraction
from itertools import product


def canonical(labels):
    """First-occurrence relabeling, independent of the library's version."""
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def partitions_by_label_strings(t, max_k):
    """All partitions of t items into <= max_k clusters, via brute force
    over every label string followed by canonicalization."""
    found = set()
    for labels in product(range(max_k), repeat=t):
        found.add(canonical(labels))
    return found


def partitions_by_block_recursion(t):
    """All set partitions via the insert-into-each-block recursion."""

    def rec(items):
        if not items:
            yield []
            return
        rest, last = items[:-1], items[-1]
        for smaller in rec(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1 :]
            yield smaller + [[last]]

    result = set()
    for blocks in rec(list(range(t))):
        labels = [0] * t
        for lab, block in enumerate(blocks):
            for item in block:
                labels[item] = lab
        result.add(canonical(labels))
    return result


def restricted_growth_strings(t, max_k):
    """Lazily, every restricted growth string of length t with labels below
    max_k, in lexicographic order, by depth-first extension: after a
    prefix whose largest label is top come the labels 0..top + 1."""

    def extend(prefix, top):
        if len(prefix) == t:
            yield tuple(prefix)
            return
        for lab in range(min(top + 2, max_k)):
            yield from extend(prefix + [lab], max(top, lab))

    return extend([0], 0)


def group_keys(labels, k):
    """The keys of the k groups of one label string, in label order: a
    group's bitmask, item i adding 1 << i, and 0 for an empty group.  With
    k == 1 the one group is keyed by item 0 alone."""
    keys = [0] * k
    for item, lab in enumerate(labels):
        if k > 1 or item == 0:
            keys[lab] += 1 << item
    return tuple(keys)


def stirling2(n, k):
    """Stirling numbers of the second kind by the standard recurrence."""
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def l1_cost(values):
    """Absolute-deviation sum about the median interval midpoint.  Any
    point of the median interval minimizes the sum, so this must agree
    with a lower-median implementation."""
    med = statistics.median(values)
    return sum(abs(v - med) for v in values)


def l1_cost_best_center(values):
    """Absolute-deviation sum minimized over all candidate centers drawn
    from the values themselves (the optimum is always attained there)."""
    return min(sum(abs(v - c) for v in values) for c in values)


def l1_cost_lower_median(values):
    """Absolute-deviation sum about the lower median, found by a sort:
    the rule the library's L1 costs follow."""
    med = sorted(values)[(len(values) - 1) // 2]
    return sum(abs(v - med) for v in values)


def unpadded(stack):
    """The blocks of a padded stack, as its layout defines them: block i
    is ``values[i, :rows[i], :cols[i]]``."""
    return [v[:n, :m] for v, n, m in zip(stack.values, stack.rows[:, 0], stack.cols[:, 0])]


def l2_cost(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def _cost(values, norm):
    return l1_cost(values) if norm == "l1" else l2_cost(values)


def oneway_row_cost_naive(matrix, assignment, norm):
    """Row-clustering objective by direct double loop."""
    n = len(matrix)
    m = len(matrix[0])
    total = 0.0
    for lab in set(assignment):
        rows = [i for i in range(n) if assignment[i] == lab]
        for j in range(m):
            total += _cost([matrix[i][j] for i in rows], norm)
    return total


def oneway_col_cost_naive(matrix, assignment, norm):
    transposed = [list(col) for col in zip(*matrix)]
    return oneway_row_cost_naive(transposed, assignment, norm)


def biclustering_cost_naive(matrix, row_assignment, col_assignment, norm):
    """Sum of pooled block costs by direct loops."""
    n = len(matrix)
    m = len(matrix[0])
    total = 0.0
    for r in set(row_assignment):
        rows = [i for i in range(n) if row_assignment[i] == r]
        for c in set(col_assignment):
            cols = [j for j in range(m) if col_assignment[j] == c]
            total += _cost([matrix[i][j] for i in rows for j in cols], norm)
    return total


def exact_biclustering_naive(matrix, k_r, k_c, norm):
    """Minimum biclustering cost by exhaustive label-string enumeration.
    Only usable on tiny instances."""
    n = len(matrix)
    m = len(matrix[0])
    best = float("inf")
    for rows in partitions_by_label_strings(n, min(k_r, n)):
        for cols in partitions_by_label_strings(m, min(k_c, m)):
            cost = biclustering_cost_naive(matrix, rows, cols, norm)
            best = min(best, cost)
    return best


def exact_oneway_naive(matrix, k, norm):
    """Minimum row-clustering cost by exhaustive enumeration."""
    n = len(matrix)
    return min(
        oneway_row_cost_naive(matrix, assignment, norm)
        for assignment in partitions_by_label_strings(n, min(k, n))
    )


def first_argmin(candidates, cost, tol):
    """The first candidate, in the order given, whose cost is within
    ``tol`` of the least cost, with that cost."""
    costs = [cost(c) for c in candidates]
    least = min(costs)
    for cand, value in zip(candidates, costs):
        if value <= least + tol:
            return cand, value


def _exact(matrix):
    """Entries as exact rationals, so that tied costs compare equal."""
    return [[Fraction(v) for v in row] for row in matrix]


def exact_oneway_argmin_naive(matrix, k, norm, rtol):
    """Optimal row partition and its cost, in exact rational arithmetic.
    Candidates run in canonical order (restricted growth strings sorted
    lexicographically); costs within ``rtol`` times the one-cluster cost
    of the least count as tied."""
    matrix = _exact(matrix)
    n = len(matrix)
    scale = oneway_row_cost_naive(matrix, (0,) * n, norm)
    parts = sorted(partitions_by_label_strings(n, min(k, n)))
    return first_argmin(parts, lambda a: oneway_row_cost_naive(matrix, a, norm), rtol * scale)


def exact_biclustering_argmin_naive(matrix, k_r, k_c, norm, rtol):
    """Optimal (row partition, column partition) pair and its cost, with
    the arithmetic and tie rule of :func:`exact_oneway_argmin_naive`;
    pairs run with rows outer and columns inner."""
    matrix = _exact(matrix)
    n = len(matrix)
    m = len(matrix[0])
    scale = biclustering_cost_naive(matrix, (0,) * n, (0,) * m, norm)
    pairs = [
        (rows, cols)
        for rows in sorted(partitions_by_label_strings(n, min(k_r, n)))
        for cols in sorted(partitions_by_label_strings(m, min(k_c, m)))
    ]
    return first_argmin(
        pairs, lambda p: biclustering_cost_naive(matrix, p[0], p[1], norm), rtol * scale
    )
