"""Instance generators: the adversarial 4 x (4q-1) family, plus seeded
random and planted matrices for sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import Norm
from .errors import ValidationError
from .model import DataMatrix, Partition
from .oneway import SolverMode
from .rng import uniforms
from .search import exact_biclustering, run_scheme

#: Known outcomes on the adversarial family (0-based row labels): the
#: scheme pairs rows (0,1) and (2,3); the optimum pairs (0,2) and (1,3).
SCHEME_ROW_ASSIGNMENT = (0, 0, 1, 1)
OPTIMAL_ROW_ASSIGNMENT = (0, 1, 0, 1)


def worst_case_matrix(q: int) -> DataMatrix:
    """Binary 4 x (4q-1) matrix over three column groups of widths
    q, q, 2q-1 with row patterns (0,1,0), (0,1,1), (1,0,0), (1,0,1)."""
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    patterns = ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    widths = (q, q, 2 * q - 1)
    arr = np.zeros((4, 4 * q - 1))
    for i, pattern in enumerate(patterns):
        offset = 0
        for bit, width in zip(pattern, widths):
            if bit:
                arr[i, offset : offset + width] = 1.0
            offset += width
    return DataMatrix(arr)


@dataclass(frozen=True, eq=False)
class WorstCaseReport:
    q: int
    l_scheme: float
    l_star: float
    ratio: float
    scheme_rows: Partition
    optimal_rows: Partition
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def worst_case_report(q: int) -> WorstCaseReport:
    """Run the exact scheme (2 row clusters, 1 column cluster, L1) and the
    oracle on the family member, asserting the known costs 8q-2 and 4q and
    the known partitions.  Mismatches are reported as failures, never
    silently accepted: they would mean an implementation bug."""
    x = worst_case_matrix(q)
    scheme = run_scheme(x, 2, 1, Norm.L1, SolverMode.exact())
    opt = exact_biclustering(x, 2, 1, Norm.L1)
    failures: list[str] = []

    def as_int(value: float, label: str) -> int:
        if abs(value - round(value)) > 1e-9:
            failures.append(f"{label} = {value} is not integral")
        return int(round(value))

    l_scheme = as_int(scheme.breakdown.l, "scheme cost")
    l_star = as_int(opt.cost, "optimal cost")
    if l_scheme != 8 * q - 2:
        failures.append(f"scheme cost {l_scheme} != {8 * q - 2}")
    if l_star != 4 * q:
        failures.append(f"optimal cost {l_star} != {4 * q}")
    if scheme.biclustering.rows.assignment != SCHEME_ROW_ASSIGNMENT:
        failures.append(
            f"scheme rows {scheme.biclustering.rows.assignment} != {SCHEME_ROW_ASSIGNMENT}"
        )
    if opt.rows.assignment != OPTIMAL_ROW_ASSIGNMENT:
        failures.append(f"optimal rows {opt.rows.assignment} != {OPTIMAL_ROW_ASSIGNMENT}")
    return WorstCaseReport(
        q=q,
        l_scheme=float(l_scheme),
        l_star=float(l_star),
        ratio=l_scheme / l_star,
        scheme_rows=scheme.biclustering.rows,
        optimal_rows=opt.rows,
        failures=tuple(failures),
    )


def random_binary_matrix(n: int, m: int, ones_probability: float, seed: int) -> DataMatrix:
    """I.i.d. Bernoulli 0/1 entries drawn row-major from one seeded stream."""
    if n < 1 or m < 1:
        raise ValidationError("matrix dimensions must be >= 1")
    if not 0.0 <= ones_probability <= 1.0:
        raise ValidationError(f"ones probability must be in [0, 1], got {ones_probability}")
    return DataMatrix(uniforms([seed], [n * m]).reshape(n, m) < ones_probability)


def random_real_matrix(n: int, m: int, seed: int) -> DataMatrix:
    """I.i.d. uniform [0, 1) entries drawn row-major from one seeded stream."""
    if n < 1 or m < 1:
        raise ValidationError("matrix dimensions must be >= 1")
    return DataMatrix(uniforms([seed], [n * m]).reshape(n, m))


def planted_real_matrix(n: int, m: int, seed: int) -> DataMatrix:
    """Two row groups crossed with two column groups, each block a uniform
    level plus additive uniform noise in [-0.05, 0.05).  Pure uniform
    matrices make both costs large and uninformative; planted structure
    gives the solvers something real to find while the guarantees must
    still hold."""
    if n < 1 or m < 1:
        raise ValidationError("matrix dimensions must be >= 1")
    u = uniforms([seed], [4 + n * m])
    levels = u[:4].reshape(2, 2)
    lower = (np.arange(n) >= (n + 1) // 2).astype(int)
    right = (np.arange(m) >= (m + 1) // 2).astype(int)
    offsets = 0.1 * (u[4:].reshape(n, m) - 0.5)
    return DataMatrix(levels[lower[:, None], right] + offsets)
