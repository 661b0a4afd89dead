"""Input-cluster analysis: per-block NED/MSE/PSNR and ED histograms.

The operand space is tiled into blocks of `cluster_size` consecutive
values per operand (16x16 blocks of 256 pairs each at width 8).  Each
block's NED is normalized by the block-local maximum exact product, so
blocks of small operands are judged against what they could actually
produce; the global normalization stays available in MetricReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fabric import CellGrid, eval_multiply_many
from .metrics import (MetricAccumulator, accumulate_arrays, chunk_operands,
                      combine_squares, fmt6, merge, psnr_from_mse,
                      square_partials, sweep_chunk_bounds)


@dataclass(frozen=True)
class ClusterSpec:
    width: int
    cluster_size: int = 16

    def __post_init__(self):
        side = 1 << self.width
        if self.cluster_size < 1 or side % self.cluster_size:
            raise ValueError(
                f"cluster size {self.cluster_size} must divide 2^{self.width}")

    @property
    def grid_side(self) -> int:
        return (1 << self.width) // self.cluster_size

    @property
    def total_clusters(self) -> int:
        return self.grid_side ** 2


@dataclass(frozen=True)
class ClusterCell:
    """Aggregates of one s*s block of operand pairs.

    `mse` is the raw mean squared ED (its count-weighted mean over all
    blocks reproduces the global MSE exactly).  `psnr` judges the block
    as an image scaled to its own peak product: the EDs are mapped onto
    the 0..255 range by 255/pmax_cluster before squaring, which is what
    makes blocks of small operands comparable to blocks of large ones.
    """

    ia: int                 # first-operand block index
    ib: int                 # second-operand block index
    mean_ed: float
    pmax_cluster: int
    ned: float
    mse: float
    psnr: float
    sum_ed: int             # exact integer mass, kept for conservation checks
    sum_ed_sq: int


@dataclass(frozen=True)
class ClusterReport:
    spec: ClusterSpec
    cells: tuple[ClusterCell, ...]    # row-major: ia * grid_side + ib
    totals: MetricAccumulator         # the whole-domain sweep the cells came from

    def cell(self, ia: int, ib: int) -> ClusterCell:
        return self.cells[ia * self.spec.grid_side + ib]

    @property
    def ned_avg(self) -> float:
        return sum(c.ned for c in self.cells) / len(self.cells)

    @property
    def ned_max(self) -> float:
        return max(c.ned for c in self.cells)

    @property
    def psnr_avg(self) -> float:
        """Mean over finite-PSNR cells; +inf cells are reported separately."""
        finite = [c.psnr for c in self.cells if c.psnr != math.inf]
        return sum(finite) / len(finite) if finite else math.inf

    @property
    def psnr_min(self) -> float:
        finite = [c.psnr for c in self.cells if c.psnr != math.inf]
        return min(finite) if finite else math.inf

    @property
    def infinite_psnr_count(self) -> int:
        return sum(1 for c in self.cells if c.psnr == math.inf)

    def count_ned_over(self, threshold: float) -> int:
        return sum(1 for c in self.cells if c.ned > threshold)

    def count_psnr_under(self, threshold: float) -> int:
        return sum(1 for c in self.cells if c.psnr < threshold)


def chunk_products(grid: CellGrid, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact and approximate products of one sweep chunk, each (hi - lo, 2^n)."""
    xs, ys = chunk_operands(grid.width, lo, hi)
    return xs * ys, eval_multiply_many(grid, xs, ys)


def cluster_sweep(grid: CellGrid, n: int | None = None,
                  spec: ClusterSpec | None = None) -> ClusterReport:
    """Aggregate every s*s operand block, and the whole domain, in one sweep.

    Each first-operand chunk is evaluated once.  It is merged into the
    global accumulator in chunk order (so `totals` equals
    `exhaustive_sweep`) and folded into per-block ED sums and int64
    squared-ED partials; a block taller than a chunk collects several
    chunks.  The partials become exact Python ints once, at the end.
    """
    if n is not None and n != grid.width:
        raise ValueError(f"sweep width {n} does not match grid width {grid.width}")
    if spec is None:
        spec = ClusterSpec(grid.width)
    elif spec.width != grid.width:
        raise ValueError("cluster spec width does not match grid width")
    bounds = sweep_chunk_bounds(grid.width)

    s = spec.cluster_size
    g = spec.grid_side
    totals = MetricAccumulator()
    sum_ed = np.zeros((g, g), dtype=np.int64)
    sq_parts = np.zeros((3, g, g), dtype=np.int64)
    for lo, hi in bounds:
        exact, approx = chunk_products(grid, lo, hi)
        totals = merge(totals, accumulate_arrays(exact, approx))
        rows = min(s, hi - lo)   # operand rows per block within this chunk
        blocks = np.abs(exact - approx).reshape(-1, rows, g, s)
        ia = slice(lo // s, lo // s + blocks.shape[0])
        sum_ed[ia] += blocks.sum(axis=(1, 3))
        sq_parts[:, ia] += square_partials(blocks, axis=(1, 3))

    pairs = s * s
    block_sums = sum_ed.tolist()
    block_squares = combine_squares(*sq_parts.astype(object)).tolist()
    cells = []
    for ia in range(g):
        for ib in range(g):
            block_sum = block_sums[ia][ib]
            block_sq = block_squares[ia][ib]
            mean_ed = block_sum / pairs
            mse = block_sq / pairs
            pmax = (s * ia + s - 1) * (s * ib + s - 1)
            scaled = mse * (255.0 / pmax) ** 2 if pmax else mse
            cells.append(ClusterCell(
                ia=ia, ib=ib,
                mean_ed=mean_ed,
                pmax_cluster=pmax,
                ned=mean_ed / pmax if pmax else 0.0,
                mse=mse,
                psnr=psnr_from_mse(scaled),
                sum_ed=block_sum,
                sum_ed_sq=block_sq,
            ))
    return ClusterReport(spec, tuple(cells), totals)


def threshold_counts(report: ClusterReport, ned_threshold: float,
                     psnr_threshold: float) -> tuple[int, int]:
    """(# cells with ned > ned_threshold, # cells with psnr < psnr_threshold)."""
    return (report.count_ned_over(ned_threshold),
            report.count_psnr_under(psnr_threshold))


def cluster_csv(report: ClusterReport) -> str:
    lines = ["ia,ib,mean_ed,pmax_cluster,ned,mse,psnr"]
    for c in report.cells:
        lines.append(f"{c.ia},{c.ib},{fmt6(c.mean_ed)},{c.pmax_cluster},"
                     f"{fmt6(c.ned)},{fmt6(c.mse)},{fmt6(c.psnr)}")
    return "\n".join(lines) + "\n"


def cluster_matrix(report: ClusterReport, field: str = "ned") -> str:
    """Whitespace matrix (one row per ia) for heat-map tooling."""
    g = report.spec.grid_side
    rows = []
    for ia in range(g):
        rows.append(" ".join(fmt6(getattr(report.cell(ia, ib), field))
                             for ib in range(g)))
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class EdHistogram:
    bin_width: int
    bins: tuple[tuple[int, int], ...]   # (lower_edge, count), contiguous from 0
    total_count: int
    min_ed: int
    max_ed: int
    mean_ed: float


def ed_histogram(grid: CellGrid, n: int | None = None,
                 bin_width: int | None = None) -> EdHistogram:
    """Tally ED over all 2^(2n) pairs into contiguous fixed-width bins.

    Streams the sweep chunks into exact per-ED counts (ED < 4^n), then
    bins them.  Default bin width is max(1, ceil(max_ed / 64)), sized for
    plotting.  The count array is filled up front rather than left to
    zero pages, and the per-chunk work is fixed in size, so memory does
    not depend on which EDs the design produces.
    """
    if n is not None and n != grid.width:
        raise ValueError(f"sweep width {n} does not match grid width {grid.width}")
    if bin_width is not None and bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    bounds = sweep_chunk_bounds(grid.width)

    counts = np.empty(1 << 2 * grid.width, dtype=np.int64)
    counts.fill(0)
    sum_ed, min_ed, max_ed = 0, counts.size, 0
    for lo, hi in bounds:
        exact, approx = chunk_products(grid, lo, hi)
        ed = np.abs(exact - approx).ravel()
        np.add.at(counts, ed, 1)
        sum_ed += int(ed.sum())
        min_ed = min(min_ed, int(ed.min()))
        max_ed = max(max_ed, int(ed.max()))

    if bin_width is None:
        bin_width = max(1, math.ceil(max_ed / 64))
    binned = np.add.reduceat(counts[:max_ed + 1], np.arange(0, max_ed + 1, bin_width))
    total = int(counts.sum())
    return EdHistogram(
        bin_width=bin_width,
        bins=tuple((k * bin_width, int(c)) for k, c in enumerate(binned)),
        total_count=total,
        min_ed=min_ed,
        max_ed=max_ed,
        mean_ed=sum_ed / total,
    )


def histogram_csv(hist: EdHistogram) -> str:
    lines = ["lower_edge,count"]
    for lower, count in hist.bins:
        lines.append(f"{lower},{count}")
    return "\n".join(lines) + "\n"
