"""The 20-design library: enumeration, the accuracy table, per-cluster selection.

Designs are numbered row-major over the type x degree table: AMA1/D1 is
Design1, AMA1/D2 is Design2, ..., AMA5/D4 is Design20.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adders import AdderLibrary
from .clustering import ClusterReport, cluster_sweep
from .fabric import MultiplierConfig, build_multiplier
from .metrics import MetricReport, finalize, report_csv_header, report_csv_row

AMA_TYPES = ("AMA1", "AMA2", "AMA3", "AMA4", "AMA5")
DEGREE_BITS = {"D1": 7, "D2": 8, "D3": 9, "D4": 16}
DEGREE_NAMES = tuple(DEGREE_BITS)
LIBRARY_WIDTH = 8


@dataclass(frozen=True)
class DesignId:
    type_knob: str
    degree_knob: str
    ordinal: int
    degree_bits: int

    @property
    def label(self) -> str:
        return f"Design{self.ordinal}"


def design_id(type_knob: str, degree_knob: str) -> DesignId:
    ti = AMA_TYPES.index(type_knob)
    di = DEGREE_NAMES.index(degree_knob)
    return DesignId(type_knob, degree_knob, 4 * ti + di + 1, DEGREE_BITS[degree_knob])


def enumerate_library(library: AdderLibrary,
                      architecture: str) -> list[tuple[DesignId, MultiplierConfig]]:
    """All 20 (DesignId, config) pairs at width 8 on one layout, in ordinal order."""
    missing = [t for t in AMA_TYPES if t not in library]
    if missing:
        raise KeyError(f"library is missing adder types: {', '.join(missing)}")
    out = []
    for t in AMA_TYPES:
        for d in DEGREE_NAMES:
            did = design_id(t, d)
            out.append((did, MultiplierConfig(LIBRARY_WIDTH, t, did.degree_bits,
                                              architecture=architecture)))
    return out


@dataclass(frozen=True)
class TableRow:
    design: DesignId
    report: MetricReport
    clusters: ClusterReport


def analyze_design(config: MultiplierConfig, library: AdderLibrary,
                   cluster_size: int) -> tuple[MetricReport, ClusterReport]:
    """One cluster sweep; its totals finalized, cluster averages attached."""
    clusters = cluster_sweep(build_multiplier(config, library), cluster_size)
    pmax = ((1 << config.width) - 1) ** 2
    report = replace(finalize(clusters.totals, pmax), ned_clustered_avg=clusters.ned_avg,
                     psnr_clustered_avg=clusters.psnr_avg)
    return report, clusters


def library_metrics_table(entries: list[tuple[DesignId, MultiplierConfig]],
                          library: AdderLibrary, cluster_size: int) -> list[TableRow]:
    """One analyzed row per `enumerate_library` entry, in the entries' order.

    The designs are analyzed one after another in this process.
    """
    return [TableRow(did, *analyze_design(config, library, cluster_size))
            for did, config in entries]


def table_csv(rows: list[TableRow]) -> str:
    lines = [report_csv_header()]
    for row in rows:
        lines.append(report_csv_row(
            row.report,
            (row.design.label, row.design.type_knob, row.design.degree_knob)))
    return "\n".join(lines) + "\n"


def select_per_cluster(reports: list[tuple[DesignId, ClusterReport]],
                       metric: str, threshold: float) -> np.ndarray:
    """Per block, the ordinal of the highest-degree design whose cell meets the threshold.

    A cell meets it as `ClusterReport.meets` decides.  Returns the
    (grid_side, grid_side) int64 grid of ordinals, indexed [ia, ib]; 0
    marks a block where no design qualifies (exact fallback), so design
    ordinals must be >= 1.  Ties go to the lowest cluster NED, then the
    lowest ordinal.
    """
    if not reports:
        raise ValueError("no design reports to select from")
    sides = {rep.spec.grid_side for _, rep in reports}
    if len(sides) != 1:
        raise ValueError(f"cluster grids disagree: sides {sorted(sides)}")
    side = sides.pop()

    # lexicographic min of (-degree, ned, ordinal) over the admitted designs,
    # one design at a time over all blocks; degree -1 marks "none yet"
    best_degree = np.full(side * side, -1)
    best_ned = np.zeros(side * side)
    best_ordinal = np.zeros(side * side, dtype=np.int64)
    for did, rep in reports:
        ned = rep.cells["ned"]
        wins = rep.meets(metric, threshold) & (
            (did.degree_bits > best_degree)
            | ((did.degree_bits == best_degree)
               & ((ned < best_ned)
                  | ((ned == best_ned) & (did.ordinal < best_ordinal)))))
        best_degree[wins] = did.degree_bits
        best_ned[wins] = ned[wins]
        best_ordinal[wins] = did.ordinal
    return best_ordinal.reshape(side, side)


def selection_csv(ordinals: np.ndarray) -> str:
    lines = ["ia,ib,design"]
    for ia, row in enumerate(ordinals.tolist()):
        lines.extend(f"{ia},{ib},{k or 'exact'}" for ib, k in enumerate(row))
    return "\n".join(lines) + "\n"


def selection_summary(ordinals: np.ndarray) -> dict:
    """Grid side, blocks per design (`Design<k>`, `exact` for 0) and the exact share."""
    keys, counts = np.unique(ordinals, return_counts=True)
    usage = {f"Design{k}" if k else "exact": n
             for k, n in zip(keys.tolist(), counts.tolist())}
    return {
        "grid_side": ordinals.shape[0],
        "usage_counts": usage,
        "exact_fraction": usage.get("exact", 0) / ordinals.size,
    }
