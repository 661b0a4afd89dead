"""Published accuracy targets for the 20-design library, with gate tolerances.

compare_to_published() measures a computed accuracy table against the
published per-design values and returns a structured deviation report:
per design, per metric, the computed value, target, deviation and
pass/fail at the gate tolerance.  A build whose table drifts outside
tolerance must surface this report rather than silently pass.

The MRED column is recorded for reference but never gated: its published
values depend on an unspecified handling of zero exact products.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # designspace loads numpy; the annotations need only the name
    from .designspace import TableRow

# Gate tolerances: ER absolute; MED/NED/MSE relative; PSNR absolute dB.
ER_TOL = 0.01
MED_RTOL = 0.05
NED_RTOL = 0.10
MSE_RTOL = 0.10
PSNR_TOL_DB = 0.5

# Per design (type, degree name): ER, MED, NED, MRED, MSE, PSNR.
# NED and PSNR are cluster averages (16-value input blocks); MED/MSE are
# over the exhaustive sweep.
PUBLISHED_TABLE = {
    ("AMA1", "D1"): (0.931, 102, 0.0165, 0.0380, 1.69e4, 39.35),
    ("AMA2", "D1"): (0.978, 101, 0.0213, 1.0447, 1.44e4, 39.97),
    ("AMA3", "D1"): (0.996, 200, 0.0416, 2.8055, 4.76e4, 34.78),
    ("AMA4", "D1"): (0.932, 51, 0.0083, 0.0189, 4.11e3, 45.58),
    ("AMA5", "D1"): (0.870, 44, 0.0069, 0.0148, 3.14e3, 46.80),
    ("AMA1", "D2"): (0.962, 246, 0.0366, 0.0823, 9.61e4, 32.10),
    ("AMA2", "D2"): (0.990, 227, 0.0515, 2.1470, 7.23e4, 33.26),
    ("AMA3", "D2"): (0.999, 474, 0.1077, 7.0425, 2.68e5, 27.65),
    ("AMA4", "D2"): (0.963, 107, 0.0164, 0.0350, 1.79e4, 39.15),
    ("AMA5", "D2"): (0.922, 93, 0.0138, 0.0280, 1.38e4, 40.32),
    ("AMA1", "D3"): (0.977, 538, 0.0758, 0.1679, 4.53e5, 25.80),
    ("AMA2", "D3"): (0.996, 464, 0.0976, 4.2929, 2.97e5, 27.41),
    ("AMA3", "D3"): (1.000, 1010, 0.2280, 13.4428, 1.17e6, 21.75),
    ("AMA4", "D3"): (0.977, 185, 0.0286, 0.0582, 5.27e4, 34.30),
    ("AMA5", "D3"): (0.952, 185, 0.0261, 0.0488, 5.34e4, 34.56),
    ("AMA1", "D4"): (0.9882, 13162, 1.1862, 2.1, 3.27e8, 5.54),
    ("AMA2", "D4"): (0.9998, 16902, 5.0033, 272.6, 4.00e8, 8.18),
    ("AMA3", "D4"): (0.9999, 17211, 3.9303, 180.7, 4.13e8, 7.36),
    ("AMA4", "D4"): (0.9882, 6334, 0.4705, 0.6039, 7.91e7, 10.38),
    ("AMA5", "D4"): (0.9825, 8096, 0.5309, 0.6642, 1.17e8, 8.85),
}

# Reported spot values: Design1 ED spread, cluster counts over thresholds.
SPOT_CHECKS = {
    "design1_max_ed": 518,
    "design1_mean_ed": 102,            # within 5 percent
    "ama1_d4_ned_over_100pct": 79,     # of 256, within 4
    "ama1_d4_ned_avg": 1.186,          # within 10 percent
    "ama1_d1_psnr_under_25db": 19,     # of 256, within 3
    "ama5_d4_psnr_under_25db": 239,    # of 256, within 4
}


# The published columns, in PUBLISHED_TABLE order.
PUBLISHED_COLUMNS = ("er", "med", "ned", "mred", "mse", "psnr")
# Per metric: the report attribute compared, the tolerance, and whether the
# deviation is relative to the target.  MRED is reported but never gated.
GATES = (
    ("er", "er", ER_TOL, False),
    ("med", "med", MED_RTOL, True),
    ("ned", "ned_clustered_avg", NED_RTOL, True),
    ("mse", "mse", MSE_RTOL, True),
    ("psnr", "psnr_clustered_avg", PSNR_TOL_DB, False),
    ("mred", "mred", float("inf"), True),
)


def compare_to_published(rows: list[TableRow]) -> dict:
    """Deviation report over the full table; 'all_within' covers gated metrics."""
    designs = []
    for row in rows:
        targets = dict(zip(PUBLISHED_COLUMNS,
                           PUBLISHED_TABLE[(row.design.type_knob, row.design.degree_knob)]))
        metrics = []
        for metric, attr, tol, relative in GATES:
            computed, target = getattr(row.report, attr), targets[metric]
            dev = abs(computed - target) / (abs(target) if relative else 1.0)
            metrics.append({"metric": metric, "computed": computed, "target": target,
                            "deviation": dev, "tolerance": tol, "within": dev <= tol,
                            "gated": metric != "mred"})
        designs.append({
            "design": row.design.label,
            "type": row.design.type_knob,
            "degree": row.design.degree_knob,
            "within_tolerance": all(m["within"] for m in metrics if m["gated"]),
            "metrics": metrics,
        })
    within = sum(d["within_tolerance"] for d in designs)
    return {
        "all_within": within == len(designs),
        "designs_within": within,
        "design_count": len(designs),
        "designs": designs,
    }


def write_deviation_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
