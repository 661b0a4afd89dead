"""Acceptance suite.

Criteria 1-5 are the hard property gate and run with no external adder
data.  Criteria 6-7 calibrate the shipped AMA library against the
published per-design accuracy values; criterion 8 requires that any
out-of-tolerance calibration result is surfaced as a structured
per-design deviation report instead of passing silently.

Each criterion prints one PASS/FAIL line (run pytest with -s to see
them live; they also appear in captured output).
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from axmul.adders import AdderLibrary, FullAdderSpec, load_library_file
from axmul.calibration import (SPOT_CHECKS, compare_to_published,
                               write_deviation_report)
from axmul.cli import default_library_path, main
from axmul.clustering import cluster_sweep, ed_histogram
from axmul.designspace import design_id, enumerate_library, library_metrics_table
from axmul.fabric import (MultiplierConfig, build_multiplier,
                          eval_multiply_many)
from axmul.metrics import (MetricAccumulator, exhaustive_sweep, finalize, merge,
                           psnr_from_mse)
from conftest import random_adder
from oracles import (EvalOutcome, accumulate, oracle_clusters, oracle_histogram,
                     oracle_metrics)

import numpy as np

DEVIATION_REPORT_PATH = Path(__file__).resolve().parent.parent / \
    "calibration_deviations.json"


def report(criterion: int, ok: bool, message: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion}: {message}"


@pytest.fixture(scope="module")
def shipped_library():
    return load_library_file(default_library_path())


@pytest.fixture(scope="module")
def shipped_table(shipped_library):
    start = time.monotonic()
    rows = library_metrics_table(enumerate_library(shipped_library, "row_ripple"),
                                 shipped_library, 16)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"20 exhaustive sweeps took {elapsed:.1f}s (limit 120s)"
    comparison = compare_to_published(rows)
    write_deviation_report(comparison, DEVIATION_REPORT_PATH)
    return rows, comparison


def all_pairs(n):
    side = 1 << n
    xs, ys = np.meshgrid(np.arange(side, dtype=np.int64),
                         np.arange(side, dtype=np.int64), indexing="ij")
    return xs.ravel(), ys.ravel()


def test_criterion_1_exact_oracle_equivalence():
    lib = AdderLibrary()
    xs, ys = all_pairs(8)
    start = time.monotonic()
    ok = True
    for arch in ("carry_save", "row_ripple"):
        for degree in (0, 16):
            grid = build_multiplier(
                MultiplierConfig(8, "exact", degree, architecture=arch), lib)
            ok = ok and (eval_multiply_many(grid, xs, ys) == xs * ys).all()
    elapsed = time.monotonic() - start
    report(1, bool(ok) and elapsed < 10.0,
           f"exact grids (both architectures) equal integer multiply on "
           f"65536 pairs ({elapsed:.2f}s, limit 10s)")


def test_criterion_2_degree_zero_equivalence(shipped_library):
    lib = AdderLibrary(list(shipped_library) +
                       [FullAdderSpec("ZERO", (0,) * 8, (0,) * 8)])
    names = [spec.name for spec in lib]
    xs, ys = all_pairs(8)
    bad = []
    for arch in ("carry_save", "row_ripple"):
        for name in names:
            grid = build_multiplier(
                MultiplierConfig(8, name, 0, architecture=arch), lib)
            if not (eval_multiply_many(grid, xs, ys) == xs * ys).all():
                bad.append(f"{name}/{arch}")
    report(2, not bad, f"degree-0 grids exact for {names} "
           f"on both architectures" + (f"; FAILED: {bad}" if bad else ""))


def test_criterion_3_reduced_width_oracle():
    rng = random.Random(1234)
    lib = AdderLibrary([FullAdderSpec("ZERO", (0,) * 8, (0,) * 8),
                        random_adder("RND1", rng), random_adder("RND2", rng)])
    failures = []
    for name, arch in (("ZERO", "carry_save"), ("ZERO", "row_ripple"),
                       ("RND1", "carry_save"), ("RND1", "row_ripple"),
                       ("RND2", "carry_save"), ("RND2", "row_ripple")):
        grid = build_multiplier(
            MultiplierConfig(4, name, 8, architecture=arch), lib)
        rep = finalize(exhaustive_sweep(grid), 225)
        want = oracle_metrics(grid)
        checks = [
            rep.count == want["count"], rep.max_ed == want["max_ed"],
            math.isclose(rep.er, want["er"], rel_tol=1e-12),
            math.isclose(rep.med, want["med"], rel_tol=1e-12),
            math.isclose(rep.ned_global, want["ned_global"], rel_tol=1e-12),
            math.isclose(rep.mred, want["mred"], rel_tol=1e-12),
            math.isclose(rep.mse, want["mse"], rel_tol=1e-12),
            rep.psnr_global == want["psnr_global"] or
            math.isclose(rep.psnr_global, want["psnr_global"], rel_tol=1e-12),
        ]
        if not all(checks):
            failures.append(f"{name}/{arch}: metrics")

        hist = ed_histogram(grid, bin_width=1)
        got = {lower: c for lower, c in hist.bins if c}
        if got != oracle_histogram(grid, 1):
            failures.append(f"{name}/{arch}: histogram")

        cl = cluster_sweep(grid, 4)
        want_cells = oracle_clusters(grid, 4)
        names = cl.cells.dtype.names
        for cell in (dict(zip(names, row)) for row in cl.cells.tolist()):
            w = want_cells[(cell["ia"], cell["ib"])]
            cell_ok = (
                cell["pmax_cluster"] == w["pmax_cluster"]
                and math.isclose(cell["mean_ed"], w["mean_ed"], rel_tol=1e-12)
                and math.isclose(cell["ned"], w["ned"], rel_tol=1e-12)
                and math.isclose(cell["mse"], w["mse"], rel_tol=1e-12)
                and (cell["psnr"] == w["psnr"]
                     or math.isclose(cell["psnr"], w["psnr"], rel_tol=1e-12)))
            if not cell_ok:
                failures.append(
                    f"{name}/{arch}: cluster ({cell['ia']},{cell['ib']})")
    report(3, not failures,
           "n=4 metrics/histogram/clusters equal direct recomputation "
           "over 256 pairs" + (f"; FAILED: {failures}" if failures else ""))


def test_criterion_4_invariant_suite():
    rng = random.Random(99)
    failures = []

    lib = AdderLibrary([random_adder("R1", rng), random_adder("R2", rng)])
    for name, degree in (("R1", 5), ("R2", 8), ("R1", 2)):
        grid = build_multiplier(MultiplierConfig(4, name, degree, "carry_save"), lib)
        acc = exhaustive_sweep(grid)
        rep = finalize(acc, 225)
        if rep.mse < rep.med ** 2 - 1e-9:
            failures.append(f"jensen {name}/{degree}")

        hist = ed_histogram(grid)
        if sum(c for _, c in hist.bins) != 256:
            failures.append(f"histogram mass {name}/{degree}")

        cl = cluster_sweep(grid, 4)
        cell_ed = sum(cl.cells["sum_ed"].tolist())
        cell_ed_sq = sum(cl.cells["sum_ed_sq"].tolist())
        if cell_ed != acc.sum_ed:
            failures.append(f"cluster ED mass {name}/{degree}")
        if cell_ed_sq != acc.sum_ed_sq:
            failures.append(f"cluster ED^2 mass {name}/{degree}")
        med_from_cells = cell_ed / acc.count
        mse_from_cells = cell_ed_sq / acc.count
        if med_from_cells != rep.med or mse_from_cells != rep.mse:
            failures.append(f"cluster means {name}/{degree}")

    def rand_acc():
        acc = MetricAccumulator()
        for _ in range(rng.randrange(1, 20)):
            p = rng.randrange(0, 500)
            acc = accumulate(acc, EvalOutcome(0, 0, p, rng.randrange(0, 500)))
        return acc

    for _ in range(100):
        a, b, c = rand_acc(), rand_acc(), rand_acc()
        if merge(a, b) != merge(b, a):
            failures.append("merge commutativity")
            break
        left, right = merge(merge(a, b), c), merge(a, merge(b, c))
        int_fields = ("count", "err_count", "sum_ed", "sum_ed_sq", "max_ed",
                      "red_count")
        if any(getattr(left, f) != getattr(right, f) for f in int_fields):
            failures.append("merge associativity (integer fields)")
            break
        if not math.isclose(left.sum_red, right.sum_red, rel_tol=1e-9):
            failures.append("merge associativity (sum_red)")
            break

    if not math.isclose(psnr_from_mse(65025), 0.0, abs_tol=1e-9):
        failures.append("psnr(65025) != 0")
    if not math.isclose(psnr_from_mse(650.25), 20.0, abs_tol=1e-9):
        failures.append("psnr(650.25) != 20")

    report(4, not failures, "invariant suite (Jensen, mass conservation, "
           "merge algebra, PSNR fixed points)"
           + (f"; FAILED: {failures}" if failures else ""))


def test_criterion_5_cmd_table_determinism(tmp_path):
    outputs = {}
    for tag, workers in (("first", "1"), ("second", "1"), ("eight", "8")):
        out = tmp_path / tag
        code = main(["table", "--library", default_library_path(),
                     "--out", str(out), "--workers", workers])
        assert code == 0
        outputs[tag] = ((out / "library_table.csv").read_bytes(),
                        (out / "library_table.json").read_bytes())
    ok = outputs["first"] == outputs["second"] == outputs["eight"]
    report(5, ok, "cmd_table byte-identical across reruns and worker counts 1 vs 8")


def test_criterion_6_published_table_reproduction(shipped_table):
    rows, comparison = shipped_table
    bad = []
    for design in comparison["designs"]:
        misses = [f'{m["metric"]}:{m["deviation"]:.3g}'
                  for m in design["metrics"] if m["gated"] and not m["within"]]
        if misses:
            bad.append(f'{design["design"]}({design["type"]}/{design["degree"]}): '
                       + ",".join(misses))
    ok = comparison["all_within"]
    detail = (f'{comparison["designs_within"]}/{comparison["design_count"]} '
              f'designs within tolerance')
    if bad:
        detail += "; out of tolerance: " + "; ".join(bad[:6])
        if len(bad) > 6:
            detail += f" (+{len(bad) - 6} more, see {DEVIATION_REPORT_PATH.name})"
    report(6, ok, detail)


def test_criterion_7_quoted_spot_checks(shipped_library):
    failures = []

    d1 = design_id("AMA1", "D1")
    grid_d1 = build_multiplier(
        MultiplierConfig(8, "AMA1", d1.degree_bits, architecture="row_ripple"),
        shipped_library)
    hist = ed_histogram(grid_d1)
    if hist.min_ed != 0 or hist.max_ed != SPOT_CHECKS["design1_max_ed"]:
        failures.append(f"Design1 ED range 0..{hist.max_ed} "
                        f"(want 0..{SPOT_CHECKS['design1_max_ed']})")
    if abs(hist.mean_ed - SPOT_CHECKS["design1_mean_ed"]) \
            > 0.05 * SPOT_CHECKS["design1_mean_ed"]:
        failures.append(f"Design1 mean ED {hist.mean_ed:.1f} (want ~102)")

    cl_d1 = cluster_sweep(grid_d1, 16)
    n_psnr = np.count_nonzero(~cl_d1.meets("psnr", 25.0))
    if abs(n_psnr - SPOT_CHECKS["ama1_d1_psnr_under_25db"]) > 3:
        failures.append(f"AMA1/D1 psnr<25dB count {n_psnr} (want ~19)")

    d4 = design_id("AMA1", "D4")
    grid_d4 = build_multiplier(
        MultiplierConfig(8, "AMA1", d4.degree_bits, architecture="row_ripple"),
        shipped_library)
    cl_d4 = cluster_sweep(grid_d4, 16)
    n_ned = np.count_nonzero(~cl_d4.meets("ned", 1.0))
    if abs(n_ned - SPOT_CHECKS["ama1_d4_ned_over_100pct"]) > 4:
        failures.append(f"AMA1/D4 ned>100% count {n_ned} (want ~79)")
    if abs(cl_d4.ned_avg - SPOT_CHECKS["ama1_d4_ned_avg"]) \
            > 0.10 * SPOT_CHECKS["ama1_d4_ned_avg"]:
        failures.append(f"AMA1/D4 ned_avg {cl_d4.ned_avg:.3f} (want ~1.186)")

    grid_a5 = build_multiplier(
        MultiplierConfig(8, "AMA5", 16, architecture="row_ripple"),
        shipped_library)
    n_a5 = np.count_nonzero(~cluster_sweep(grid_a5, 16).meets("psnr", 25.0))
    if abs(n_a5 - SPOT_CHECKS["ama5_d4_psnr_under_25db"]) > 4:
        failures.append(f"AMA5/D4 psnr<25dB count {n_a5} (want ~239)")

    report(7, not failures, "quoted spot checks"
           + (f"; FAILED: {failures}" if failures else ""))


def test_criterion_8_deviation_report_emitted(shipped_table):
    rows, comparison = shipped_table
    ok = DEVIATION_REPORT_PATH.exists()
    detail = f"deviation report written to {DEVIATION_REPORT_PATH.name}"
    if ok:
        doc = json.loads(DEVIATION_REPORT_PATH.read_text())
        ok = (doc["design_count"] == 20 and len(doc["designs"]) == 20
              and all(len(d["metrics"]) == 6 for d in doc["designs"])
              and doc["all_within"] == comparison["all_within"])
        detail += (f'; all_within={doc["all_within"]}, '
                   f'{doc["designs_within"]}/20 designs within tolerance')
        if not doc["all_within"]:
            detail += "; per-design deltas recorded (criterion 6 misses surfaced)"
    report(8, ok, detail)
