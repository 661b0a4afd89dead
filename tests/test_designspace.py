import dataclasses
import inspect
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axmul.adders import AdderLibrary, load_library_file
from axmul.cli import DESIGN_ORDINALS, default_library_path, main
from axmul.clustering import ClusterReport, ClusterSpec, cluster_sweep
from axmul.designspace import (AMA_TYPES, DEGREE_BITS, DesignId,
                               analyze_design, design_id,
                               enumerate_library, library_metrics_table,
                               select_per_cluster, selection_csv,
                               selection_summary, table_csv)
from axmul.fabric import MultiplierConfig, build_multiplier
from axmul.metrics import MetricAccumulator
from conftest import random_adder
from oracles import oracle_select


def fake_ama_library():
    """Synthetic library carrying the AMA names (tables irrelevant here)."""
    rng = random.Random(42)
    return AdderLibrary([random_adder(t, rng) for t in AMA_TYPES])


def test_design_numbering():
    assert design_id("AMA1", "D1").ordinal == 1
    assert design_id("AMA1", "D4").ordinal == 4
    assert design_id("AMA2", "D1").ordinal == 5
    assert design_id("AMA5", "D4").ordinal == 20
    assert design_id("AMA3", "D2").label == "Design10"


def test_enumerate_complete_library():
    entries = enumerate_library(fake_ama_library(), "row_ripple")
    assert len(entries) == 20
    did, cfg = entries[0]
    assert (did.label, did.type_knob, cfg.degree) == ("Design1", "AMA1", 7)
    did, cfg = entries[-1]
    assert (did.label, did.type_knob, cfg.degree) == ("Design20", "AMA5", 16)
    assert [d.ordinal for d, _ in entries] == list(range(1, 21))
    assert all(cfg.width == 8 for _, cfg in entries)
    degrees = [cfg.degree for _, cfg in entries[:4]]
    assert degrees == [7, 8, 9, 16]
    assert all(cfg.degree == DEGREE_BITS[did.degree_knob] for did, cfg in entries)


def test_enumerate_builds_the_given_layout():
    for architecture, half_adders in (("row_ripple", "exact"),
                                      ("carry_save", "approximate")):
        entries = enumerate_library(fake_ama_library(), architecture)
        assert all(cfg.architecture == architecture for _, cfg in entries)
        assert all(cfg.half_adders == half_adders for _, cfg in entries)


@pytest.mark.parametrize("api", [MultiplierConfig, ClusterSpec, cluster_sweep,
                                 analyze_design, library_metrics_table,
                                 enumerate_library])
def test_library_api_takes_every_setting(api):
    """The CLI parser is the one home of the analysis defaults."""
    params = inspect.signature(api).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []


def test_cli_defaults_build_the_calibrated_design(tmp_path):
    with pytest.raises(TypeError):
        MultiplierConfig(8, "AMA1", 7)
    lib = load_library_file(default_library_path())
    report, _ = analyze_design(MultiplierConfig(8, "AMA1", 7, "row_ripple"), lib, 16)
    assert main(["sweep", "--type", "AMA1", "--degree", "D1", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    swept = json.loads((tmp_path / "sweep_AMA1_D1.json").read_text())
    assert swept == dataclasses.asdict(report)


def test_cli_numbers_the_designs_as_the_library_does():
    """cli keeps its own copy of the numbering so usage errors load no numpy."""
    entries = enumerate_library(fake_ama_library(), "row_ripple")
    assert [did.ordinal for did, _ in entries] == list(DESIGN_ORDINALS)


def test_enumerate_missing_type():
    rng = random.Random(1)
    lib = AdderLibrary([random_adder(t, rng)
                        for t in AMA_TYPES if t != "AMA3"])
    with pytest.raises(KeyError, match="AMA3"):
        enumerate_library(lib, "row_ripple")


def synth_report(neds, psnrs=None, spec=ClusterSpec(2, 2)):
    """A report carrying only the columns selection reads."""
    cells = np.zeros(spec.total_clusters, dtype=[("ned", float), ("psnr", float)])
    cells["ned"] = neds
    cells["psnr"] = psnrs if psnrs else 10.0
    return ClusterReport(spec, cells, MetricAccumulator())


def toy_designs():
    lo = DesignId("A", "low", 1, degree_bits=4)
    hi = DesignId("B", "high", 2, degree_bits=8)
    return lo, hi


def test_select_nothing_qualifies():
    lo, hi = toy_designs()
    reports = [(lo, synth_report([0.2, 0.3, 0.4, 0.5])),
               (hi, synth_report([0.6, 0.7, 0.8, 0.9]))]
    sel = select_per_cluster(reports, "ned", 0.0)
    assert sel.tolist() == [[0, 0], [0, 0]]
    assert selection_summary(sel) == {"grid_side": 2, "usage_counts": {"exact": 4},
                                      "exact_fraction": 1.0}


def test_select_everything_qualifies_prefers_degree():
    lo, hi = toy_designs()
    reports = [(lo, synth_report([0.0, 0.0, 0.0, 0.0])),
               (hi, synth_report([0.9, 0.9, 0.9, 0.9]))]
    sel = select_per_cluster(reports, "ned", math.inf)
    assert (sel == hi.ordinal).all()


def test_select_tie_breaks():
    lo, hi = toy_designs()
    hi2 = DesignId("C", "high", 3, degree_bits=8)
    # equal degree: lower ned wins; equal ned too: lower ordinal wins
    reports = [(lo, synth_report([0.0, 0.0, 0.0, 0.0])),
               (hi, synth_report([0.3, 0.1, 0.2, 0.2])),
               (hi2, synth_report([0.1, 0.3, 0.2, 0.2]))]
    sel = select_per_cluster(reports, "ned", 0.5)
    assert sel.dtype == np.int64
    assert sel.tolist() == [[3, 2], [2, 2]]   # [ia][ib]


def test_select_psnr_metric():
    lo, hi = toy_designs()
    reports = [(lo, synth_report([0.1] * 4, psnrs=[30, 30, 30, 30])),
               (hi, synth_report([0.1] * 4, psnrs=[30, 20, 30, 20]))]
    sel = select_per_cluster(reports, "psnr", 25.0)
    assert sel.tolist() == [[2, 1], [2, 1]]


def test_select_tightening_never_unexacts():
    lo, hi = toy_designs()
    reports = [(lo, synth_report([0.05, 0.2, 0.5, 0.8])),
               (hi, synth_report([0.1, 0.4, 0.6, 0.9]))]
    loose = select_per_cluster(reports, "ned", 0.5)
    tight = select_per_cluster(reports, "ned", 0.1)
    assert not ((loose == 0) & (tight != 0)).any()


def test_select_monotone_rescale_invariance():
    lo, hi = toy_designs()
    neds_lo = [0.05, 0.2, 0.5, 0.8]
    neds_hi = [0.1, 0.15, 0.6, 0.7]
    reports = [(lo, synth_report(neds_lo)), (hi, synth_report(neds_hi))]
    sel1 = select_per_cluster(reports, "ned", 0.5)
    squared = [(lo, synth_report([v * v for v in neds_lo])),
               (hi, synth_report([v * v for v in neds_hi]))]
    sel2 = select_per_cluster(squared, "ned", 0.25)
    assert sel1.tolist() == sel2.tolist()


def test_select_mismatched_specs_rejected():
    lo, hi = toy_designs()
    grid = build_multiplier(MultiplierConfig(4, "exact", 0, "carry_save"), AdderLibrary())
    small, big = cluster_sweep(grid, 8), cluster_sweep(grid, 4)
    with pytest.raises(ValueError):
        select_per_cluster([(lo, small), (hi, big)], "ned", 1.0)
    with pytest.raises(ValueError):
        select_per_cluster([], "ned", 1.0)


@pytest.fixture(scope="module")
def shipped_rows():
    lib = load_library_file(default_library_path())
    return library_metrics_table(enumerate_library(lib, "row_ripple"), lib, 16)


@pytest.mark.parametrize("metric, threshold", [("ned", 1.0), ("psnr", 25.0)])
def test_select_one_design_keeps_the_blocks_it_meets(shipped_rows, metric, threshold):
    mixed = 0
    for row in shipped_rows:
        meets = row.clusters.meets(metric, threshold)
        sel = select_per_cluster([(row.design, row.clusters)], metric, threshold)
        want = np.where(meets, row.design.ordinal, 0).reshape(sel.shape)
        assert sel.tolist() == want.tolist()
        mixed += 0 < meets.sum() < meets.size
    assert mixed   # some design meets the threshold in some blocks only


def test_select_matches_argmax_oracle_4bit():
    """Toy 4-bit library: the selector must equal a direct argmax recomputation."""
    rng = random.Random(77)
    lib = AdderLibrary([random_adder("T1", rng), random_adder("T2", rng)])
    designs = []
    for ordinal, (name, bits) in enumerate(
            [("T1", 2), ("T1", 6), ("T2", 2), ("T2", 6)], start=1):
        did = DesignId(name, f"deg{bits}", ordinal, degree_bits=bits)
        grid = build_multiplier(MultiplierConfig(4, name, bits, "carry_save"), lib)
        designs.append((did, cluster_sweep(grid, 4)))
    threshold = 0.05
    sel = select_per_cluster(designs, "ned", threshold)

    for ci in range(16):
        qualifying = [(did, rep.cells["ned"][ci]) for did, rep in designs
                      if rep.cells["ned"][ci] <= threshold]
        if not qualifying:
            assert sel.flat[ci] == 0
            continue
        best_bits = max(d.degree_bits for d, _ in qualifying)
        pool = [(ned, d.ordinal) for d, ned in qualifying
                if d.degree_bits == best_bits]
        assert sel.flat[ci] == min(pool)[1]

    counts = selection_summary(sel)["usage_counts"]
    assert sum(counts.values()) == 16


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data(), metric=st.sampled_from(("ned", "psnr")))
def test_select_matches_per_block_reference(data, metric):
    # few distinct degrees, NEDs and PSNRs force ties at every key level;
    # the designs arrive in shuffled ordinal order
    spec = ClusterSpec(2, 1)
    count = data.draw(st.integers(1, 6), label="designs")
    levels = st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                      min_size=spec.total_clusters, max_size=spec.total_clusters)
    reports = []
    for ordinal in data.draw(st.permutations(range(1, count + 1)), label="order"):
        did = DesignId("T", "d", ordinal,
                       degree_bits=data.draw(st.sampled_from((2, 4)), label="degree"))
        psnrs = [40.0 * v for v in data.draw(levels, label="psnr")]
        reports.append((did, synth_report(data.draw(levels, label="ned"),
                                          psnrs=psnrs, spec=spec)))
    threshold = data.draw(st.sampled_from((0.0, 0.5, 20.0)))
    sel = select_per_cluster(reports, metric, threshold)
    assert sel.ravel().tolist() == oracle_select(reports, metric, threshold)


def test_selection_csv_and_summary():
    lo, hi = toy_designs()
    reports = [(lo, synth_report([0.05, 0.9, 0.05, 0.9])),
               (hi, synth_report([0.9, 0.9, 0.9, 0.9]))]
    sel = select_per_cluster(reports, "ned", 0.1)
    lines = selection_csv(sel).strip().split("\n")
    assert lines[0] == "ia,ib,design"
    assert lines[1] == "0,0,1"
    assert lines[2] == "0,1,exact"
    summary = selection_summary(sel)
    assert summary["usage_counts"] == {"Design1": 2, "exact": 2}
    assert summary["exact_fraction"] == 0.5


def test_policy_validation():
    lo, _ = toy_designs()
    with pytest.raises(ValueError, match="unknown quality metric 'mred'"):
        select_per_cluster([(lo, synth_report([0.0] * 4))], "mred", 1.0)


def test_table_rows_deterministic_and_ordered():
    lib = fake_ama_library()
    rows1 = library_metrics_table(enumerate_library(lib, "row_ripple"), lib, 16)
    rows2 = library_metrics_table(enumerate_library(lib, "row_ripple"), lib, 16)
    assert [r.design.ordinal for r in rows1] == list(range(1, 21))
    assert table_csv(rows1) == table_csv(rows2)
    assert all(r.report.ned_clustered_avg is not None for r in rows1)


@pytest.mark.parametrize("cluster_size", [2, 16, 64])
def test_analyze_design_evaluates_each_pair_once(cluster_size, eval_pair_counts):
    config = MultiplierConfig(8, "AMA1", 9, "carry_save")
    report, clusters = analyze_design(config, fake_ama_library(), cluster_size)
    assert sum(eval_pair_counts) == 4 ** 8
    assert max(eval_pair_counts) <= 4 ** 8 // 16
    assert report.count == clusters.totals.count == 4 ** 8
