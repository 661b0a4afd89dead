import builtins
import concurrent.futures
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import pytest

import axmul.clustering
import axmul.metrics
from axmul.adders import load_library_file
from axmul.cli import build_parser, default_library_path, main, parse_degree
from axmul.designspace import AMA_TYPES, analyze_design
from axmul.fabric import MultiplierConfig

CANONICAL = ('[\n  {\n    "name": "exact",\n    "sum_bits": "01101001",\n'
             '    "cout_bits": "00010111"\n  }\n]\n')


@pytest.fixture
def exact_lib_file(tmp_path):
    path = tmp_path / "exact.json"
    path.write_text(CANONICAL)
    return str(path)


@pytest.fixture
def zero_lib_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([
        {"name": "ZERO", "sum_bits": "00000000", "cout_bits": "00000000"}]))
    return str(path)


@pytest.fixture
def fake_ama_file(tmp_path):
    rng = random.Random(42)

    def bits():
        return "".join(str(rng.randint(0, 1)) for _ in range(8))

    path = tmp_path / "ama.json"
    path.write_text(json.dumps(
        [{"name": t, "sum_bits": bits(), "cout_bits": bits()} for t in AMA_TYPES]))
    return str(path)


def test_parse_degree():
    assert parse_degree("D1", 8) == ("D1", 7)
    assert parse_degree("d4", 8) == ("D4", 16)
    assert parse_degree("16", 8) == ("D4", 16)
    assert parse_degree("5", 8) == ("d5", 5)
    assert parse_degree("3", 4) == ("d3", 3)
    assert parse_degree("D1", 6) == ("d7", 7)
    with pytest.raises(ValueError):
        parse_degree("D9", 8)
    with pytest.raises(ValueError):
        parse_degree("17", 8)


def test_degree_name_and_bit_count_write_the_same_files(zero_lib_file, tmp_path):
    outputs = []
    for degree in ("D1", "7"):
        out = tmp_path / degree
        for command in ("sweep", "clusters", "histogram"):
            assert main([command, "--library", zero_lib_file, "--width", "6",
                         "--cluster-size", "4", "--type", "ZERO", "--degree", degree,
                         "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    assert "sweep_ZERO_d7.json" in outputs[0]
    assert len(outputs[0]) == 9


def test_validate_exact(exact_lib_file, capsys):
    assert main(["validate", exact_lib_file]) == 0
    out = capsys.readouterr().out
    assert "exact: 0 erroneous rows" in out


def test_validate_zero(zero_lib_file, capsys):
    assert main(["validate", zero_lib_file]) == 0
    out = capsys.readouterr().out
    assert "ZERO: 8 erroneous rows" in out
    assert "exact: 0 erroneous rows" in out


def test_validate_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"name": "SHORT", "sum_bits": "0110100", "cout_bits": "00010111"}]))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "SHORT" in err
    assert "sum_bits" in err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_validate_default_is_the_packaged_library(zero_lib_file, monkeypatch, capsys):
    # an inherited environment variable chooses no library
    monkeypatch.setenv("AXMUL_LIBRARY", zero_lib_file)
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "exact", *AMA_TYPES]


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_library_that_cannot_be_read_is_input_error(tmp_path, capsys, command):
    args = ([command, str(tmp_path)] if command == "validate" else
            [command, "--library", str(tmp_path), "--type", "exact", "--degree", "0",
             "--out", str(tmp_path / "out")])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"axmul: cannot read library file {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# the benchmark's launch form, after importing the calibration gate its runner
# also imports, reporting whether either loaded numpy
LAUNCH = ("import sys, axmul.calibration; from axmul.cli import main; "
          "code = main(sys.argv[1:]); "
          "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)")


@pytest.mark.parametrize("args, code", [
    (["validate", "LIB"], 0),
    (["--help"], 0),
    (["sweep", "--workers", "0"], 1),
    (["sweep", "--type", "exact", "--degree", "0", "--out", "LIB"], 1),
    (["table", "--library", "missing.json", "--ordinals", "1,99"], 1),
], ids=["validate", "help", "usage-error", "out-is-a-file", "ordinals"])
def test_validate_help_and_usage_errors_do_not_load_numpy(zero_lib_file, args, code):
    args = [zero_lib_file if a == "LIB" else a for a in args]
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    run = subprocess.run([sys.executable, "-c", LAUNCH, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code
    assert run.stderr.splitlines()[-1] == "False"
    if args[0] == "validate":
        assert run.stdout == ("ZERO: 8 erroneous rows (sum rows [1, 2, 4, 7], "
                              "cout rows [3, 5, 6, 7])\nexact: 0 erroneous rows\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs, where OpenBLAS "
                           "would start a worker thread")
@pytest.mark.parametrize("caller, seen", [(None, "1"), ("2", "2")],
                         ids=["default", "caller-set"])
def test_analysis_runs_one_blas_thread_unless_the_caller_sets_one(exact_lib_file,
                                                                   tmp_path, caller, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC_DIR)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    launch = ("import os, sys; from axmul.cli import main; code = main(sys.argv[1:]); "
              "print(len(os.listdir('/proc/self/task')), "
              "os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr); sys.exit(code)")
    run = subprocess.run([sys.executable, "-c", launch, "sweep", "--library",
                          exact_lib_file, "--width", "4", "--cluster-size", "4",
                          "--type", "exact", "--degree", "0", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    threads, value = run.stderr.split()
    if caller is None:   # OpenBLAS started no worker thread
        assert threads == "1"
    assert value == seen


def test_usage_errors():
    assert main([]) == 1
    assert main(["sweep", "--bogus-flag"]) == 1
    assert main(["frobnicate"]) == 1


def test_unknown_type_is_usage_error(exact_lib_file, tmp_path):
    code = main(["sweep", "--library", exact_lib_file, "--type", "NOPE",
                 "--degree", "0", "--out", str(tmp_path)])
    assert code == 1


def test_sweep_exact_design(exact_lib_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["sweep", "--library", exact_lib_file, "--width", "4",
                 "--type", "exact", "--degree", "0", "--out", str(out)])
    assert code == 0
    assert "er=0" in capsys.readouterr().out

    report = json.loads((out / "sweep_exact_d0.json").read_text())
    assert report["er"] == 0.0
    assert report["count"] == 256
    assert report["psnr_global"] == float("inf")

    lines = (out / "sweep_exact_d0.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["design"] == "exact_d0"
    assert float(row["er"]) == 0.0
    assert row["psnr"] == "inf"


def test_sweep_format_filter(exact_lib_file, tmp_path):
    out = tmp_path / "csvonly"
    code = main(["sweep", "--library", exact_lib_file, "--width", "4",
                 "--type", "exact", "--degree", "0", "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    assert (out / "sweep_exact_d0.csv").exists()
    assert not (out / "sweep_exact_d0.json").exists()


def test_sweep_worker_count_does_not_change_bytes(zero_lib_file, tmp_path):
    outputs = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / tag
        code = main(["sweep", "--library", zero_lib_file, "--type", "ZERO",
                     "--degree", "16", "--out", str(out), "--workers", workers])
        assert code == 0
        outputs.append(((out / "sweep_ZERO_D4.json").read_bytes(),
                        (out / "sweep_ZERO_D4.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_sweeps_above_width_12_are_usage_errors(exact_lib_file, tmp_path,
                                                capsys, monkeypatch):
    def never(*_args):
        raise AssertionError("evaluated a grid that is too wide to sweep")
    monkeypatch.setattr(axmul.metrics, "eval_multiply_many", never)
    monkeypatch.setattr(axmul.clustering, "eval_multiply_many", never)
    out = tmp_path / "out"
    for command in ("sweep", "clusters", "histogram"):
        code = main([command, "--library", exact_lib_file, "--width", "13",
                     "--type", "exact", "--degree", "0", "--out", str(out)])
        assert code == 1
        assert "widths up to 12" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["clusters", "--width", "12", "--cluster-size", "2"],
    ["sweep", "--width", "11", "--cluster-size", "1"],
])
def test_oversized_block_grids_are_usage_errors(exact_lib_file, tmp_path, capsys,
                                                args, eval_pair_counts):
    out = tmp_path / "out"
    code = main([*args, "--library", exact_lib_file, "--type", "exact",
                 "--degree", "0", "--out", str(out)])
    assert code == 1
    assert "blocks" in capsys.readouterr().err
    assert eval_pair_counts == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "clusters", "histogram"])
@pytest.mark.parametrize("width", [4, 8])
def test_commands_evaluate_each_pair_once(zero_lib_file, tmp_path, command,
                                          width, eval_pair_counts):
    code = main([command, "--library", zero_lib_file, "--width", str(width),
                 "--type", "ZERO", "--degree", str(width), "--out",
                 str(tmp_path), "--workers", "2"])
    assert code == 0
    assert sum(eval_pair_counts) == 4 ** width
    assert max(eval_pair_counts) <= 4 ** width // 16


def test_table_filters(fake_ama_file, tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["table", "--library", fake_ama_file, "--type", "AMA5",
                 "--out", str(out)]) == 0
    lines = (out / "library_table.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 4

    assert main(["table", "--library", fake_ama_file, "--degree", "D4",
                 "--out", str(out)]) == 0
    lines = (out / "library_table.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 5

    assert main(["table", "--library", fake_ama_file, "--ordinals", "1,20",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "library_table.json").read_text())
    assert [d["design"] for d in doc] == ["Design1", "Design20"]

    assert main(["table", "--library", fake_ama_file, "--type", "NOPE",
                 "--out", str(out)]) == 1


def test_filtered_table_analyzes_only_matching_designs(fake_ama_file, tmp_path,
                                                       eval_pair_counts):
    assert main(["table", "--library", fake_ama_file, "--type", "AMA5",
                 "--out", str(tmp_path)]) == 0
    assert sum(eval_pair_counts) == 4 * 4 ** 8


@pytest.mark.parametrize("design_filter", [
    (["--type", "NOPE"], "matched no rows"),
    (["--ordinals", "99"], "ordinals run 1..20, got [99]"),
    (["--ordinals", "abc"], "--ordinals"),   # argparse names the flag
    # an ordinal that names no design is refused, not dropped
    (["--ordinals", "1,99"], "ordinals run 1..20, got [99]"),
    (["--ordinals", "0,21"], "ordinals run 1..20, got [0, 21]"),
    (["--ordinals", ""], "--ordinals"),   # an empty filter used to select every row
    (["--degree", "5"], "matched no rows"),
    (["--degree", "D5"], "degree must be D1..D4 or an integer, got 'D5'"),
    (["--degree", "17"], "degree 17 out of range for width 8"),
])
def test_table_filter_matching_nothing_is_usage_error(fake_ama_file, tmp_path, capsys,
                                                      design_filter, eval_pair_counts):
    args, message = design_filter
    out = tmp_path / "out"
    assert main(["table", "--library", fake_ama_file, *args,
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert eval_pair_counts == []
    assert not out.exists()


@pytest.mark.parametrize("degree", ["7", "d1", "D1"])
def test_table_degree_is_a_name_or_a_bit_count(fake_ama_file, tmp_path, degree):
    assert main(["table", "--library", fake_ama_file, "--degree", degree,
                 "--format", "json", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "library_table.json").read_text())
    assert [d["design"] for d in doc] == [f"Design{k}" for k in (1, 5, 9, 13, 17)]


def test_table_determinism_and_workers(fake_ama_file, tmp_path):
    runs = {}
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        assert main(["table", "--library", fake_ama_file, "--out", str(out),
                     "--workers", workers]) == 0
        runs[tag] = ((out / "library_table.csv").read_bytes(),
                     (out / "library_table.json").read_bytes())
    assert runs["a"] == runs["b"] == runs["c"]


@pytest.mark.parametrize("command", ["table", "select"])
def test_library_commands_start_no_process(command, fake_ama_file, tmp_path,
                                           capsys, monkeypatch):
    """`--workers 2` is accepted, starts no process and writes `--workers 1`'s bytes."""
    def outputs(workers):
        out = tmp_path / workers
        assert main([command, "--library", fake_ama_file, "--out", str(out),
                     "--workers", workers]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return files, capsys.readouterr().out

    serial = outputs("1")

    def no_process(*_args, **_kwargs):
        raise AssertionError(f"{command} started a process")
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
    assert outputs("2") == serial


@pytest.mark.parametrize("command", ["table", "select"])
def test_library_commands_hold_one_report_at_a_time(command, fake_ama_file, tmp_path):
    """At cluster size 2 the traced peak is a few per-block reports wide, not 20.

    tracemalloc counts numpy's buffers and the command's own allocations; an
    RSS high-water mark would also count whatever this process held before.
    """
    library = load_library_file(fake_ama_file)
    # made before tracing starts, so the modules the command imports are loaded
    _, report = analyze_design(MultiplierConfig(8, "AMA1", 7, "row_ripple"), library, 2)
    report_bytes = report.cells.nbytes
    del report
    tracemalloc.start()
    try:
        assert main([command, "--library", fake_ama_file, "--cluster-size", "2",
                     "--format", "json", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * report_bytes, f"{peak / report_bytes:.1f} reports"


def test_clusters_exact(exact_lib_file, tmp_path, capsys):
    out = tmp_path / "cl"
    code = main(["clusters", "--library", exact_lib_file, "--width", "4",
                 "--type", "exact", "--degree", "0", "--cluster-size", "4",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ned>1: 0/16" in printed
    assert "psnr<25dB: 0/16" in printed
    matrix = (out / "clusters_exact_d0_ned.txt").read_text().strip().split("\n")
    assert len(matrix) == 4
    assert all(v == "0" for row in matrix for v in row.split())
    assert (out / "clusters_exact_d0.svg").read_text().startswith("<svg")
    csv_lines = (out / "clusters_exact_d0.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + 16


@pytest.mark.parametrize("name", ["sub/dir", "../esc", "back\\slash", "tab\tin",
                                  "bell\x07", "del\x7f", "a\ud800b"])
def test_adder_names_that_break_outputs_are_format_errors(tmp_path, capsys, name,
                                                          eval_pair_counts):
    library = tmp_path / "lib.json"
    library.write_text(json.dumps([
        {"name": name, "sum_bits": "01101001", "cout_bits": "00010111"}]))
    assert main(["validate", str(library)]) == 2
    out = tmp_path / "out"
    assert main(["clusters", "--library", str(library), "--width", "4",
                 "--cluster-size", "4", "--type", name, "--degree", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count(
        "path separator, a control character or a surrogate") == 2
    assert eval_pair_counts == []
    assert not out.exists()


def test_adder_names_too_long_for_a_file_name_are_format_errors(tmp_path, capsys,
                                                                eval_pair_counts):
    library = tmp_path / "lib.json"
    name = "\u00e9" * 117 + "N"   # 235 bytes in UTF-8, one past the limit
    library.write_text(json.dumps([
        {"name": name, "sum_bits": "01101001", "cout_bits": "00010111"}]))
    assert main(["validate", str(library)]) == 2
    out = tmp_path / "out"
    assert main(["clusters", "--library", str(library), "--width", "4",
                 "--cluster-size", "4", "--type", name, "--degree", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("name is 235 bytes in UTF-8; at most 234") == 2
    assert eval_pair_counts == []
    assert not out.exists()


def test_longest_adder_name_writes_every_output(tmp_path):
    name = "N" * 234
    library = tmp_path / "lib.json"
    library.write_text(json.dumps([
        {"name": name, "sum_bits": "01101001", "cout_bits": "00010111"}]))
    # d10 is as long as the longest label, d24; clusters_<name>_d10_ned.txt is 255 bytes
    common = ["--library", str(library), "--width", "5", "--cluster-size", "4",
              "--type", name, "--degree", "10", "--out", str(tmp_path / "out")]
    for command in ("sweep", "clusters", "histogram"):
        assert main([command, *common]) == 0
    label = f"{name}_d10"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted([
        f"sweep_{label}.csv", f"sweep_{label}.json",
        f"clusters_{label}.csv", f"clusters_{label}_ned.txt",
        f"clusters_{label}.svg", f"clusters_{label}.json",
        f"histogram_{label}.csv", f"histogram_{label}.svg", f"histogram_{label}.json"])


def test_svg_titles_escape_markup(tmp_path):
    name = "A&B<x>"
    library = tmp_path / "lib.json"
    library.write_text(json.dumps([
        {"name": name, "sum_bits": "01101001", "cout_bits": "00010111"}]))
    for command in ("clusters", "histogram"):
        assert main([command, "--library", str(library), "--width", "4",
                     "--cluster-size", "4", "--type", name, "--degree", "0",
                     "--format", "svg", "--out", str(tmp_path)]) == 0
    titles = {}
    for svg in tmp_path.glob("*.svg"):
        title = xml.dom.minidom.parse(str(svg)).getElementsByTagName("text")[0]
        titles[svg.name] = title.firstChild.data
    assert titles == {f"clusters_{name}_d0.svg": f"per-cluster NED, {name}_d0",
                      f"histogram_{name}_d0.svg": f"ED histogram, {name}_d0"}


def test_histogram_exact(exact_lib_file, tmp_path, capsys):
    out = tmp_path / "h"
    code = main(["histogram", "--library", exact_lib_file, "--width", "4",
                 "--type", "exact", "--degree", "0", "--out", str(out)])
    assert code == 0
    lines = (out / "histogram_exact_d0.csv").read_text().strip().split("\n")
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 256
    assert counts == [256]
    assert (out / "histogram_exact_d0.svg").exists()
    assert "max=0" in capsys.readouterr().out


def test_histogram_zero_adder_mass(zero_lib_file, tmp_path):
    out = tmp_path / "hz"
    code = main(["histogram", "--library", zero_lib_file, "--width", "4",
                 "--type", "ZERO", "--degree", "8", "--out", str(out)])
    assert code == 0
    lines = (out / "histogram_ZERO_d8.csv").read_text().strip().split("\n")
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 256


def test_histogram_bin_width_past_int64_gives_one_bin(tmp_path):
    csvs = {}
    for bin_width in (2 ** 62, 2 ** 64):
        out = tmp_path / str(bin_width)
        assert main(["histogram", "--width", "4", "--cluster-size", "4",
                     "--type", "AMA1", "--degree", "3", "--bin-width", str(bin_width),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "histogram_AMA1_d3.json").read_text())
        assert doc["bin_width"] == bin_width
        csvs[bin_width] = (out / "histogram_AMA1_d3.csv").read_text()
    assert csvs[2 ** 64] == "lower_edge,count\n0,256\n"   # one bin of 4^4 pairs
    assert csvs[2 ** 64] == csvs[2 ** 62]


def test_histogram_svg_draws_at_most_one_bar_per_pixel_column(tmp_path):
    assert main(["histogram", "--type", "AMA2", "--degree", "D4", "--bin-width", "1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "histogram_AMA2_D4.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 32765   # the CSV keeps every bin
    svg = (tmp_path / "histogram_AMA2_D4.svg").read_text()
    bars = xml.dom.minidom.parseString(svg).getElementsByTagName("rect")[1:]
    xs = [float(bar.getAttribute("x")) for bar in bars]
    assert 0 < len(xs) <= 640
    assert xs == sorted(set(xs))
    assert all(46 <= x < 46 + 640 for x in xs)
    assert "32765 bins summed into 640 bars" in svg


def test_select_threshold_extremes(fake_ama_file, tmp_path):
    out = tmp_path / "s0"
    assert main(["select", "--library", fake_ama_file, "--ned-threshold", "0",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "selection.json").read_text())
    assert summary["usage_counts"] == {"exact": 256}

    out = tmp_path / "sbig"
    assert main(["select", "--library", fake_ama_file,
                 "--ned-threshold", "1e9", "--out", str(out)]) == 0
    lines = (out / "selection.csv").read_text().strip().split("\n")
    assert lines[0] == "ia,ib,design"
    chosen = {line.split(",")[2] for line in lines[1:]}
    # max degree always qualifies: only D4 designs appear
    assert chosen <= {"4", "8", "12", "16", "20"}
    summary = json.loads((out / "selection.json").read_text())
    assert sum(summary["usage_counts"].values()) == 256
    assert summary["exact_fraction"] == 0.0


BAD_INPUTS = {
    "workers": (["--workers", "0"], 1),
    "format": (["--format", "csv,xml"], 1),
    "missing-library": (["--library", "missing.json"], 2),
    "malformed-library": (["--library", "malformed.json"], 2),
    # an output path under which no directory can be made
    "out-is-a-file": (["--out", "file.txt"], 1),
    "out-under-a-file": (["--out", "file.txt/out"], 1),
}
BAD_INPUT_CASES = {
    **{f"{name}-{command}": (command, bad, code)
       for name, (bad, code) in BAD_INPUTS.items()
       for command in ("sweep", "clusters", "select")},
    # the thresholds are refused below zero where they are read, and at all
    # on the commands that read none
    **{f"{flag}-{command}": (command, [f"--{flag}", "-1" if reads else "1"], 1)
       for flag in ("ned-threshold", "psnr-threshold")
       for command, reads in (("clusters", True), ("select", True), ("sweep", False),
                              ("table", False), ("histogram", False))},
    # NaN compares false to every value, so it would judge no block
    **{f"{flag}-nan-{command}": (command, [f"--{flag}", "nan"], 1)
       for flag in ("ned-threshold", "psnr-threshold")
       for command in ("clusters", "select")},
    # the design library exists at width 8 only
    "width-table": ("table", ["--width", "10", "--ordinals", "1"], 1),
    "width-select": ("select", ["--width", "4", "--cluster-size", "64"], 1),
    # at most 2^16 histogram bins, whatever the design's EDs turn out to be
    "bin-width-histogram": ("histogram", ["--width", "10", "--bin-width", "1"], 1),
    "bin-width-zero-histogram": ("histogram", ["--bin-width", "0"], 1),
    # the layout alone decides the half-adder positions
    "half-adders-sweep": ("sweep", ["--half-adders", "exact"], 1),
}


@pytest.mark.parametrize("command, bad, code", BAD_INPUT_CASES.values(),
                         ids=BAD_INPUT_CASES.keys())
def test_bad_input_exit_codes(fake_ama_file, tmp_path, command, bad, code,
                              eval_pair_counts):
    (tmp_path / "malformed.json").write_text(json.dumps([
        {"name": "SHORT", "sum_bits": "0110100", "cout_bits": "00010111"}]))
    (tmp_path / "file.txt").write_text("")
    design = (["--type", "AMA1", "--degree", "D1"]
              if command in ("sweep", "clusters", "histogram") else [])
    bad = [str(tmp_path / a) if a.endswith(".json") or a.startswith("file.txt") else a
           for a in bad]
    out = tmp_path / "out"
    # a later --library or --out overrides the good one
    assert main([command, *design, "--library", fake_ama_file, "--out", str(out),
                 *bad]) == code
    assert eval_pair_counts == []
    assert not out.exists()
    assert (tmp_path / "file.txt").read_text() == ""


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
EXPECTED_DIR = BENCH_DIR / "expected"
GOLDEN_COMMON = ["--width", "8", "--architecture", "row_ripple"]


# the benchmark's commands whose digests bench/expected commits
COMMITTED_DIGEST_CASES = [
    ("paper-table-w8", "table",
     ["table", "--cluster-size", "16", "--workers", "2"]),
    ("paper-table-w8", "select",
     ["select", "--cluster-size", "16", "--workers", "2"]),
    ("fine-clusters-w8", "select",
     ["select", "--cluster-size", "2", "--workers", "1"]),
    *[("fine-clusters-w8", f"clusters:{t}_{d}",
       ["clusters", "--cluster-size", "2", "--type", t, "--degree", d,
        "--format", "csv,json,svg"])
      for t, d in (("AMA1", "D1"), ("AMA1", "D4"), ("AMA3", "D2"), ("AMA5", "D3"))],
    *[(workload, "control",
       ["sweep", "--cluster-size", size, "--type", "exact", "--degree", "0",
        "--workers", "1"])
      for workload, size in (("paper-table-w8", "16"), ("fine-clusters-w8", "2"))],
]


@pytest.mark.parametrize("workload, key, args", COMMITTED_DIGEST_CASES)
def test_outputs_match_committed_digests(workload, key, args, tmp_path, capsys):
    """Shipped-library outputs stay byte-identical to the benchmark's digests."""
    assert_committed_digests(workload, key, args, tmp_path, capsys)


def assert_committed_digests(workload, key, args, tmp_path, capsys):
    expected = json.loads((EXPECTED_DIR / f"{workload}.json").read_text())["commands"][key]
    code = main([*args, *GOLDEN_COMMON, "--library", default_library_path(),
                 "--out", str(tmp_path)])
    assert code == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in tmp_path.iterdir()}
    assert files == expected["files"]
    assert hashlib.sha256(stdout).hexdigest() == expected["stdout"]


BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """`sum()` of floats as CPython computes it from 3.12 on: Neumaier-compensated.

    Anything but a sum of floats from the default start goes to the builtin.
    """
    items = list(iterable)
    if (type(start) is not int or start != 0 or not items
            or any(type(v) is not float for v in items)):
        return BUILTIN_SUM(items, start)
    total, compensation = 0.0 + items[0], 0.0
    for value in items[1:]:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_rounds_as_python_3_12():
    assert BUILTIN_SUM([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([math.inf, 1.0]) == math.inf
    assert compensated_sum([3, 4]) == 7


@pytest.mark.parametrize("workload, key, args", COMMITTED_DIGEST_CASES)
def test_committed_digests_hold_under_a_compensated_sum(workload, key, args, tmp_path,
                                                         capsys, monkeypatch):
    """The output bytes do not depend on how the running Python's `sum()` rounds."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert_committed_digests(workload, key, args, tmp_path, capsys)


# sha256 of select --metric psnr on the shipped library, files recorded before
# the selection became an ordinal array, stdout since it prints the rule as
# `psnr>= t`; the benchmark digests cover --metric ned only
PSNR_SELECT_DIGESTS = {
    16: {"selection.csv": "71ea7485a29e83a4a2c8c078cef45658c10a74beaa4137376102ae0ea4d82d7b",
         "selection.json": "091d2d33c98a654cdc6853aaa52889bf9e284a6d4e98092defecb3f334a5bf50",
         "stdout": "f76ebab71717a557babd49fd1cbf5847da10b6321cc1da3f0121d88984174292"},
    2: {"selection.csv": "75c471fc765e1971b08555d38b977c94c7e5e3588d129a2945ff0a77b53ce283",
        "selection.json": "20a41992c4416cb030bed2faa1ee5cc76b49d207fd370e93c7db5ddef0fdeb38",
        "stdout": "1db9f5e850da32ca97d027fb76da07774b85e160f6c4e2bd40bb130dddff5cf6"},
}


@pytest.mark.parametrize("cluster_size", sorted(PSNR_SELECT_DIGESTS))
def test_psnr_selection_matches_recorded_digests(cluster_size, tmp_path, capsys):
    code = main(["select", "--metric", "psnr", "--psnr-threshold", "25",
                 "--cluster-size", str(cluster_size), "--out", str(tmp_path)])
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PSNR_SELECT_DIGESTS[cluster_size]


# sha256 of outputs on the shipped library, recorded before the report
# serializers were rewritten and before wide histograms merged their bars;
# the width-10 rows (one row_ripple, one carry_save design) before the block
# threshold moved into ClusterReport.meets.  The benchmark digests cover no
# approximate sweep, no histogram, no width but 8 and no carry_save output.
RECORDED_DIGESTS = {
    "sweep AMA4 D2": {
        "sweep_AMA4_D2.csv": "5d942c808aecd576334c23962d46b676ca18dfcb625ac23dfa06bea05d5d505b",
        "sweep_AMA4_D2.json": "cdc93f0823a8683cdb8a63d104aedd00388b1573a8f2a47f6b1bc4bada06b084",
        "stdout": "94020be1626db8dd3238febcf732cbf054c414006c23c671b9a2efa06bdc4d99"},
    "histogram AMA2 D4": {
        "histogram_AMA2_D4.csv": "cdf212ca6f6e382017cf9cfc21f5b0e3386d232e46577b600b74a146b7360b40",
        "histogram_AMA2_D4.json": "45f8f203d0f248bf260f2a0b648dbe2bbf85fe77155d354dbb5f532748eb040f",
        "histogram_AMA2_D4.svg": "1cc5708c433cfd794b5b3e70d3454ecd21c9aa165d6e740ed9855ab3459c7a0c",
        "stdout": "da691db67c80fe76dfa961e169ac5724c803f60370226a7da4a1bd94e14ecec7"},
    "clusters AMA5 12 --width 10 --cluster-size 16": {
        "clusters_AMA5_d12.csv": "7a71dd109f644090d3101c204497172d18e0abab4f6f16afb9163651c245fd4b",
        "clusters_AMA5_d12.json": "df15bc0da828e04e72da5d168ccf1d4ce051f188ed34d87ebc3b967fb5f5221c",
        "clusters_AMA5_d12.svg": "b8519c9b047296d199507b86c943d911a5a31e41e878870e75d226bdc1c07a7c",
        "clusters_AMA5_d12_ned.txt": "97489fdaedd05cd1d16ec7a4f5d3c8584adb532931baf871ff55190a76a7966d",
        "stdout": "c50f48e9daa46f93c0e75f8271ffb3c5795e1c664c6623a82892aa39881b5292"},
    "histogram AMA5 12 --width 10 --cluster-size 16": {
        "histogram_AMA5_d12.csv": "37869d8a8c36dc91652601b8f969ffafa293e79496e7b3a54c98e8398a6f3f09",
        "histogram_AMA5_d12.json": "4c05f6fb2cf7422de9e187914ccb55af8c6df76afc2b58a82dbdc5b6fbaa4011",
        "histogram_AMA5_d12.svg": "d5be12e2e13ada44884f7eade82e47ecea8beb3f5feb98340ab083b54492e8ef",
        "stdout": "6808bb8dd82726f6851837c2137cd6bf0e0ed17549145aa222b2c8f1fef5103b"},
    "clusters AMA3 14 --width 10 --cluster-size 16 --architecture carry_save": {
        "clusters_AMA3_d14.csv": "8967072abf649a1c9b9edb3ba0df852eb36a353f3f1a97bbf5397c4b19d87fed",
        "clusters_AMA3_d14.json": "37337261487c11905e2c2cd2dad1944abe5d8b578b0304ed968f8a48e501546b",
        "clusters_AMA3_d14.svg": "e3d9d659ec802a9859a8c7180c21ef9ecbc04a77606cba5b8c5aa98415352fdc",
        "clusters_AMA3_d14_ned.txt": "27291e97713f9ec3d6c40fa7e233acd097684f4adce6188732fb3fb2a1e0b230",
        "stdout": "b928c02260512d92444cafb01e39def1c136184452d7ceb9d3a7a4486a642de7"},
    "histogram AMA3 14 --width 10 --cluster-size 16 --architecture carry_save": {
        "histogram_AMA3_d14.csv": "6193ad51528f00482c86df777e5543876e1643e586a76b05206a130e47e5cea8",
        "histogram_AMA3_d14.json": "140d2dc53a1ecf19db75f866a93e47dd3d0a14004b408454ea11d5e3b613da37",
        "histogram_AMA3_d14.svg": "ef3498f01d7bfacaa884bf1e831133992649c98b892c172cce14527fc637544f",
        "stdout": "9ec3eada29ebad48b7908557e76237c24f39f6d2e98e67a9171f9dd750581daa"},
}


@pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS))
def test_outputs_match_recorded_digests(key, tmp_path, capsys):
    assert_recorded_digests(key, tmp_path, capsys)


@pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS))
def test_recorded_digests_hold_under_a_compensated_sum(key, tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert_recorded_digests(key, tmp_path, capsys)


def assert_recorded_digests(key, tmp_path, capsys):
    command, adder, degree, *options = key.split()
    assert main([command, "--type", adder, "--degree", degree, *options,
                 "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == RECORDED_DIGESTS[key]


def test_validate_matches_the_bench_oracle(monkeypatch, capsys):
    """The benchmark counts any other `validate` report as a failed operation."""
    workloads = load_bench_module("workloads", monkeypatch)
    assert main(["validate"]) == 0
    library = Path(default_library_path()).read_text(encoding="utf-8")
    assert capsys.readouterr().out.encode("utf-8") == workloads.validate_stdout(library)


def load_bench_module(name, monkeypatch):
    """bench/<name>.py, imported without putting bench/ on the path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_trace_wraps_every_layer_name(monkeypatch):
    """`bench/run.py --trace 1` wraps the layer functions by name; each must exist."""
    spans = load_bench_module("spans", monkeypatch)

    def bound():
        found = {}
        for name in spans.TRACED:
            module, attr = name.split(".")
            # AttributeError here names a traced function that no longer exists
            found[name] = getattr(importlib.import_module(f"axmul.{module}"), attr)
        return found

    before = bound()
    evaluator = axmul.clustering.eval_multiply_many
    with spans.instrument(spans.Tracer()):
        during = bound()
        assert axmul.clustering.eval_multiply_many is not evaluator
    assert [name for name in spans.TRACED if during[name] is before[name]] == []
    assert bound() == before
    assert axmul.clustering.eval_multiply_many is evaluator


def test_bench_command_lines_parse(monkeypatch, tmp_path):
    """Every command line the benchmark runs is accepted by the parser."""
    workloads = load_bench_module("workloads", monkeypatch)
    (tmp_path / "work").mkdir()
    parser = build_parser()
    for make in workloads.WORKLOADS.values():
        # random-wide-w10 writes its generated library under tmp_path
        workload = make(1, Path("work"), tmp_path)
        assert parser.parse_args(["validate", workload.library]).command == "validate"
        for command in workload.commands:
            # an unknown flag exits 1 here through the parser's error()
            args = parser.parse_args([*command.args, "--out", str(tmp_path / "out")])
            assert args.command == command.args[0]
