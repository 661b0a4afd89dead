"""Command-line front end: sweeps, tables, cluster grids, histograms, selection.

Subcommands: validate, sweep, table, clusters, histogram, select.
Exit codes: 0 success, 1 usage error, 2 input-format error, 3 internal error.

The parser is the one home of every analysis default; the library modules
take each setting as an argument.  The adder library file is --library, else
the packaged one.

The Python API is the submodules (axmul.adders, axmul.fabric, axmul.metrics,
axmul.clustering, axmul.designspace, axmul.render); the package itself
re-exports nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

# Only `adders` at module load: each analysis command imports the numpy
# layers in its own body, so validate, --help and usage errors never load
# numpy (tests/test_cli.py pins this in a fresh interpreter).
from .adders import (AdderFormatError, AdderLibrary, UnknownAdderError,
                     error_profile, load_library_file)

if TYPE_CHECKING:
    from .fabric import MultiplierConfig

DEFAULT_FORMATS = ("csv", "json", "svg")
# designspace numbers its 5 adder types x 4 degrees 1..20; kept here so the
# --ordinals usage error needs no numpy
DESIGN_ORDINALS = range(1, 21)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit code 2 is reserved for input-format errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def default_library_path() -> str:
    return str(resources.files("axmul").joinpath("data/ama_adders.json"))


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:   # also refuses NaN, which compares false to everything
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def format_list(text: str) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    bad = set(formats) - set(DEFAULT_FORMATS)
    if bad:
        raise argparse.ArgumentTypeError(f"unsupported formats: {sorted(bad)}")
    return formats


def ordinal_list(text: str) -> set[int]:
    try:
        ordinals = {int(tok) for tok in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of design ordinals, got {text!r}") from None
    bad = sorted(ordinals - set(DESIGN_ORDINALS))
    if bad:
        raise argparse.ArgumentTypeError(
            f"design ordinals run {DESIGN_ORDINALS[0]}..{DESIGN_ORDINALS[-1]}, got {bad}")
    return ordinals


def parse_degree(text: str, width: int) -> tuple[str, int]:
    """Accept D1..D4 names or a plain integer bit count.

    The label is the D-name at the library width, else d<bits>, so a name
    and its bit count write the same files at every width.
    """
    from .designspace import DEGREE_BITS, LIBRARY_WIDTH
    name = text.upper()
    if name in DEGREE_BITS:
        bits = DEGREE_BITS[name]
    else:
        try:
            bits = int(text)
        except ValueError:
            raise ValueError(f"degree must be D1..D4 or an integer, got {text!r}") from None
        if not 0 <= bits <= 2 * width:
            raise ValueError(f"degree {bits} out of range for width {width}")
    if width == LIBRARY_WIDTH:
        for dname, dbits in DEGREE_BITS.items():
            if dbits == bits:
                return dname, bits
    return f"d{bits}", bits


def _add_common(sub, with_design=False, with_thresholds=False):
    sub.add_argument("--library", default=default_library_path(),
                     help="adder library JSON file (default: the packaged one)")
    sub.add_argument("--width", type=int, default=8)
    sub.add_argument("--cluster-size", type=int, default=16)
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub.add_argument("--format", type=format_list, default=DEFAULT_FORMATS,
                     help="comma list from csv,json,svg")
    sub.add_argument("--workers", type=positive_int, default=1,
                     help="accepted for existing scripts and has no effect: "
                          "every command runs in one process")
    sub.add_argument("--architecture", choices=("row_ripple", "carry_save"),
                     default="row_ripple",
                     help="array layout (default: row_ripple, which the "
                          "shipped library is calibrated against)")
    if with_design:
        sub.add_argument("--type", required=True, help="adder type name")
        sub.add_argument("--degree", required=True, help="D1..D4 or bit count")
    if with_thresholds:   # only the commands that judge blocks read them
        sub.add_argument("--ned-threshold", type=nonnegative_float, default=1.0)
        sub.add_argument("--psnr-threshold", type=nonnegative_float, default=25.0)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="axmul", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = p.add_subparsers(dest="command", required=True)

    v = subs.add_parser("validate", help="check an adder library file")
    v.add_argument("library_path", nargs="?", default=default_library_path())
    v.set_defaults(func=cmd_validate)

    s = subs.add_parser("sweep", help="exhaustive sweep of one design")
    _add_common(s, with_design=True)
    s.set_defaults(func=cmd_sweep)

    t = subs.add_parser("table", help="accuracy table over the 20-design library")
    _add_common(t)
    t.add_argument("--type", default=None, help="filter rows by adder type")
    t.add_argument("--degree", default=None,
                   help="filter rows by degree: D1..D4 or bit count")
    t.add_argument("--ordinals", type=ordinal_list, default=None,
                   help="comma list of design ordinals")
    t.set_defaults(func=cmd_table)

    c = subs.add_parser("clusters", help="per-cluster NED/PSNR analysis of one design")
    _add_common(c, with_design=True, with_thresholds=True)
    c.set_defaults(func=cmd_clusters)

    h = subs.add_parser("histogram", help="error-distance histogram of one design")
    _add_common(h, with_design=True)
    h.add_argument("--bin-width", type=int, default=None)
    h.set_defaults(func=cmd_histogram)

    e = subs.add_parser("select", help="quality-constrained design per cluster")
    _add_common(e, with_thresholds=True)
    e.add_argument("--metric", choices=("ned", "psnr"), default="ned")
    e.set_defaults(func=cmd_select)
    return p


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8", newline="\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _design_config(args) -> tuple[AdderLibrary, str, MultiplierConfig]:
    """The library file, and the output name and config of --type/--degree."""
    from .fabric import MultiplierConfig
    library = load_library_file(args.library)
    label, bits = parse_degree(args.degree, args.width)
    config = MultiplierConfig(args.width, args.type, bits, args.architecture)
    library.get(args.type)   # fail early with a resolution error
    return library, f"{args.type}_{label}", config


def _library_entries(args) -> tuple[AdderLibrary, list]:
    """The library file and its 20 (DesignId, config) entries; one width only."""
    from .designspace import LIBRARY_WIDTH, enumerate_library
    if args.width != LIBRARY_WIDTH:
        raise ValueError(f"{args.command} analyzes the {LIBRARY_WIDTH}-bit design "
                         f"library; --width {args.width} is not supported")
    library = load_library_file(args.library)
    return library, enumerate_library(library, architecture=args.architecture)


def cmd_validate(args) -> int:
    library = load_library_file(args.library_path)
    for spec in library:
        sum_rows, cout_rows = error_profile(spec)
        count = len(sum_rows) + len(cout_rows)
        detail = f" (sum rows {sum_rows}, cout rows {cout_rows})" if count else ""
        print(f"{spec.name}: {count} erroneous rows{detail}")
    return 0


def cmd_sweep(args) -> int:
    from .designspace import analyze_design
    from .metrics import fmt6, report_csv_header, report_csv_row
    library, name, config = _design_config(args)
    report, _ = analyze_design(config, library, args.cluster_size)

    if "json" in args.format:
        _write(args.out, f"sweep_{name}.json", _json_text(asdict(report)))
    if "csv" in args.format:
        csv_text = (report_csv_header() + "\n" +
                    report_csv_row(report, (name, args.type, str(config.degree))) + "\n")
        _write(args.out, f"sweep_{name}.csv", csv_text)
    print(f"{name}: er={fmt6(report.er)} med={fmt6(report.med)} "
          f"ned={fmt6(report.ned_clustered_avg)} mred={fmt6(report.mred)} "
          f"mse={fmt6(report.mse)} psnr={fmt6(report.psnr_clustered_avg)}")
    return 0


def cmd_table(args) -> int:
    from .designspace import library_metrics_table, table_csv
    from .metrics import fmt6
    library, entries = _library_entries(args)
    if args.type:
        entries = [e for e in entries if e[0].type_knob == args.type]
    if args.degree:
        _, bits = parse_degree(args.degree, args.width)
        entries = [e for e in entries if e[0].degree_bits == bits]
    if args.ordinals:
        entries = [e for e in entries if e[0].ordinal in args.ordinals]
    if not entries:
        raise ValueError("design filter matched no rows")
    rows = library_metrics_table(entries, library, args.cluster_size)

    if "csv" in args.format:
        _write(args.out, "library_table.csv", table_csv(rows))
    if "json" in args.format:
        doc = [{"design": r.design.label, "type": r.design.type_knob,
                "degree": r.design.degree_knob, "ordinal": r.design.ordinal,
                **asdict(r.report)} for r in rows]
        _write(args.out, "library_table.json", _json_text(doc))
    for r in rows:
        print(f"{r.design.label} ({r.design.type_knob}/{r.design.degree_knob}): "
              f"er={fmt6(r.report.er)} med={fmt6(r.report.med)} "
              f"ned={fmt6(r.report.ned_clustered_avg)} "
              f"psnr={fmt6(r.report.psnr_clustered_avg)}")
    return 0


def cmd_clusters(args) -> int:
    from . import render
    from .clustering import cluster_csv, cluster_matrix
    from .designspace import analyze_design
    from .metrics import fmt6
    library, name, config = _design_config(args)
    _, report = analyze_design(config, library, args.cluster_size)
    total = report.spec.total_clusters
    ned_over = total - int(report.meets("ned", args.ned_threshold).sum())
    psnr_under = total - int(report.meets("psnr", args.psnr_threshold).sum())

    if "csv" in args.format:
        _write(args.out, f"clusters_{name}.csv", cluster_csv(report))
        _write(args.out, f"clusters_{name}_ned.txt", cluster_matrix(report))
    if "svg" in args.format:
        _write(args.out, f"clusters_{name}.svg",
               render.cluster_svg(report, f"per-cluster NED, {name}"))
    if "json" in args.format:
        doc = {
            "design": name,
            "ned_avg": report.ned_avg, "ned_max": report.ned_max,
            "psnr_avg": report.psnr_avg, "psnr_min": report.psnr_min,
            "ned_violations": ned_over, "psnr_violations": psnr_under,
        }
        _write(args.out, f"clusters_{name}.json", _json_text(doc))

    print(f"{name}: ned_avg={fmt6(report.ned_avg)} psnr_avg={fmt6(report.psnr_avg)}")
    print(f"ned>{args.ned_threshold:g}: {ned_over}/{total}")
    print(f"psnr<{args.psnr_threshold:g}dB: {psnr_under}/{total}")
    return 0


def cmd_histogram(args) -> int:
    from . import render
    from .clustering import ed_histogram, histogram_csv
    from .fabric import build_multiplier
    from .metrics import fmt6
    library, name, config = _design_config(args)
    grid = build_multiplier(config, library)
    hist = ed_histogram(grid, bin_width=args.bin_width)

    if "csv" in args.format:
        _write(args.out, f"histogram_{name}.csv", histogram_csv(hist))
    if "svg" in args.format:
        _write(args.out, f"histogram_{name}.svg",
               render.histogram_svg(hist, f"ED histogram, {name}"))
    if "json" in args.format:
        doc = {"design": name, "bin_width": hist.bin_width,
               "total_count": hist.total_count, "min_ed": hist.min_ed,
               "max_ed": hist.max_ed, "mean_ed": hist.mean_ed}
        _write(args.out, f"histogram_{name}.json", _json_text(doc))
    print(f"{name}: ED min={hist.min_ed} max={hist.max_ed} "
          f"mean={fmt6(hist.mean_ed)} over {hist.total_count} pairs")
    return 0


def cmd_select(args) -> int:
    from .clustering import RULES
    from .designspace import (analyze_design, select_per_cluster, selection_csv,
                              selection_summary)
    from .metrics import fmt6
    library, entries = _library_entries(args)
    threshold = args.ned_threshold if args.metric == "ned" else args.psnr_threshold
    # each design is analyzed as the selection draws it, and dropped once folded in
    reports = ((did, analyze_design(config, library, args.cluster_size)[1])
               for did, config in entries)
    ordinals = select_per_cluster(reports, args.metric, threshold)
    summary = selection_summary(ordinals)

    if "csv" in args.format:
        _write(args.out, "selection.csv", selection_csv(ordinals))
    if "json" in args.format:
        doc = {**summary, "policy": {"metric": args.metric, "threshold": threshold}}
        _write(args.out, "selection.json", _json_text(doc))
    top = sorted(summary["usage_counts"].items(), key=lambda kv: (-kv[1], kv[0]))[:4]
    shown = " ".join(f"{k}:{v}" for k, v in top)
    _, rule = RULES[args.metric]
    print(f"selection ({args.metric}{rule} {threshold:g}): "
          f"exact_fraction={fmt6(summary['exact_fraction'])} top=[{shown}]")
    return 0


def main(argv=None) -> int:
    # axmul makes no BLAS call, but OpenBLAS's idle worker thread spins for
    # ~0.1 s of CPU in every process that imports numpy; a caller's value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    out = getattr(args, "out", None)   # refused before any work if it cannot be a directory
    nearest = out and next(p for p in (out, *out.parents) if p.exists())
    if nearest and not nearest.is_dir():
        print(f"axmul: --out {out}: {nearest} is not a directory", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except AdderFormatError as exc:
        print(f"axmul: {exc}", file=sys.stderr)
        return 2
    except (UnknownAdderError, ValueError, KeyError) as exc:
        print(f"axmul: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
