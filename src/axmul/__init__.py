"""Bit-exact simulation and error analysis of approximate array multipliers."""

from .adders import (AdderErrorProfile, AdderFormatError, AdderLibrary,
                     FullAdderSpec, UnknownAdderError, dump_library,
                     error_profile, eval_adder, exact_full_adder,
                     load_library, load_library_file)
from .clustering import (ClusterReport, ClusterSpec, EdHistogram, cluster_sweep,
                         ed_histogram)
from .designspace import (AMA_TYPES, DEGREE_BITS, DesignId, SelectionMap,
                          SelectionPolicy, TableRow, analyze_design, design_id,
                          enumerate_library, library_metrics_table,
                          select_per_cluster)
from .fabric import (AdderCell, CellGrid, MultiplierConfig, build_multiplier,
                     cell_weight_map, eval_multiply, eval_multiply_many,
                     exact_multiply)
from .metrics import (MetricAccumulator, MetricReport, exhaustive_sweep,
                      finalize, merge, psnr_from_mse)

__version__ = "0.1.0"
