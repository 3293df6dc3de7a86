"""Exact partition numbers and their distances to perfect powers."""

from .fitting import LogPolyModel, evaluate, fit_log_poly
from .partitions import (
    PartitionTable,
    build_table,
    count_partitions_oracle,
    hardy_ramanujan_estimate,
    is_partition_number,
    load_table,
    p1,
    psi,
    save_table,
)
from .repulsion import (
    EventSet,
    limit_L,
    m_k_d,
    n_d,
    n_d_batch,
    n_d_intervals,
    near_power_events,
    stabilization_threshold,
    threshold_rows,
)
from .roots import (
    floor_kth_root,
    is_perfect_power,
    nearest_power_distance,
)
from .witnesses import (
    CoverageStatus,
    CoverageWitness,
    ExceptionalTuple,
    bundled_exceptional_list,
    check_exceptional_powers,
    coverage_scan,
    coverage_witness,
    load_exceptional_list,
    missed_values,
    perfect_power_scan,
)

__version__ = "0.1.0"
