"""The top-level names callers take from ``partgap``.

``partgap/__init__.py`` has no ``__all__``: its import lines are the
export list.  These are the names the benchmark's library workloads and
the README's library sketch use.
"""

import re
from pathlib import Path

import partgap

CALLER_NAMES = (
    # perfbench/rep.py
    "build_table",
    "bundled_exceptional_list",
    "check_exceptional_powers",
    "coverage_scan",
    "is_perfect_power",
    "missed_values",
    "n_d",
    "n_d_batch",
    "n_d_intervals",
    "near_power_events",
    "perfect_power_scan",
    # README library sketch
    "PartitionTable",
    "nearest_power_distance",
    "m_k_d",
    "threshold_rows",
    "EventSet",
)


def test_caller_names_resolve():
    missing = [name for name in CALLER_NAMES if not hasattr(partgap, name)]
    assert missing == []
    assert all(callable(getattr(partgap, name)) for name in CALLER_NAMES)


def test_version_matches_pyproject():
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    declared = re.search(r'^version = "(.+)"$', pyproject.read_text(), re.M).group(1)
    assert partgap.__version__ == declared
