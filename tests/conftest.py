import pytest

from partgap.partitions import build_table
from partgap.repulsion import near_power_events


@pytest.fixture(scope="session")
def table_small():
    return build_table(120)


@pytest.fixture(scope="session")
def table_mid():
    return build_table(2000)


@pytest.fixture(scope="session")
def table25k():
    return build_table(25000)


@pytest.fixture(scope="session")
def events_full(table25k):
    # every near-power event with distance <= 270343, the largest
    # threshold in the published stabilization runs; built once
    return near_power_events(table25k, 270343)
