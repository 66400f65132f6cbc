import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from nettom import graph_core as gc

# Every run draws the same examples and keeps no example database.
settings.register_profile("nettom", derandomize=True, database=None, deadline=None)
settings.load_profile("nettom")


def pytest_configure(config):
    """Hypothesis also caches the constants it reads from loaded source files;
    keep that cache in a temporary directory removed after the run, not in a
    .hypothesis/ directory here."""
    home = tempfile.TemporaryDirectory(prefix="nettom-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def tree30():
    net = gc.generate_network("tree30")
    return net, gc.all_pairs_shortest_paths(net)


@pytest.fixture(scope="session")
def path3():
    """0 - 1 - 2."""
    net = gc.Network.from_edges([(0, 1), (1, 2)], entry_node=0, name="path3")
    return net, gc.all_pairs_shortest_paths(net)


def delta(n: int, i: int) -> np.ndarray:
    x = np.zeros(n)
    x[i] = 1.0
    return x
