"""The registry alone maps (algorithm, sim_mode) to an engine class.

``docs/performance.md`` names the engine each mode runs; every session
``prepare`` builds must carry exactly that class and stamp the feature
set the engine runs.
"""

import pytest

from repro.baselines import ALGORITHMS, prepare
from repro.core.collective import OmniReduce
from repro.core.flowreduce import FlowOmniReduce
from repro.core.rackreduce import FlowRackHierarchical, RackHierarchicalOmniReduce
from repro.netsim import Cluster, ClusterSpec

pytestmark = pytest.mark.flowmode

#: algorithm -> (packet engine, flow engine), as docs/performance.md names them.
ENGINES = {
    "omnireduce": (OmniReduce, FlowOmniReduce),
    "rackhier": (RackHierarchicalOmniReduce, FlowRackHierarchical),
    "switchml": (OmniReduce, FlowOmniReduce),
}


@pytest.mark.parametrize("mode", ["packet", "flow"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_registry_picks_the_engine_for_the_mode(name, mode):
    cluster = Cluster(ClusterSpec(workers=4, aggregators=4))
    options = ALGORITHMS[name].options_cls(sim_mode=mode)
    session = prepare(name, cluster, options)
    engine = session.engine
    # SwitchML* is OmniReduce without zero-block suppression: check the
    # engine it wraps.
    inner = engine._omni if name == "switchml" else engine
    expected = ENGINES[name][mode == "flow"]
    assert type(inner) is expected
    assert session.features == engine.features
