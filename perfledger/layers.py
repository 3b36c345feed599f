"""Apportion a profile of the timed ops to the repo's layers.

A layer is a module or a small group of modules; a source file belongs
to the layer with the longest matching path prefix.  The profile comes
from a :mod:`cProfile` hook that the benchmark installs around each op.

Self time of a function defined in a layer's files is charged to that
layer.  Time in code no layer owns -- C callees (numpy, heapq, json),
the standard library, numpy's Python wrappers -- is charged to the layer
that called it: cProfile keeps, for every function, its time split by
direct caller, and a caller that is itself unowned passes its share on
to *its* callers in proportion to the cumulative time they account for.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, List, Optional, Tuple

from . import ROOT

__all__ = ["LAYERS", "layer_of", "apportion"]

#: (path prefix relative to the repo root, layer); longest prefix wins.
_PREFIXES: List[Tuple[str, str]] = [
    ("src/repro/netsim/kernel.py", "netsim.kernel"),
    ("src/repro/netsim/", "netsim.network"),  # network, packet, cluster, crosstraffic
    ("src/repro/netsim/transport.py", "netsim.transport"),
    ("src/repro/netsim/loss.py", "netsim.transport"),
    ("src/repro/netsim/flow.py", "netsim.flow"),
    ("src/repro/netsim/topology.py", "netsim.topology"),
    ("src/repro/netsim/trace.py", "telemetry"),
    ("src/repro/tensors/", "tensors"),
    ("src/repro/core/", "core.collective"),  # collective, pending, config, features, ...
    ("src/repro/core/worker.py", "core.worker"),
    ("src/repro/core/messages.py", "core.worker"),
    ("src/repro/core/prefetch.py", "core.worker"),
    ("src/repro/core/sparse_block.py", "core.worker"),
    ("src/repro/core/aggregator.py", "core.aggregator"),
    ("src/repro/core/partition.py", "core.partition"),
    ("src/repro/core/flowreduce.py", "core.flowreduce"),
    ("src/repro/core/rackreduce.py", "core.rackreduce"),
    ("src/repro/baselines/", "baselines"),
    ("src/repro/inetwork/", "baselines"),
    ("src/repro/faults/", "faults"),
    ("src/repro/ddl/", "ddl"),
    ("src/repro/model/", "ddl"),
    ("src/repro/compression/", "ddl"),
    ("src/repro/telemetry/", "telemetry"),
    ("src/repro/observatory/", "observatory"),
    ("src/repro/service/", "service"),
    ("src/repro/conformance/", "conformance"),
    ("src/repro/bench/", "bench"),
    ("src/repro/ablation/", "bench"),
    ("src/repro/", "core.collective"),  # the package's own __init__
    ("perfledger/", "bench"),
]
_PREFIXES.sort(key=lambda item: -len(item[0]))

LAYERS: Tuple[str, ...] = (
    "netsim.kernel", "netsim.network", "netsim.transport", "netsim.flow",
    "netsim.topology", "tensors", "core.worker", "core.aggregator",
    "core.partition", "core.flowreduce", "core.rackreduce", "core.collective",
    "baselines", "faults", "ddl", "telemetry", "observatory", "service",
    "conformance", "bench",
)

_ROOT = ROOT + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer that owns ``filename``, or ``None`` (C code, stdlib, numpy)."""
    path = os.path.abspath(filename) if not filename.startswith("~") else filename
    if not path.startswith(_ROOT):
        return None
    relative = path[len(_ROOT):].replace(os.sep, "/")
    for prefix, layer in _PREFIXES:
        if relative.startswith(prefix):
            return layer
    return None


def _is_numpy(func) -> bool:
    filename, _line, name = func
    return "numpy" in name or "/numpy/" in filename.replace(os.sep, "/")


def apportion(profile) -> Dict[str, object]:
    """Split a finished :class:`cProfile.Profile` across the layers.

    Returns ``self_s`` and ``calls`` per layer, the summed self time of
    every profiled function (``total_s``), and the share of it spent in
    numpy (``numpy_share``).  ``calls`` counts calls into a layer's
    functions from a function another layer owns (an unowned caller
    counts as the layer that dominates its own callers).
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    direct = {func: layer_of(func[0]) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def resolve(func, stack: tuple):
        """(fractions of ``func``'s time owed to each layer, whether a
        cycle of unowned functions was cut to compute them)."""
        layer = direct.get(func)
        if layer is not None:
            return {layer: 1.0}, False
        if func in memo:
            return memo[func], False
        if func in stack:
            return {}, True  # the callers outside the cycle decide
        weights: Dict[str, float] = {}
        cut = False
        callers = stats[func][4] if func in stats else {}
        for caller, (_nc, _cc, _tt, ct) in callers.items():
            if ct > 0.0:
                shares, caller_cut = resolve(caller, stack + (func,))
                cut = cut or caller_cut
                for owner, share in shares.items():
                    weights[owner] = weights.get(owner, 0.0) + share * ct
        total = sum(weights.values())
        out = {owner: w / total for owner, w in weights.items()} if total > 0.0 else {}
        if cut and stack:
            return out, True  # valid only under this stack: do not keep it
        # No caller in any layer: called from outside every profiled frame.
        memo[func] = out or {"bench": 1.0}
        return memo[func], False

    def owners(func) -> Dict[str, float]:
        return resolve(func, ())[0]

    def caller_layer(func) -> str:
        shares = owners(func)
        return max(shares, key=shares.get)

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    total_s = 0.0
    numpy_s = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total_s += tt
        if _is_numpy(func):
            numpy_s += tt
        layer = direct[func]
        if layer is not None:
            self_s[layer] += tt
            for caller, (nc, _ccc, _ctt, _cct) in callers.items():
                if caller_layer(caller) != layer:
                    calls[layer] += nc
            continue
        # Unowned: charge each caller's slice of the self time to the
        # layer(s) that caller answers to.
        charged = 0.0
        for caller, (_nc, _ccc, ctt, _cct) in callers.items():
            for owner, share in owners(caller).items():
                self_s[owner] += share * ctt
            charged += ctt
        self_s["bench"] += tt - charged  # no recorded caller: the harness
    return {
        "self_s": self_s,
        "calls": calls,
        "total_s": total_s,
        "numpy_share": numpy_s / total_s if total_s > 0 else 0.0,
    }
