"""The ext engine's step and bounded run as functions of configurations.

The engine expands a graph node into step records (``compose._records``)
and replays the graph's paths into traces (``compose._ends``); it builds
no configuration.  Tests that compare it with an oracle configuration by
configuration glue those seams onto whole configurations here.
"""

from lagc import compose
from lagc.compose import ExtConfig, WlConfig
from lagc.localeval import DEFAULT_FRESH_BOUND


def _configs(config: ExtConfig, records) -> frozenset:
    """The configurations the step ``records`` take ``config`` to."""
    return frozenset(
        ExtConfig(compose._glued(config.trace, rho, added), markers)
        for added, markers, _, rho in records
    )


def successors(table, config: ExtConfig, fresh_bound=DEFAULT_FRESH_BOUND, conc_numeral=0):
    """One step of ``config``: a scheduled step of one of its markers, or a reaction."""
    rep = compose._rep(config)
    return _configs(config, compose._records(table, rep, fresh_bound, conc_numeral))


def reactions(table, config: ExtConfig, fresh_bound=DEFAULT_FRESH_BOUND) -> frozenset:
    """The steps of ``config`` that spawn a process reacting to an invocation."""
    return _configs(config, compose._reactions(table, compose._rep(config), fresh_bound))


def process_step(config: WlConfig, fresh_bound=DEFAULT_FRESH_BOUND, conc_numeral=0):
    """One ext step of the single process ``config``, as ``WlConfig``s."""
    single = ExtConfig(config.trace, (config.marker,))
    return frozenset(
        WlConfig(succ.trace, succ.markers[0])
        for succ in successors((), single, fresh_bound, conc_numeral)
    )


def bounded(bound: int, table, config: ExtConfig, fresh_bound=DEFAULT_FRESH_BOUND, conc_numeral=0):
    """The configurations at the ends of the paths of at most ``bound`` steps."""
    ends = compose._ends(table, config, fresh_bound, conc_numeral, bound)
    return frozenset(ExtConfig(trace, node.rep[1]) for node, trace in ends)
