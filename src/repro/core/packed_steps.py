"""Packed ``localSetReachability`` over a condensation.

Both shard implementations of :mod:`repro.core.shard_exec` — the hydrated
worker shard and the in-process view over a compound graph — answer
reachability rows over an SCC condensation, with one kernel, defined here
once:

* :func:`build_expansion` — the component → member transform of a
  condensation (a :class:`~repro.reachability.packed.BitGather`), built at
  condensation rebuild / shard hydration;
* :func:`condensation_rows` — the complete packed ``localSetReachability``
  over a condensation: translate sources and the target mask to DAG ranks,
  harvest component rows with the bitset one-pass sweep
  (:func:`repro.reachability.bitset_msbfs.set_reachability_rows`), expand
  them to member rows in one batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.graph.csr import CSRGraph
from repro.reachability import bitset_msbfs, kernels
from repro.reachability.packed import BitGather, pack_ranks


def build_expansion(index: Sequence[int], num_components: int) -> BitGather:
    """The component → member transform of one condensation.

    ``index[r]`` is the DAG rank of vertex rank ``r``'s component, so
    gathering a component row through it sets every member of every reached
    component, and scattering a vertex row through it marks the components
    of its vertices.  A condensation's component ids are its DAG ranks and
    its graph's dense indices are the vertex ranks, so the index is the
    condensation's ``component_of`` itself
    (:func:`repro.graph.scc.condense_dense`).  A narrow gather ORs
    per-component member masks, grouped by one array sort
    (:func:`repro.reachability.kernels.np_component_members`): a singleton
    component is one shift, and only a component of several members is
    packed (:func:`repro.reachability.packed.pack_ranks`).
    """
    firsts, groups = kernels.np_component_members(index, num_components)
    masks = list(map((1).__lshift__, firsts))
    for component, ranks in groups:
        masks[component] = pack_ranks(ranks)
    return BitGather(index, tuple(masks))


def condensation_rows(
    dag: CSRGraph,
    component_of: Mapping[int, int],
    expansion: BitGather,
    sources: Iterable[int],
    mask: Optional[int],
) -> Dict[int, int]:
    """Packed ``{source: row}`` over a condensation's member vertex ranks.

    ``dag`` is the condensation (its ids are its dense indices, so a
    component id is its DAG rank), ``component_of`` maps a vertex to its
    component and ``expansion`` is :func:`build_expansion`'s transform.
    Sources unknown to the condensation get a zero row.  Their components
    sweep ``dag`` once (the bitset kernel); the distinct component rows
    expand to member rows in one batched :meth:`BitGather.gather`, and
    sources sharing a component row share the expansion.  ``mask``
    restricts both the harvest and the expansion (``None`` keeps
    everything).
    """
    sources = list(sources)
    rows: Dict[int, int] = {source: 0 for source in sources}
    source_comps = {
        source: component_of[source] for source in sources if source in component_of
    }
    if not source_comps or mask == 0:
        return rows

    # The mask is small (targets + handles): derive the DAG-level mask from
    # its set bits rather than scanning every component.
    dag_mask = None if mask is None else expansion.scatter(mask)
    comp_rows = bitset_msbfs.set_reachability_rows(dag, set(source_comps.values()), dag_mask)
    by_comp_row = dict.fromkeys([comp_rows.get(comp, 0) for comp in source_comps.values()])
    distinct = list(by_comp_row)
    for comp_row, row in zip(distinct, expansion.gather(distinct)):
        by_comp_row[comp_row] = row if mask is None else row & mask
    for source, comp in source_comps.items():
        rows[source] = by_comp_row[comp_rows.get(comp, 0)]
    return rows


__all__ = [
    "build_expansion",
    "condensation_rows",
]
