"""Packed ``localSetReachability`` over a condensation.

Both shard implementations of :mod:`repro.core.shard_exec` — the hydrated
worker shard and the in-process view over a compound graph — answer
reachability rows over an SCC condensation.  What is a pure function of
(vertex rank, component map, expansion, strategy kernel) lives here,
once:

* :func:`build_expansion` — the component → member transform of a
  condensation (a :class:`~repro.reachability.packed.BitGather`), built at
  condensation rebuild / shard hydration;
* :func:`condensation_rows` — the complete packed ``localSetReachability``
  over a condensation: translate sources and the target mask to DAG ranks,
  harvest component rows through the strategy kernel, expand them to
  member rows in one batch.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

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
    per-component member masks (``masks[c]``: the members of DAG-rank
    ``c``'s component as one row), collected per component first and
    packed with one ``int.from_bytes`` each (see
    :func:`repro.reachability.packed.pack_ranks`) — O(V + bytes) instead of
    the O(V·width/64) growing-bigint OR loop; a singleton component (every
    vertex of a DAG) is one shift.
    """
    members_of: List[List[int]] = [[] for _ in range(num_components)]
    for r, component in enumerate(index):
        members_of[component].append(r)
    masks = tuple(
        1 << ranks[0] if len(ranks) == 1 else pack_ranks(ranks) for ranks in members_of
    )
    return BitGather(index, masks)


def condensation_rows(
    sources: Iterable[int],
    vertex_to_component: Mapping[int, int],
    comp_rows_for: Callable[[Iterable[int], Optional[int]], Dict[int, int]],
    expansion: BitGather,
    target_mask: Optional[int],
) -> Dict[int, int]:
    """Packed ``{source: row}`` over a condensation's member vertex ranks.

    Sources unknown to the condensation get a zero row;
    ``comp_rows_for(comps, dag_mask)`` returns packed component rows over
    the DAG ranks (the strategy kernel).  The distinct component rows
    expand to member rows in one batched :meth:`BitGather.gather` (see
    :func:`build_expansion`), and sources sharing a component row share
    the expansion.  ``target_mask`` restricts both the harvest and the
    expansion (``None`` keeps everything).
    """
    sources = list(sources)
    rows: Dict[int, int] = {source: 0 for source in sources}
    source_comps = {
        source: vertex_to_component[source]
        for source in sources
        if source in vertex_to_component
    }
    if not source_comps or target_mask == 0:
        return rows

    # The mask is small (targets + handles): derive the DAG-level mask from
    # its set bits rather than scanning every component.
    dag_mask = None if target_mask is None else expansion.scatter(target_mask)
    comp_rows = comp_rows_for(set(source_comps.values()), dag_mask)
    by_comp_row = dict.fromkeys([comp_rows.get(comp, 0) for comp in source_comps.values()])
    distinct = list(by_comp_row)
    for comp_row, row in zip(distinct, expansion.gather(distinct)):
        by_comp_row[comp_row] = row if target_mask is None else row & target_mask
    for source, comp in source_comps.items():
        rows[source] = by_comp_row[comp_rows.get(comp, 0)]
    return rows


__all__ = [
    "build_expansion",
    "condensation_rows",
]
