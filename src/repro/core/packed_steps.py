"""Packed ``localSetReachability`` over a condensation.

Both shard implementations of :mod:`repro.core.shard_exec` — the hydrated
worker shard and the in-process view over a compound graph — answer
reachability rows over an SCC condensation.  What is a pure function of
(vertex rank, component map, member masks, strategy kernel) lives here,
once:

* :func:`build_member_masks` — per-SCC-component member masks (component
  row → member row in one OR), built at condensation rebuild / shard
  hydration;
* :func:`condensation_rows` — the complete packed ``localSetReachability``
  over a condensation: translate sources and the target mask to DAG ranks,
  harvest component rows through the strategy kernel, expand them through
  the member masks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.reachability.packed import iter_bits, pack_ranks


def build_member_masks(
    vertex_ids: Sequence[int],
    vertex_to_component: Mapping[int, int],
    component_rank_of: Mapping[int, int],
    num_components: int,
) -> Tuple[int, ...]:
    """``masks[c]``: the members of DAG-rank-``c``'s component as one row.

    ``vertex_ids`` is the epoch's vertex-rank id order.  Member ranks are
    collected per component first and packed with one ``int.from_bytes``
    each (see :func:`repro.reachability.packed.pack_ranks`) — O(V + bytes)
    instead of the O(V·width/64) growing-bigint OR loop; a singleton
    component (every vertex of a DAG) is one shift.
    """
    members_of: List[List[int]] = [[] for _ in range(num_components)]
    for r, vertex in enumerate(vertex_ids):
        members_of[component_rank_of[vertex_to_component[vertex]]].append(r)
    return tuple(
        1 << ranks[0] if len(ranks) == 1 else pack_ranks(ranks) for ranks in members_of
    )


def condensation_rows(
    sources: Iterable[int],
    vertex_to_component: Mapping[int, int],
    comp_rows_for: Callable[[Iterable[int], Optional[int]], Dict[int, int]],
    member_masks: Sequence[int],
    vertex_ids: Sequence[int],
    component_rank_of: Mapping[int, int],
    target_mask: Optional[int],
) -> Dict[int, int]:
    """Packed ``{source: row}`` over a condensation's member vertex ranks.

    Sources unknown to the condensation get a zero row;
    ``comp_rows_for(comps, dag_mask)`` returns packed component rows over
    the DAG ranks (the strategy kernel); each reached component expands to
    its members with one OR of the precomputed mask, and sources sharing a
    component row share the expansion.  ``target_mask`` restricts both the
    harvest and the expansion (``None`` keeps everything).
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

    if target_mask is None:
        dag_mask: Optional[int] = None
    else:
        # The mask is small (targets + handles): derive the DAG-level mask
        # from its set bits rather than scanning every component.
        dag_mask = 0
        for r in iter_bits(target_mask):
            dag_mask |= 1 << component_rank_of[vertex_to_component[vertex_ids[r]]]

    comp_rows = comp_rows_for(set(source_comps.values()), dag_mask)
    expanded: Dict[int, int] = {}
    for source, comp in source_comps.items():
        comp_row = comp_rows.get(comp, 0)
        row = expanded.get(comp_row)
        if row is None:
            row = 0
            for comp_rank in iter_bits(comp_row):
                row |= member_masks[comp_rank]
            if target_mask is not None:
                row &= target_mask
            expanded[comp_row] = row
        rows[source] = row
    return rows


__all__ = [
    "build_member_masks",
    "condensation_rows",
]
