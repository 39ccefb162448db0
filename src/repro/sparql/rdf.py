"""A small in-memory RDF triple store.

Terms (IRIs / literals, represented as plain strings) are dictionary-encoded
to dense integer ids; triples are kept in three hash indexes (SPO, POS, OSP)
so that every triple-pattern access path used by the query engine is a direct
lookup.  The store can project any predicate into a directed graph over the
encoded entity ids, which is what the DSR-backed property-path evaluation
operates on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DiGraph

Triple = Tuple[str, str, str]


class TripleStore:
    """Dictionary-encoded triple store with SPO/POS/OSP indexes."""

    def __init__(self) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        # spo[s][p] = set of o;  pos[p][o] = set of s;  osp[o][s] = set of p
        self._spo: Dict[int, Dict[int, Set[int]]] = defaultdict(lambda: defaultdict(set))
        self._pos: Dict[int, Dict[int, Set[int]]] = defaultdict(lambda: defaultdict(set))
        self._osp: Dict[int, Dict[int, Set[int]]] = defaultdict(lambda: defaultdict(set))
        self._num_triples = 0

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def encode(self, term: str) -> int:
        """Return (allocating if needed) the integer id of ``term``."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = len(self._id_to_term)
            self._term_to_id[term] = term_id
            self._id_to_term.append(term)
        return term_id

    def lookup(self, term: str) -> Optional[int]:
        """Return the id of ``term`` or ``None`` if it has never been seen."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> str:
        return self._id_to_term[term_id]

    @property
    def num_terms(self) -> int:
        return len(self._id_to_term)

    @property
    def num_triples(self) -> int:
        return self._num_triples

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def add(self, subject: str, predicate: str, obj: str) -> bool:
        """Add one triple; returns ``True`` if it was new."""
        s = self.encode(subject)
        p = self.encode(predicate)
        o = self.encode(obj)
        if o in self._spo[s][p]:
            return False
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        self._num_triples += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        added = 0
        for subject, predicate, obj in triples:
            if self.add(subject, predicate, obj):
                added += 1
        return added

    # ------------------------------------------------------------------ #
    # access paths (ids)
    # ------------------------------------------------------------------ #
    def objects(self, subject_id: int, predicate_id: int) -> Set[int]:
        return self._spo.get(subject_id, {}).get(predicate_id, set())

    def subjects(self, predicate_id: int, object_id: int) -> Set[int]:
        return self._pos.get(predicate_id, {}).get(object_id, set())

    def subject_object_pairs(self, predicate_id: int) -> Iterator[Tuple[int, int]]:
        """All ``(s, o)`` pairs of one predicate."""
        for object_id, subject_ids in self._pos.get(predicate_id, {}).items():
            for subject_id in subject_ids:
                yield subject_id, object_id

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples as term strings."""
        for s, by_predicate in self._spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield (self.decode(s), self.decode(p), self.decode(o))

    # ------------------------------------------------------------------ #
    # entities by type (the ``rdf:type`` shortcut used by every benchmark query)
    # ------------------------------------------------------------------ #
    def entities_of_type(self, type_term: str, type_predicate: str = "rdf:type") -> Set[int]:
        predicate_id = self.lookup(type_predicate)
        type_id = self.lookup(type_term)
        if predicate_id is None or type_id is None:
            return set()
        return set(self._pos.get(predicate_id, {}).get(type_id, set()))

    # ------------------------------------------------------------------ #
    # graph projection
    # ------------------------------------------------------------------ #
    def predicate_graph(self, predicate: str) -> DiGraph:
        """Project one predicate into a directed graph over entity ids.

        Every entity that appears as subject or object of the predicate
        becomes a vertex; an edge ``s → o`` is added for every triple
        ``(s, predicate, o)``.
        """
        graph = DiGraph()
        predicate_id = self.lookup(predicate)
        if predicate_id is None:
            return graph
        for subject_id, object_id in self.subject_object_pairs(predicate_id):
            graph.add_edge(subject_id, object_id)
        return graph

    def entity_graph(self, predicates: Optional[Iterable[str]] = None) -> DiGraph:
        """Project several predicates (default: all) into one directed graph."""
        graph = DiGraph()
        if predicates is None:
            predicate_ids = list(self._pos.keys())
        else:
            predicate_ids = [
                self.lookup(predicate)
                for predicate in predicates
                if self.lookup(predicate) is not None
            ]
        for predicate_id in predicate_ids:
            for subject_id, object_id in self.subject_object_pairs(predicate_id):
                graph.add_edge(subject_id, object_id)
        return graph
