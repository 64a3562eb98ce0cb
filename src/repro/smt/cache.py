"""Shared solver-result cache keyed on canonicalized constraint systems.

The campaign engine runs many near-identical solver queries: enforcement
iterations re-check growing prefixes of the same system, and sibling target
sites constrain structurally identical expressions over differently named
field variables.  This module lets all of them share one answer store.

Canonicalization has two steps:

1. every conjunct is simplified (the portfolio front end already does this),
   so syntactic noise collapses into the hash-consed term DAG;
2. variables are renamed to ``v000, v001, ...`` in first-occurrence order
   across the ordered conjunct list, so alpha-equivalent systems rebuild the
   *same* interned canonical terms.

Because terms are hash-consed, the canonical conjuncts of two equivalent
systems are identical objects, and the cache key is simply the tuple of
their intern ids (plus a solver-configuration fingerprint — results under
different budgets must not be conflated).

Determinism is by construction: on a miss the solver decides the *canonical
representative* of the query and the cache stores that canonical result, so
the answer every caller receives is a pure function of the canonical system
— independent of scheduling order, worker count, or which alpha-variant
arrived first.  SAT models are translated back through the renaming and
verified against the caller's actual conjuncts before being returned.

Verdicts are stored at two granularities.  The *whole-query* table keys on
the full canonical conjunct list; underneath it, the *component* table keys
on the canonical form of one connected component of the variable-sharing
graph (see :mod:`repro.smt.decompose`).  A component shared by two
different whole queries — sibling sites, successive enforcement
iterations, multi-site screening conjunctions — hits in the component
table even though the whole-query keys differ.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.evalmodel import Model
from repro.smt.terms import Term, TermKind


@dataclass(frozen=True)
class CanonicalSystem:
    """A constraint system rewritten over canonical variable names."""

    #: Hashable cache key: config fingerprint + intern ids of the canonical
    #: conjuncts (order-preserving — conjunct order can influence which model
    #: the portfolio returns, so it is part of the identity).
    key: Tuple
    #: The canonically renamed conjuncts, in the caller's order.
    conjuncts: Tuple[Term, ...]
    #: canonical name -> the caller's variable name.
    from_canonical: Tuple[Tuple[str, str], ...]

    def translate_model(self, canonical_model: Model) -> Model:
        """Map a model over canonical names back to the caller's names."""
        names = dict(self.from_canonical)
        translated = Model()
        for name in canonical_model:
            actual = names.get(name)
            if actual is not None:
                translated[actual] = canonical_model[name]
        return translated


@dataclass(frozen=True)
class CachedVerdict:
    """One stored solver answer, in canonical variable space."""

    status: str
    canonical_model: Optional[Model]
    reason: str
    #: Portfolio stages the original derivation ran, so a cache hit can
    #: report the verdict's full provenance instead of an empty stage list.
    stages: Tuple[str, ...] = ()


@dataclass
class SolverCacheStats:
    """Hit/miss counters for one :class:`SolverCache`.

    ``hits``/``misses``/``stores``/``invalid_hits`` count this cache's own
    whole-query lookups and stores; ``component_*`` count the
    component-granularity layer underneath (consulted only after a
    whole-query miss); ``merged`` counts entries adopted wholesale from
    elsewhere (a persistent on-disk store, a worker process's delta), and
    ``evictions`` counts entries dropped by the ``max_entries`` bound.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid_hits: int = 0
    merged: int = 0
    evictions: int = 0
    component_hits: int = 0
    component_misses: int = 0
    component_stores: int = 0
    component_evictions: int = 0
    #: Queries answered UNSAT because a stored canonical core subsumed them.
    core_hits: int = 0
    core_stores: int = 0
    #: Bit-blasts skipped because a stored CNF skeleton was replayed.
    cnf_hits: int = 0
    cnf_stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of whole-query lookups answered from the cache."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def component_hit_rate(self) -> float:
        """Fraction of component lookups answered from the cache."""
        total = self.component_hits + self.component_misses
        return self.component_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid_hits": self.invalid_hits,
            "merged": self.merged,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate(), 4),
            "component_hits": self.component_hits,
            "component_misses": self.component_misses,
            "component_stores": self.component_stores,
            "component_evictions": self.component_evictions,
            "component_hit_rate": round(self.component_hit_rate(), 4),
            "core_hits": self.core_hits,
            "core_stores": self.core_stores,
            "cnf_hits": self.cnf_hits,
            "cnf_stores": self.cnf_stores,
        }


#: The :class:`SolverCacheStats` fields a worker-local cache's delta
#: carries back to the campaign cache (see :meth:`SolverCache.stats_snapshot`).
_TRANSFERABLE_STATS = (
    "hits",
    "misses",
    "stores",
    "invalid_hits",
    "component_hits",
    "component_misses",
    "component_stores",
    "core_hits",
    "core_stores",
    "cnf_hits",
    "cnf_stores",
)


class SolverCache:
    """Thread-safe store of solver verdicts keyed by canonical systems.

    One instance is shared by every :class:`~repro.smt.solver.PortfolioSolver`
    a campaign creates; entries are idempotent (two workers racing on the
    same canonical system store the same verdict), so no cross-worker
    coordination beyond the internal lock is needed.
    """

    #: Entry kinds: whole-query verdicts, connected-component verdicts,
    #: canonical UNSAT cores and blasted-CNF skeletons.  The kind strings
    #: double as the unified store's record namespaces
    #: (:mod:`repro.store`).
    KIND_QUERY = "query"
    KIND_COMPONENT = "component"
    KIND_CORE = "core"
    KIND_CNF = "cnf"

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._entries: Dict[Tuple, CachedVerdict] = {}
        # Canonical conjuncts per key, kept so entries can be exported —
        # to a persistent CacheStore or across a process boundary — and
        # rebuilt against a fresh intern table on the other side.
        self._conjuncts: Dict[Tuple, Tuple[Term, ...]] = {}
        # The component-granularity layer: same key scheme, disjoint table.
        # Component keys are always computed by *re*-canonicalizing the
        # whole query's canonical conjuncts (first-application
        # canonicalization is not a normal form — the commutative tiebreak
        # compares the names the rename just changed), so every embedding
        # of a component in any whole query lands on one shared key.
        self._component_entries: Dict[Tuple, CachedVerdict] = {}
        self._component_conjuncts: Dict[Tuple, Tuple[Term, ...]] = {}
        # Canonical UNSAT cores, per fingerprint: frozenset of the core
        # conjuncts' intern ids -> the core conjunct tuple.  A core is a
        # semantic certificate ("these canonical conjuncts are jointly
        # infeasible"), so any canonical query whose conjunct-id set is a
        # superset is UNSAT without solving.  Small (a handful of terms
        # each), so unbounded.
        self._cores: Dict[Tuple, Dict[frozenset, Tuple[Term, ...]]] = {}
        # Blasted-CNF skeletons keyed by the *ordered* canonical conjunct
        # ids: the pure Tseitin translation of one canonical component,
        # persistable even for queries whose verdict (UNKNOWN) never is —
        # a warm run re-solves those but skips the translation.  The
        # stored object is a :class:`repro.smt.bitblast.CnfSkeleton`;
        # kept opaque here so this module stays solver-agnostic.
        self._cnf_skeletons: Dict[Tuple[int, ...], object] = {}
        self._cnf_conjuncts: Dict[Tuple[int, ...], Tuple[Term, ...]] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.stats = SolverCacheStats()
        # Normalization and structural keys are pure functions of interned
        # terms, and the enforcement loop's queries are supersets of earlier
        # ones — persisting these memos makes repeat canonicalization
        # O(new terms) instead of O(whole system).  Races on the dicts are
        # benign (idempotent values under the GIL).
        self._norm_memo: Dict[Term, Term] = {}
        self._key_memo: Dict[Term, Tuple[str, str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def component_count(self) -> int:
        """Number of component-granularity entries currently stored."""
        return len(self._component_entries)

    def core_count(self) -> int:
        """Number of stored canonical UNSAT cores (all fingerprints)."""
        return sum(len(table) for table in self._cores.values())

    def cnf_count(self) -> int:
        """Number of stored blasted-CNF skeletons."""
        return len(self._cnf_skeletons)

    # ------------------------------------------------------------------
    def canonicalize(
        self, conjuncts: Sequence[Term], fingerprint: Tuple
    ) -> CanonicalSystem:
        """Build the canonical system (and cache key) for ``conjuncts``.

        Commutative operand order is normalized *before* variables are
        renamed: the simplifier orders commutative operands by intern id
        (process creation history), so without this step two alpha-equivalent
        systems could walk their variables in different orders and end up
        with different canonical names.  The normalization key is structural
        and uses the original variable names, so it is stable across
        processes and across intern-table history.
        """
        normalized = tuple(
            _normalize(c, self._norm_memo, self._key_memo) for c in conjuncts
        )
        rename: Dict[str, str] = {}
        for conjunct in normalized:
            _collect_names(conjunct, rename)
        memo: Dict[Term, Term] = {}
        canonical = tuple(_rename_term(c, rename, memo) for c in normalized)
        key = (fingerprint, tuple(t._id for t in canonical))
        return CanonicalSystem(
            key=key,
            conjuncts=canonical,
            from_canonical=tuple(
                (canonical_name, actual) for actual, canonical_name in rename.items()
            ),
        )

    def lookup(self, system: CanonicalSystem) -> Optional[CachedVerdict]:
        """Return the stored verdict for ``system``, counting hit/miss."""
        with self._lock:
            entry = self._entries.get(system.key)
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return entry

    def store(self, system: CanonicalSystem, verdict: CachedVerdict) -> None:
        """Store the canonical verdict for ``system`` (idempotent).

        When ``max_entries`` is set the cache evicts in FIFO order: entries
        are idempotent pure functions of their canonical system, so evicting
        one can only cost a future re-derivation, never correctness.
        """
        with self._lock:
            if self._insert(self._entries, self._conjuncts, system.key, system.conjuncts, verdict):
                self.stats.stores += 1

    def lookup_component(self, system: CanonicalSystem) -> Optional[CachedVerdict]:
        """Return the stored verdict for one canonical component."""
        with self._lock:
            entry = self._component_entries.get(system.key)
            if entry is None:
                self.stats.component_misses += 1
            else:
                self.stats.component_hits += 1
            return entry

    def store_component(self, system: CanonicalSystem, verdict: CachedVerdict) -> None:
        """Store the canonical verdict for one component (idempotent)."""
        with self._lock:
            if self._insert(
                self._component_entries,
                self._component_conjuncts,
                system.key,
                system.conjuncts,
                verdict,
            ):
                self.stats.component_stores += 1

    def _table_for(self, kind: str) -> Tuple[Dict, Dict]:
        if kind == self.KIND_COMPONENT:
            return self._component_entries, self._component_conjuncts
        if kind == self.KIND_QUERY:
            return self._entries, self._conjuncts
        raise ValueError(f"unknown cache entry kind {kind!r}")

    def _insert(
        self,
        entries: Dict[Tuple, CachedVerdict],
        conjunct_table: Dict[Tuple, Tuple[Term, ...]],
        key: Tuple,
        conjuncts: Tuple[Term, ...],
        verdict: CachedVerdict,
    ) -> bool:
        """Insert under the held lock, evicting FIFO past ``max_entries``.

        The bound applies to each table (whole-query / component)
        independently.  Returns whether the entry was stored — a
        non-positive ``max_entries`` means "keep nothing", not "evict
        forever".
        """
        if self.max_entries is not None and key not in entries:
            if self.max_entries <= 0:
                return False
            while len(entries) >= self.max_entries:
                oldest = next(iter(entries))
                del entries[oldest]
                conjunct_table.pop(oldest, None)
                if entries is self._entries:
                    self.stats.evictions += 1
                else:
                    self.stats.component_evictions += 1
        entries[key] = verdict
        conjunct_table[key] = tuple(conjuncts)
        return True

    # ------------------------------------------------------------------
    # Canonical UNSAT cores (kind "core")
    # ------------------------------------------------------------------
    def add_core(
        self, fingerprint: Tuple, conjuncts: Sequence[Term], merged: bool = False
    ) -> bool:
        """Record a canonical UNSAT core; returns whether it was new.

        ``conjuncts`` must be canonical terms (a subset of some canonical
        system's conjuncts).  Cores are per fingerprint — like every
        cached verdict, the certificate is only consulted for queries
        canonicalized under the same solver configuration.  ``merged``
        selects which counter the insert books (a local derivation vs an
        adoption from a store or a worker delta).
        """
        conjuncts = tuple(conjuncts)
        ids = frozenset(term._id for term in conjuncts)
        if not ids:
            return False
        with self._lock:
            table = self._cores.setdefault(fingerprint, {})
            if ids in table:
                return False
            table[ids] = conjuncts
            if merged:
                self.stats.merged += 1
            else:
                self.stats.core_stores += 1
            return True

    def match_core(self, system: CanonicalSystem) -> Optional[Tuple[Term, ...]]:
        """A stored core subsumed by ``system``'s conjuncts, or ``None``.

        Subsumption is set inclusion over intern ids: asserting a superset
        of a jointly infeasible conjunct set stays infeasible, so a match
        answers the query UNSAT without solving.
        """
        ids = {term._id for term in system.conjuncts}
        with self._lock:
            table = self._cores.get(system.key[0])
            if table:
                for core_ids, core_conjuncts in table.items():
                    if core_ids <= ids:
                        self.stats.core_hits += 1
                        return core_conjuncts
        return None

    def cores_snapshot(self) -> List[Tuple[Tuple, Tuple[Term, ...]]]:
        """Every stored core as ``(fingerprint, conjuncts)``."""
        with self._lock:
            return [
                (fingerprint, conjuncts)
                for fingerprint, table in self._cores.items()
                for conjuncts in table.values()
            ]

    # ------------------------------------------------------------------
    # Blasted-CNF skeletons (kind "cnf")
    # ------------------------------------------------------------------
    @staticmethod
    def _cnf_key(conjuncts: Sequence[Term]) -> Tuple[int, ...]:
        return tuple(term._id for term in conjuncts)

    def store_cnf(
        self, conjuncts: Sequence[Term], skeleton: object, merged: bool = False
    ) -> bool:
        """Store the Tseitin skeleton of canonical ``conjuncts``; True if new.

        The skeleton is a pure function of the (ordered, interned)
        canonical conjunct list, so there is nothing to reconcile on a
        collision — first writer wins.  Skeletons carry no fingerprint:
        the translation depends only on the terms, never on solver
        budgets.
        """
        key = self._cnf_key(conjuncts)
        if not key:
            return False
        with self._lock:
            if key in self._cnf_skeletons:
                return False
            self._cnf_skeletons[key] = skeleton
            self._cnf_conjuncts[key] = tuple(conjuncts)
            if merged:
                self.stats.merged += 1
            else:
                self.stats.cnf_stores += 1
            return True

    def lookup_cnf(self, conjuncts: Sequence[Term]) -> Optional[object]:
        """The stored skeleton for canonical ``conjuncts``, or ``None``."""
        with self._lock:
            skeleton = self._cnf_skeletons.get(self._cnf_key(conjuncts))
            if skeleton is not None:
                self.stats.cnf_hits += 1
            return skeleton

    def cnf_snapshot(self) -> List[Tuple[Tuple[Term, ...], object]]:
        """Every stored skeleton as ``(canonical conjuncts, skeleton)``."""
        with self._lock:
            return [
                (self._cnf_conjuncts[key], skeleton)
                for key, skeleton in self._cnf_skeletons.items()
                if key in self._cnf_conjuncts
            ]

    def note_invalid_hit(self) -> None:
        """Record a hit whose translated model failed verification."""
        with self._lock:
            self.stats.invalid_hits += 1

    def clear(self) -> None:
        """Drop all entries and memos (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._conjuncts.clear()
            self._component_entries.clear()
            self._component_conjuncts.clear()
            self._cores.clear()
            self._cnf_skeletons.clear()
            self._cnf_conjuncts.clear()
            self._norm_memo.clear()
            self._key_memo.clear()

    # ------------------------------------------------------------------
    # Export / merge: the seam the persistent store and the process
    # backend share.  Entries travel as (fingerprint, canonical conjuncts,
    # verdict) triples tagged with their kind; the key is recomputed from
    # the receiving side's intern table, so intern ids never leak across
    # process or run boundaries.
    # ------------------------------------------------------------------
    def entries_snapshot(
        self, exclude_keys: Optional[set] = None, kind: str = KIND_QUERY
    ) -> List[Tuple[Tuple, Tuple[Term, ...], CachedVerdict]]:
        """Return ``(key, canonical conjuncts, verdict)`` for every entry."""
        entries, conjunct_table = self._table_for(kind)
        with self._lock:
            return [
                (key, conjunct_table[key], verdict)
                for key, verdict in entries.items()
                if key in conjunct_table
                and (exclude_keys is None or key not in exclude_keys)
            ]

    def merge_canonical(
        self,
        fingerprint: Tuple,
        conjuncts: Sequence[Term],
        verdict: CachedVerdict,
        kind: str = KIND_QUERY,
    ) -> Tuple:
        """Adopt one exported entry; returns its key in this cache.

        First writer wins: an entry already present (from this run's own
        solving or an earlier merge) is kept — both derive from the same
        canonical system, so they agree anyway.
        """
        conjuncts = tuple(conjuncts)
        key = (fingerprint, tuple(t._id for t in conjuncts))
        entries, conjunct_table = self._table_for(kind)
        with self._lock:
            if key not in entries and self._insert(
                entries, conjunct_table, key, conjuncts, verdict
            ):
                self.stats.merged += 1
        return key

    def stats_snapshot(self) -> Dict[str, int]:
        """Atomic reading of the transferable counters, by field name.

        What the process backend ships from workers, as per-unit
        differences, and folds back into the campaign cache via
        :meth:`add_external_stats`.  ``merged``, ``evictions`` and
        ``component_evictions`` describe one cache's own table and do not
        travel.
        """
        with self._lock:
            return {
                name: getattr(self.stats, name) for name in _TRANSFERABLE_STATS
            }

    def add_external_stats(self, delta: Dict[str, int]) -> None:
        """Fold a worker-local cache's counter delta into this one."""
        with self._lock:
            for name in _TRANSFERABLE_STATS:
                value = getattr(self.stats, name) + delta.get(name, 0)
                setattr(self.stats, name, value)


# ----------------------------------------------------------------------
# Canonical renaming over the interned term DAG
# ----------------------------------------------------------------------
def _collect_names(term: Term, rename: Dict[str, str]) -> None:
    """Assign canonical names in deterministic first-occurrence DFS order."""
    stack: List[Term] = [term]
    while stack:
        node = stack.pop()
        if node.is_var:
            name = str(node.name)
            if name not in rename:
                rename[name] = f"v{len(rename):03d}"
        else:
            stack.extend(reversed(node.args))


#: Operators whose argument order is semantically irrelevant.
_COMMUTATIVE = frozenset(
    {
        TermKind.ADD,
        TermKind.MUL,
        TermKind.AND,
        TermKind.OR,
        TermKind.XOR,
        TermKind.EQ,
        TermKind.NE,
        TermKind.BAND,
        TermKind.BOR,
        TermKind.BXOR,
    }
)

#: Commutative operators that are also associative: whole same-kind chains
#: can be flattened and rebuilt in one canonical shape.  (EQ/NE are
#: commutative but not associative — their result sort differs from their
#: operand sort — so they only get the pairwise operand sort.)
_ASSOCIATIVE = frozenset(
    {
        TermKind.ADD,
        TermKind.MUL,
        TermKind.AND,
        TermKind.OR,
        TermKind.XOR,
        TermKind.BAND,
        TermKind.BOR,
        TermKind.BXOR,
    }
)


def _flatten_chain(term: Term) -> List[Term]:
    """Collect the operand leaves of a same-kind associative chain."""
    operands: List[Term] = []
    stack: List[Term] = [term]
    while stack:
        node = stack.pop()
        for arg in reversed(node.args):
            if arg.kind is term.kind and arg.width == term.width:
                stack.append(arg)
            else:
                operands.append(arg)
    return operands


def _structural_key(
    term: Term, key_memo: Dict[Term, Tuple[str, str]]
) -> Tuple[str, str]:
    """History-independent sort keys used to order commutative operands.

    Returns ``(erased, named)``: the primary key erases variable names (so
    structurally distinct operands order the same way regardless of what the
    variables are called), and the name-dependent key only breaks ties
    between operands that are structurally identical modulo naming.  Two
    systems related by an order-*preserving* renaming therefore normalize
    their operands identically; nothing depends on intern ids or process
    history.
    """
    cached = key_memo.get(term)
    if cached is not None:
        return cached
    if term.is_const:
        result = (f"#{term.value}:{term.width}", "")
    elif term.is_var:
        result = (f"V:{term.width}", str(term.name))
    else:
        children = [_structural_key(a, key_memo) for a in term.args]
        erased = " ".join(c[0] for c in children)
        named = " ".join(c[1] for c in children)
        params = ",".join(str(p) for p in term.params)
        head = f"({term.kind.value}:{params}:{term.width} "
        result = (head + erased + ")", named)
    key_memo[term] = result
    return result


def _normalize(
    term: Term, memo: Dict[Term, Term], key_memo: Dict[Term, Tuple[str, str]]
) -> Term:
    """Rebuild ``term`` in a canonical, history-independent shape.

    Commutative operands are sorted by structural key, and whole
    associative-commutative chains are flattened and re-folded
    left-associatively over the sorted operand list — the simplifier
    orders (and reassociates) such chains by intern id, i.e. by process
    creation history, so two alpha-equivalent systems can arrive with
    different tree *shapes*, not just different operand orders.
    """
    cached = memo.get(term)
    if cached is not None:
        return cached
    if not term.args:
        result = term
    elif term.kind in _ASSOCIATIVE:
        operands = [
            _normalize(operand, memo, key_memo) for operand in _flatten_chain(term)
        ]
        operands.sort(key=lambda t: _structural_key(t, key_memo))
        result = operands[0]
        for operand in operands[1:]:
            result = Term.make(term.kind, (result, operand), width=term.width)
    else:
        args = tuple(_normalize(a, memo, key_memo) for a in term.args)
        if term.kind in _COMMUTATIVE and len(args) == 2:
            args = tuple(sorted(args, key=lambda t: _structural_key(t, key_memo)))
        result = Term.make(
            term.kind,
            args,
            width=term.width,
            value=term.value,
            name=term.name,
            params=term.params,
        )
    memo[term] = result
    return result


def _rename_term(term: Term, rename: Dict[str, str], memo: Dict[Term, Term]) -> Term:
    cached = memo.get(term)
    if cached is not None:
        return cached
    if term.is_var:
        result = Term.make(
            term.kind, (), width=term.width, name=rename[str(term.name)]
        )
    elif not term.args:
        result = term
    else:
        args = tuple(_rename_term(a, rename, memo) for a in term.args)
        result = Term.make(
            term.kind,
            args,
            width=term.width,
            value=term.value,
            name=term.name,
            params=term.params,
        )
    memo[term] = result
    return result
