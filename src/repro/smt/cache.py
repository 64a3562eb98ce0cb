"""Shared solver-result cache keyed on canonicalized constraint systems.

The campaign engine runs many near-identical solver queries: enforcement
iterations re-check growing prefixes of the same system, and sibling target
sites constrain structurally identical expressions over differently named
field variables.  This module lets all of them share one answer store.

Canonicalization has three steps:

1. every conjunct is simplified (the portfolio front end already does this),
   so syntactic noise collapses into the hash-consed term DAG;
2. commutative operands are put in a history-independent order; the
   normalized form and its sort key are stored on the interned term
   (``Term._normalized`` / ``Term._structural_key``, like
   ``Term._simplified``), so each distinct term is normalized once per
   process, whichever cache or campaign asks first;
3. variables are renamed to ``v000, v001, ...`` in first-occurrence order
   across the ordered conjunct list, so alpha-equivalent systems rebuild the
   *same* interned canonical terms; the renamed system is memoized per
   normalized conjunct tuple for the life of the process, so each distinct
   query is renamed once.

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

Verdicts are stored at one granularity, the whole canonical query, and
that is the cache's only table.  UNSAT cores are per-derivation: they live
in the solver session and the enforcer's per-site accumulator, never here.
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
    lookups and stores; ``merged`` counts entries adopted wholesale from
    elsewhere (a persistent on-disk store, a worker process's delta).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid_hits: int = 0
    merged: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid_hits": self.invalid_hits,
            "merged": self.merged,
            "hit_rate": round(self.hit_rate(), 4),
        }


#: The :class:`SolverCacheStats` fields a worker-local cache's delta
#: carries back to the campaign cache (see :meth:`SolverCache.stats_snapshot`).
_TRANSFERABLE_STATS = ("hits", "misses", "stores", "invalid_hits")


class SolverCache:
    """Thread-safe store of solver verdicts keyed by canonical systems.

    One instance is shared by every :class:`~repro.smt.solver.PortfolioSolver`
    a campaign creates; entries are idempotent (two workers racing on the
    same canonical system store the same verdict), so no cross-worker
    coordination beyond the internal lock is needed.
    """

    #: The one entry kind, whole-query verdicts; the string doubles as the
    #: unified store's record namespace (:mod:`repro.store`).
    KIND_QUERY = "query"

    def __init__(self) -> None:
        # key -> (canonical conjuncts, verdict).  The conjuncts are kept so
        # entries can be exported — to a persistent CacheStore or across a
        # process boundary — and rebuilt against a fresh intern table on
        # the other side.
        self._entries: Dict[Tuple, Tuple[Tuple[Term, ...], CachedVerdict]] = {}
        self._lock = threading.Lock()
        self.stats = SolverCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

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
        processes and across intern-table history.  Both the normal form
        and the key live on the interned term, so a conjunct any earlier
        query in this process normalized costs one slot read.  The renamed
        system is kept per normalized conjunct tuple (``_CANONICAL``), so a
        query seen before in this process renames nothing.
        """
        normalized = tuple(_normalize(c) for c in conjuncts)
        entry = _CANONICAL.get(normalized)
        if entry is None:
            rename: Dict[str, str] = {}
            for conjunct in normalized:
                _collect_names(conjunct, rename)
            memo: Dict[Term, Term] = {}
            canonical = tuple(_rename_term(c, rename, memo) for c in normalized)
            entry = _CANONICAL[normalized] = (
                canonical,
                tuple(t._id for t in canonical),
                tuple((name, actual) for actual, name in rename.items()),
            )
        canonical, ids, from_canonical = entry
        return CanonicalSystem(
            key=(fingerprint, ids),
            conjuncts=canonical,
            from_canonical=from_canonical,
        )

    def lookup(self, system: CanonicalSystem) -> Optional[CachedVerdict]:
        """Return the stored verdict for ``system``, counting hit/miss."""
        with self._lock:
            entry = self._entries.get(system.key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return entry[1]

    def store(self, system: CanonicalSystem, verdict: CachedVerdict) -> None:
        """Store the canonical verdict for ``system`` (idempotent)."""
        with self._lock:
            self._entries[system.key] = (system.conjuncts, verdict)
            self.stats.stores += 1

    def note_invalid_hit(self) -> None:
        """Record a hit whose translated model failed verification."""
        with self._lock:
            self.stats.invalid_hits += 1

    # ------------------------------------------------------------------
    # Export / merge: the seam the persistent store and the process
    # backend share.  Entries travel as (fingerprint, canonical conjuncts,
    # verdict) triples; the key is recomputed from the receiving side's
    # intern table, so intern ids never leak across process or run
    # boundaries.
    # ------------------------------------------------------------------
    def entries_snapshot(self) -> List[Tuple[Tuple, Tuple[Term, ...], CachedVerdict]]:
        """Return ``(key, canonical conjuncts, verdict)`` for every entry."""
        with self._lock:
            return [
                (key, conjuncts, verdict)
                for key, (conjuncts, verdict) in self._entries.items()
            ]

    def merge_canonical(
        self,
        fingerprint: Tuple,
        conjuncts: Sequence[Term],
        verdict: CachedVerdict,
    ) -> Tuple:
        """Adopt one exported entry; returns its key in this cache.

        First writer wins: an entry already present (from this run's own
        solving or an earlier merge) is kept — both derive from the same
        canonical system, so they agree anyway.
        """
        conjuncts = tuple(conjuncts)
        key = (fingerprint, tuple(t._id for t in conjuncts))
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (conjuncts, verdict)
                self.stats.merged += 1
        return key

    def stats_snapshot(self) -> Dict[str, int]:
        """Atomic reading of the transferable counters, by field name.

        What the process backend ships from workers, as per-unit
        differences, and folds back into the campaign cache via
        :meth:`add_external_stats`.  ``merged`` describes one cache's own
        table and does not travel.
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
#: Normalized conjunct tuple -> (canonical conjuncts, their intern ids,
#: canonical name -> caller name pairs), for the life of the process.  The
#: canonical system is a pure function of the normalized conjuncts, so a
#: repeated query (every later campaign's, whichever cache asks) costs one
#: lookup and builds no term; a miss runs the renaming below unchanged.
#: Racing threads both store the same interned terms.
_CANONICAL: Dict[
    Tuple[Term, ...],
    Tuple[Tuple[Term, ...], Tuple[int, ...], Tuple[Tuple[str, str], ...]],
] = {}


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


def _structural_key(term: Term) -> Tuple[str, str]:
    """History-independent sort keys used to order commutative operands.

    Returns ``(erased, named)``: the primary key erases variable names (so
    structurally distinct operands order the same way regardless of what the
    variables are called), and the name-dependent key only breaks ties
    between operands that are structurally identical modulo naming.  Two
    systems related by an order-*preserving* renaming therefore normalize
    their operands identically; nothing depends on intern ids or process
    history.  The pair is stored on the term (``Term._structural_key``)
    and never cleared; two threads computing it store equal strings.
    """
    cached = term._structural_key
    if cached is not None:
        return cached
    if term.is_const:
        result = (f"#{term.value}:{term.width}", "")
    elif term.is_var:
        result = (f"V:{term.width}", str(term.name))
    else:
        children = [_structural_key(a) for a in term.args]
        erased = " ".join(c[0] for c in children)
        named = " ".join(c[1] for c in children)
        params = ",".join(str(p) for p in term.params)
        head = f"({term.kind.value}:{params}:{term.width} "
        result = (head + erased + ")", named)
    term._structural_key = result
    return result


def _normalize(term: Term) -> Term:
    """Rebuild ``term`` in a canonical, history-independent shape.

    Commutative operands are sorted by structural key, and whole
    associative-commutative chains are flattened and re-folded
    left-associatively over the sorted operand list — the simplifier
    orders (and reassociates) such chains by intern id, i.e. by process
    creation history, so two alpha-equivalent systems can arrive with
    different tree *shapes*, not just different operand orders.

    The result is stored on the term (``Term._normalized``) and never
    cleared.  It is built through the locked intern table, so it is always
    an interned term, and two threads filling the same slot store the same
    object.
    """
    cached = term._normalized
    if cached is not None:
        return cached
    if not term.args:
        result = term
    elif term.kind in _ASSOCIATIVE:
        operands = [_normalize(operand) for operand in _flatten_chain(term)]
        operands.sort(key=_structural_key)
        result = operands[0]
        for operand in operands[1:]:
            result = Term.make(term.kind, (result, operand), width=term.width)
    else:
        args = tuple(_normalize(a) for a in term.args)
        if term.kind in _COMMUTATIVE and len(args) == 2:
            args = tuple(sorted(args, key=_structural_key))
        result = Term.make(
            term.kind,
            args,
            width=term.width,
            value=term.value,
            name=term.name,
            params=term.params,
        )
    term._normalized = result
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
