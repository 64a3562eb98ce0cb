"""An incremental CDCL SAT solver over flat integer arrays.

This is the complete decision procedure backing the portfolio solver: when
the cheap layers (simplification, interval propagation, heuristics) cannot
decide a bitvector constraint, the constraint is bit-blasted to CNF and
handed to this solver.

The implementation follows the standard conflict-driven clause learning
recipe: two-watched-literal propagation, first-UIP conflict analysis, VSIDS
branching with phase saving, Luby restarts and learned-clause deletion.

The hot state lives in flat integer arrays so propagation and conflict
analysis are index arithmetic instead of attribute chasing:

* literals are encoded as **literal indices**: variable ``v`` maps to
  ``2*v`` (positive) and ``2*v + 1`` (negative), so negation is ``idx ^ 1``
  and the variable is ``idx >> 1``;
* clauses live in one shared **arena** (a flat ``int`` list): a clause
  reference ``cref`` is an offset where ``arena[cref]`` holds the size and
  ``arena[cref + 1 : cref + 1 + size]`` the literal indices, with the two
  watched literals always at the first two slots;
* **watch lists** are per-literal-index flat arrays of interleaved
  ``[cref, blocker]`` pairs.  The blocker is some literal of the clause
  (initially the other watch); if it is already true the clause is
  satisfied and the visit skips the arena entirely;
* assignment (``values`` indexed by literal index), ``reason`` (a cref or
  ``-1``) and ``level`` are indexed arrays, and VSIDS branching uses an
  indexed max-heap ordered by ``(activity, lowest variable index)`` — the
  same variable the original linear argmax scan picked.

The solver is *incremental* in the MiniSat sense:

* it stays attached to the :class:`~repro.smt.cnf.CNF` it was built from
  and picks up clauses appended since the previous call at the start of
  every :meth:`CDCLSolver.solve` (growing the variable arrays as needed),
  so a persistent bit-blaster can keep translating delta conjuncts into the
  same formula;
* :meth:`solve` takes *assumption* literals that hold for one call only —
  they are enqueued as pseudo-decisions below the real decision levels, so
  an enforcement session can flip or append branch constraints between
  calls without rebuilding the solver;
* learned clauses, variable activity and saved phases persist across calls.
  First-UIP learned clauses resolve only real clauses from the database
  (assumption literals are decisions and are never resolved away), so every
  retained clause is implied by the formula itself and stays sound for
  later calls with different assumptions;
* an UNSAT answer under assumptions carries a final-conflict **UNSAT
  core** (:attr:`SatResult.core`): the subset of assumption literals the
  failure actually depended on, so callers can learn *which* pushed
  constraints are jointly infeasible rather than just that the whole
  conjunction is.

The per-call conflict budget (``max_conflicts``) bounds the conflicts of
each :meth:`solve` call separately, matching the per-query budget of the
non-incremental path; the counters reported on a :class:`SatResult` are
likewise per-call deltas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.cnf import CNF


class SatStatus:
    """Status constants returned by :meth:`CDCLSolver.solve`."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatResult:
    """Outcome of one SAT query (statistics are per-call deltas)."""

    status: str
    assignment: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    #: Final-conflict UNSAT core: a subset of this call's assumption
    #: literals that is jointly unsatisfiable with the formula.  ``None``
    #: unless the status is UNSAT; an *empty* tuple means the formula is
    #: unsatisfiable on its own, with no assumption involved.  The core is
    #: sound but not guaranteed minimal (it is whatever the final-conflict
    #: reason graph reached, MiniSat's ``analyzeFinal``).
    core: Optional[Tuple[int, ...]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == SatStatus.UNSAT


def _lit_index(literal: int) -> int:
    """Signed DIMACS-style literal -> literal index (2v / 2v+1)."""
    return (literal << 1) if literal > 0 else (((-literal) << 1) | 1)


def _lit_signed(index: int) -> int:
    """Literal index -> signed DIMACS-style literal."""
    var = index >> 1
    return -var if index & 1 else var


class CDCLSolver:
    """Conflict-driven clause learning SAT solver over a :class:`CNF`.

    The solver keeps a reference to ``cnf`` and loads newly appended
    clauses on every :meth:`solve` call, so one instance can serve a
    growing formula (the persistent bit-blaster of a solver session).
    """

    def __init__(
        self,
        cnf: CNF,
        max_conflicts: Optional[int] = None,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
    ) -> None:
        self.num_vars = 0
        self.max_conflicts = max_conflicts
        self.var_decay = var_decay
        self.clause_decay = clause_decay

        # Assignment state.  ``values`` is indexed by *literal index* and
        # double-written on every assignment (values[lit] = 1 implies
        # values[lit ^ 1] = 0); -1 means unassigned.  The remaining arrays
        # are indexed by variable (1-based).
        self.values: List[int] = [-1, -1]
        self.level: List[int] = [0]
        self.reason: List[int] = [-1]
        self.saved_phase: List[int] = [0]
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.clause_inc = 1.0

        # VSIDS order heap: max-heap over variables keyed by
        # (activity, -variable index); _heap_pos[var] is the slot or -1.
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]

        self.trail: List[int] = []  # literal indices, in assignment order
        self.trail_lim: List[int] = []
        self.propagation_head = 0

        # Clause arena: arena[cref] = size, then `size` literal indices.
        self._arena: List[int] = []
        self.clauses: List[int] = []  # crefs of original clauses
        self.learned: List[int] = []  # crefs of learned clauses
        self._clause_act: Dict[int, float] = {}  # learned-clause activity
        # watches[lit_index] is a flat [cref, blocker, cref, blocker, ...]
        self.watches: List[List[int]] = [[], []]

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        self._cnf = cnf
        self._loaded_clauses = 0
        self._contradiction = False
        self._sync_with_cnf()

    # ------------------------------------------------------------------
    # Incremental clause loading
    # ------------------------------------------------------------------
    def _grow_to(self, num_vars: int) -> None:
        if num_vars <= self.num_vars:
            return
        extra = num_vars - self.num_vars
        self.values.extend([-1] * (2 * extra))
        self.level.extend([0] * extra)
        self.reason.extend([-1] * extra)
        self.saved_phase.extend([0] * extra)
        self.activity.extend([0.0] * extra)
        self._heap_pos.extend([-1] * extra)
        for _ in range(2 * extra):
            self.watches.append([])
        for var in range(self.num_vars + 1, num_vars + 1):
            self._heap_insert(var)
        self.num_vars = num_vars

    def _sync_with_cnf(self) -> None:
        """Load clauses appended to the attached CNF since the last call.

        Must run at decision level 0: new clauses are simplified against the
        root-level assignment (satisfied clauses dropped, permanently false
        literals removed), which keeps the two-watched-literal invariant
        intact for assignments whose propagation events have already been
        consumed.
        """
        if self._cnf.has_contradiction:
            self._contradiction = True
        self._grow_to(self._cnf.num_vars)
        while self._loaded_clauses < len(self._cnf.clauses):
            clause = self._cnf.clauses[self._loaded_clauses]
            self._loaded_clauses += 1
            if not self._add_clause(clause):
                self._contradiction = True
                break

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _alloc(self, lit_indices: List[int]) -> int:
        arena = self._arena
        cref = len(arena)
        arena.append(len(lit_indices))
        arena.extend(lit_indices)
        return cref

    def _add_clause(self, literals: Sequence[int]) -> bool:
        """Add an original clause at level 0; ``False`` on a contradiction.

        (Learned clauses take the separate :meth:`_learn` path, which
        asserts at the backjump level instead of simplifying at the root.)
        """
        indices = []
        seen = set()
        for lit in literals:
            idx = _lit_index(int(lit))
            if idx not in seen:
                seen.add(idx)
                indices.append(idx)
        for idx in indices:
            if idx ^ 1 in seen:
                return True  # tautology
        # Root-level simplification: a literal true at level 0 satisfies the
        # clause forever; one false at level 0 can never help it.
        values = self.values
        kept: List[int] = []
        for idx in indices:
            value = values[idx]
            if value < 0:
                kept.append(idx)
            elif value == 1:
                return True
            # value == 0 at level 0: drop the literal.
        if not kept:
            return False
        if len(kept) == 1:
            self._assign(kept[0], -1)
            return True
        cref = self._alloc(kept)
        self.clauses.append(cref)
        self.watches[kept[0]].append(cref)
        self.watches[kept[0]].append(kept[1])
        self.watches[kept[1]].append(cref)
        self.watches[kept[1]].append(kept[0])
        return True

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _assign(self, lit_index: int, reason_cref: int) -> None:
        var = lit_index >> 1
        self.values[lit_index] = 1
        self.values[lit_index ^ 1] = 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_cref
        self.saved_phase[var] = (lit_index & 1) ^ 1
        self.trail.append(lit_index)

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        cut = self.trail_lim[target_level]
        values = self.values
        reason = self.reason
        heap_pos = self._heap_pos
        for lit_index in self.trail[cut:]:
            values[lit_index] = -1
            values[lit_index ^ 1] = -1
            var = lit_index >> 1
            reason[var] = -1
            if heap_pos[var] < 0:
                self._heap_insert(var)
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        self.propagation_head = min(self.propagation_head, len(self.trail))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> int:
        """Unit-propagate; returns a conflicting cref or ``-1``.

        This is the hottest loop in the solver: it walks flat watch arrays
        of ``[cref, blocker]`` pairs and only touches the clause arena when
        the blocker literal is not already satisfied.
        """
        values = self.values
        arena = self._arena
        watches = self.watches
        trail = self.trail
        trail_lim = self.trail_lim
        level = self.level
        reason = self.reason
        saved_phase = self.saved_phase
        head = self.propagation_head
        props = 0
        conflict = -1
        while head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            props += 1
            ws = watches[falsified]
            i = j = 0
            n = len(ws)
            while i < n:
                cref = ws[i]
                blocker = ws[i + 1]
                if values[blocker] == 1:
                    ws[j] = cref
                    ws[j + 1] = blocker
                    j += 2
                    i += 2
                    continue
                base = cref + 1
                # Normalise so arena[base] is the other watched literal.
                first = arena[base]
                if first == falsified:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = falsified
                if values[first] == 1:
                    ws[j] = cref
                    ws[j + 1] = first
                    j += 2
                    i += 2
                    continue
                # Look for a new literal to watch.
                found = False
                for alt in range(base + 2, base + arena[cref]):
                    lit = arena[alt]
                    if values[lit] != 0:
                        arena[base + 1] = lit
                        arena[alt] = falsified
                        other = watches[lit]
                        other.append(cref)
                        other.append(first)
                        found = True
                        break
                if found:
                    i += 2
                    continue
                # Clause is unit or conflicting.
                ws[j] = cref
                ws[j + 1] = first
                j += 2
                i += 2
                if values[first] == 0:
                    # Conflict: keep remaining watchers and report.
                    while i < n:
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        j += 2
                        i += 2
                    conflict = cref
                    break
                var = first >> 1
                values[first] = 1
                values[first ^ 1] = 0
                level[var] = len(trail_lim)
                reason[var] = cref
                saved_phase[var] = (first & 1) ^ 1
                trail.append(first)
            del ws[j:]
            if conflict >= 0:
                break
        self.propagation_head = head
        self.propagations += props
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        arena = self._arena
        level = self.level
        trail = self.trail
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self.num_vars + 1)
        counter = 0
        current_level = len(self.trail_lim)
        uip_var = -1
        cref = conflict
        trail_index = len(trail) - 1

        while True:
            self._bump_clause(cref)
            for pos in range(cref + 1, cref + 1 + arena[cref]):
                lit = arena[pos]
                var = lit >> 1
                # Skip the literal this clause propagated (the reason clause
                # of a variable contains the variable itself).
                if var == uip_var:
                    continue
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(lit)
            # Select the next literal to expand from the trail.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            uip_lit = trail[trail_index]
            trail_index -= 1
            uip_var = uip_lit >> 1
            seen[uip_var] = 0
            counter -= 1
            cref = self.reason[uip_var]
            if counter == 0:
                break
        learned[0] = uip_lit ^ 1

        # Compute the backjump level (second-highest level in the clause).
        if len(learned) == 1:
            backjump = 0
        else:
            backjump = max(level[lit >> 1] for lit in learned[1:])
        return learned, backjump

    # ------------------------------------------------------------------
    # VSIDS (indexed max-heap keyed by activity, ties to lowest variable)
    # ------------------------------------------------------------------
    def _heap_insert(self, var: int) -> None:
        heap = self._heap
        self._heap_pos[var] = len(heap)
        heap.append(var)
        self._heap_sift_up(len(heap) - 1)

    def _heap_sift_up(self, slot: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        var = heap[slot]
        act = activity[var]
        while slot > 0:
            parent = (slot - 1) >> 1
            pvar = heap[parent]
            pact = activity[pvar]
            if pact > act or (pact == act and pvar < var):
                break
            heap[slot] = pvar
            pos[pvar] = slot
            slot = parent
        heap[slot] = var
        pos[var] = slot

    def _heap_pop(self) -> int:
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            # Sift the displaced last element down from the root.
            slot = 0
            size = len(heap)
            act = activity[last]
            while True:
                child = 2 * slot + 1
                if child >= size:
                    break
                cvar = heap[child]
                cact = activity[cvar]
                right = child + 1
                if right < size:
                    rvar = heap[right]
                    ract = activity[rvar]
                    if ract > cact or (ract == cact and rvar < cvar):
                        child = right
                        cvar = rvar
                        cact = ract
                if act > cact or (act == cact and last < cvar):
                    break
                heap[slot] = cvar
                pos[cvar] = slot
                slot = child
            heap[slot] = last
            pos[last] = slot
        return top

    def _bump_var(self, var: int) -> None:
        activity = self.activity
        activity[var] += self.var_inc
        if activity[var] > 1e100:
            # Rescaling preserves relative order, so the heap stays valid.
            for index in range(1, self.num_vars + 1):
                activity[index] *= 1e-100
            self.var_inc *= 1e-100
        if self._heap_pos[var] >= 0:
            self._heap_sift_up(self._heap_pos[var])

    def _decay_var_activity(self) -> None:
        self.var_inc /= self.var_decay

    def _bump_clause(self, cref: int) -> None:
        act = self._clause_act
        if cref in act:
            act[cref] += self.clause_inc
            if act[cref] > 1e20:
                for learned_cref in act:
                    act[learned_cref] *= 1e-20
                self.clause_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self.clause_inc /= self.clause_decay

    def _pick_branch_variable(self) -> Optional[int]:
        heap = self._heap
        values = self.values
        while heap:
            var = self._heap_pop()
            if values[var << 1] < 0:
                return var
        return None

    # ------------------------------------------------------------------
    # Learned clause management
    # ------------------------------------------------------------------
    def _reduce_learned(self) -> None:
        if len(self.learned) < 2000:
            return
        arena = self._arena
        act = self._clause_act
        self.learned.sort(key=act.__getitem__)
        keep_from = len(self.learned) // 2
        removed = set(c for c in self.learned[:keep_from] if arena[c] > 2)
        if not removed:
            return
        self.learned = [c for c in self.learned if c not in removed]
        for cref in removed:
            del act[cref]
        for ws in self.watches:
            if not ws:
                continue
            j = 0
            for i in range(0, len(ws), 2):
                if ws[i] not in removed:
                    ws[j] = ws[i]
                    ws[j + 1] = ws[i + 1]
                    j += 2
            del ws[j:]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve the formula under optional assumption literals.

        Assumptions hold for this call only: they are enqueued as
        pseudo-decisions below the real decision levels, so neither they nor
        anything propagated from them survives into the next call.  An
        assumption literal that is (or becomes) false at a lower level makes
        the call return UNSAT without poisoning the clause database — and
        carries the final-conflict core over assumption literals (see
        :attr:`SatResult.core`; an UNSAT with an empty core means the
        formula itself is unsatisfiable).
        """
        self._backtrack(0)
        self._sync_with_cnf()
        marks = (self.conflicts, self.decisions, self.propagations, self.restarts)
        if self._contradiction:
            return self._result(SatStatus.UNSAT, marks=marks, core=())

        if self._propagate() >= 0:
            self._contradiction = True
            return self._result(SatStatus.UNSAT, marks=marks, core=())

        assumptions = [int(lit) for lit in assumptions]
        restart_threshold = 100
        luby = _luby_sequence()
        next_restart = self.conflicts + restart_threshold * next(luby)
        values = self.values

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.conflicts += 1
                if not self.trail_lim:
                    self._contradiction = True
                    return self._result(SatStatus.UNSAT, marks=marks, core=())
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._learn(learned)
                self._decay_var_activity()
                self._decay_clause_activity()
                if (
                    self.max_conflicts is not None
                    and self.conflicts - marks[0] >= self.max_conflicts
                ):
                    return self._result(SatStatus.UNKNOWN, marks=marks)
                if self.conflicts >= next_restart:
                    self.restarts += 1
                    next_restart = self.conflicts + restart_threshold * next(luby)
                    self._backtrack(0)
                    self._reduce_learned()
                continue

            if len(self.trail_lim) < len(assumptions):
                # Establish the next assumption as a pseudo-decision.  A
                # level is opened even when the literal already holds, so
                # the level index always tells how many assumptions are in
                # force (and backjumps re-establish the rest on the way
                # back down).
                literal = assumptions[len(self.trail_lim)]
                lit_index = _lit_index(literal)
                value = values[lit_index]
                if value == 0:
                    return self._result(
                        SatStatus.UNSAT,
                        marks=marks,
                        core=self._analyze_final(literal),
                    )
                self.trail_lim.append(len(self.trail))
                if value < 0:
                    self._assign(lit_index, -1)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                assignment = {
                    var: values[var << 1] == 1 for var in range(1, self.num_vars + 1)
                }
                return self._result(SatStatus.SAT, assignment, marks=marks)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            lit_index = (variable << 1) | (self.saved_phase[variable] ^ 1)
            self._assign(lit_index, -1)

    def _analyze_final(self, failed: int) -> Tuple[int, ...]:
        """Explain a falsified assumption as a core over assumption literals.

        Called when establishing assumption ``failed`` found it already
        false.  Walks the trail backwards from ``-failed`` through reason
        clauses (MiniSat's ``analyzeFinal``): every reached literal assigned
        with no reason above level 0 is an assumption pseudo-decision (real
        decisions cannot exist yet — assumptions are established before any
        branching), and the collected assumptions plus ``failed`` itself are
        jointly unsatisfiable with the formula.  Level-0 assignments are
        implied by the formula alone and contribute nothing.
        """
        arena = self._arena
        level = self.level
        core = {failed}
        failed_var = abs(failed)
        if level[failed_var] == 0:
            return tuple(sorted(core))
        pending = {failed_var}
        for lit_index in reversed(self.trail):
            var = lit_index >> 1
            if var not in pending:
                continue
            pending.discard(var)
            reason_cref = self.reason[var]
            if reason_cref < 0:
                core.add(_lit_signed(lit_index))
                continue
            for pos in range(reason_cref + 1, reason_cref + 1 + arena[reason_cref]):
                other = arena[pos] >> 1
                if other != var and level[other] > 0:
                    pending.add(other)
        return tuple(sorted(core))

    def _learn(self, learned: List[int]) -> None:
        if len(learned) == 1:
            self._assign(learned[0], -1)
            return
        level = self.level
        # Watch the asserting literal (position 0) and, to keep the watch
        # invariant intact across later backtracking, the literal assigned at
        # the highest remaining decision level (position 1).
        best = max(range(1, len(learned)), key=lambda i: level[learned[i] >> 1])
        learned[1], learned[best] = learned[best], learned[1]
        cref = self._alloc(learned)
        self.learned.append(cref)
        self._clause_act[cref] = 0.0
        self.watches[learned[0]].append(cref)
        self.watches[learned[0]].append(learned[1])
        self.watches[learned[1]].append(cref)
        self.watches[learned[1]].append(learned[0])
        self._assign(learned[0], cref)

    def _result(
        self,
        status: str,
        assignment: Optional[Dict[int, bool]] = None,
        marks: Tuple[int, int, int, int] = (0, 0, 0, 0),
        core: Optional[Tuple[int, ...]] = None,
    ) -> SatResult:
        return SatResult(
            status=status,
            assignment=assignment,
            conflicts=self.conflicts - marks[0],
            decisions=self.decisions - marks[1],
            propagations=self.propagations - marks[2],
            restarts=self.restarts - marks[3],
            core=core,
        )


def _luby_sequence():
    """Generate the Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    for index in itertools.count(1):
        yield _luby(index)


def _luby(index: int) -> int:
    """The index-th element (1-based) of the Luby sequence."""
    while True:
        k = index.bit_length()
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        index -= (1 << (k - 1)) - 1


def solve_cnf(cnf: CNF, max_conflicts: Optional[int] = None) -> SatResult:
    """Convenience wrapper: solve a CNF formula from scratch."""
    return CDCLSolver(cnf, max_conflicts=max_conflicts).solve()
