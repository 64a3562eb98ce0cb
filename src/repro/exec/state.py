"""Program state: memory, branch conditions, allocations.

These classes mirror the formal state of the paper's operational semantics
(Section 3.2): a memory mapping (base address, offset) to ⟨value, symbolic
value⟩ pairs, and a branch condition φ — the execution-ordered sequence of
⟨label, symbolic branch condition⟩ observations.  The environment ρ is a
plain ``dict`` of such pairs owned by the running interpreter.

The "annotation" slot generalises the paper's symbolic value: the concrete
interpreter stores ``None`` there, the taint interpreter stores a frozenset
of influencing input-byte offsets, and the concolic interpreter stores an
:class:`repro.smt.terms.Term`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


#: A runtime value paired with its analysis annotation.
AnnotatedValue = Tuple[int, Any]


@dataclass
class MemoryBlock:
    """One allocated block: base address, requested size, cell contents."""

    address: int
    size: int
    site_label: int
    site_tag: Optional[str] = None
    cells: Dict[int, AnnotatedValue] = field(default_factory=dict)

    def in_bounds(self, offset: int) -> bool:
        """Whether a byte offset lies inside the allocated size."""
        return 0 <= offset < self.size


class Memory:
    """Memory m: base address → offset → ⟨value, annotation⟩.

    Addresses are opaque integers handed out sequentially; there is no
    address arithmetic across blocks (the core language has none either).
    """

    #: Address spacing between blocks: large enough that an out-of-bounds
    #: offset within one "page" past the block end does not collide with the
    #: next block, mirroring how a real heap overrun first corrupts adjacent
    #: memory before faulting.
    BLOCK_STRIDE = 1 << 20

    def __init__(self) -> None:
        #: Base address → block.  The compiled executor reads and writes
        #: cells through it directly; only :meth:`allocate` adds to it.
        self.by_address: Dict[int, MemoryBlock] = {}
        self._next_address = self.BLOCK_STRIDE

    def allocate(
        self, size: int, site_label: int, site_tag: Optional[str] = None
    ) -> MemoryBlock:
        """Allocate a new block of ``size`` bytes; returns the block."""
        address = self._next_address
        self._next_address += self.BLOCK_STRIDE
        block = MemoryBlock(
            address=address, size=size, site_label=site_label, site_tag=site_tag
        )
        self.by_address[address] = block
        return block

    def block_at(self, address: int) -> Optional[MemoryBlock]:
        """The block whose base address is ``address`` (or ``None``)."""
        return self.by_address.get(address)

    def __len__(self) -> int:
        return len(self.by_address)

    def __repr__(self) -> str:
        return f"Memory({len(self.by_address)} blocks)"


@dataclass(frozen=True)
class BranchObservation:
    """One element of the branch condition φ: a conditional branch outcome.

    Attributes:
        label: the label of the conditional statement.
        taken: the concrete outcome (``True`` = condition held).
        condition: the analysis annotation of the condition — a symbolic
            term for the concolic interpreter (already oriented so that the
            recorded term is true on the taken path, i.e. the paper's
            ``⟨ℓ, B'⟩`` or ``⟨ℓ, !B'⟩``), a taint set for the taint
            interpreter, ``None`` for the concrete interpreter.
        sequence_index: position in program execution order.
    """

    label: int
    taken: bool
    condition: Any
    sequence_index: int


@dataclass(frozen=True)
class AllocationRecord:
    """One dynamic execution of an allocation site.

    Attributes:
        site_label: label of the ``alloc`` statement.
        site_tag: the site's ``@ "tag"`` annotation, if any.
        requested_size: the concrete size value passed to ``alloc``.
        size_annotation: the analysis annotation of the size (taint set or
            symbolic term).
        address: base address of the allocated block.
        sequence_index: position in program execution order.
    """

    site_label: int
    site_tag: Optional[str]
    requested_size: int
    size_annotation: Any
    address: int
    sequence_index: int
