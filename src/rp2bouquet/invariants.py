"""The complete regular-homotopy invariant of an immersed bouquet.

For a generic immersion of a bouquet of n circles into the projective plane
the regular homotopy class is captured by three components, packaged here as
an :class:`InvariantTuple`:

* ``order`` - the cyclic word spelling the counterclockwise order of the 2n
  half-edge symbols around the vertex, canonicalized over rotation *and*
  reversal (the surface is non-orientable, so a diagram and its mirror image
  must read the same);
* ``h``     - one bit per loop: the homotopy class of the loop in
  pi_1(RP^2) = Z/2, read off as the seam-crossing count mod 2;
* ``w``     - one bit per loop: the parity of the loop's self-intersection
  index, equivalently the number of its self-crossings mod 2.

Two diagrams with the same number of loops are regularly homotopic exactly
when their tuples agree, which is what :func:`equiv` decides.

The signed self-intersection index (:func:`signed_index`) of one loop sums,
over its self-crossings, the orientation sign of the frame formed by the two
branch directions at the crossing; because a path that has crossed the seam
an odd number of times sits in an orientation-reversed chart, each term also
carries the factor (-1)^(number of seam crossings strictly before the first
visit).  The full integer flips sign with the traversal orientation of the
loop and jumps by +-2 under seam detours, so only its parity is part of the
invariant; the signed value itself is still exposed because move contracts
constrain it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BouquetDiagram, Crossing, HalfEdge, InvalidDiagram, crossings, vertex_directions
from .geometry import angle_sort

__all__ = [
    "CyclicWord",
    "InvariantTuple",
    "DuplicateSymbol",
    "MissingSymbol",
    "MismatchedLoopCount",
    "canonical_cyclic_word",
    "inv1",
    "inv2",
    "signed_index",
    "inv3",
    "invariants",
    "equiv",
]


class DuplicateSymbol(ValueError):
    """A half-edge symbol occurs more than once in the word."""


class MissingSymbol(ValueError):
    """Some half-edge symbol of the bouquet does not occur in the word."""


class MismatchedLoopCount(ValueError):
    """Diagrams over bouquets of different sizes cannot be compared."""


def _check_symbols(symbols: tuple[HalfEdge, ...]) -> int:
    if len(symbols) % 2 != 0 or not symbols:
        raise MissingSymbol(f"a bouquet word has 2n symbols, got {len(symbols)}")
    n = len(symbols) // 2
    seen = set()
    for s in symbols:
        if s in seen:
            raise DuplicateSymbol(f"symbol {s} repeats")
        seen.add(s)
    for i in range(n):
        for inverted in (False, True):
            if HalfEdge(i, inverted) not in seen:
                raise MissingSymbol(f"symbol {HalfEdge(i, inverted)} missing")
    return n


def _canonical(symbols: tuple[HalfEdge, ...]) -> tuple[HalfEdge, ...]:
    m = len(symbols)
    best = None
    for word in (symbols, tuple(reversed(symbols))):
        for r in range(m):
            cand = word[r:] + word[:r]
            if best is None or cand < best:
                best = cand
    return best


@dataclass(frozen=True)
class CyclicWord:
    """Canonical representative of a cyclic word in the 2n half-edge symbols.

    The stored spelling is the lexicographic minimum over all rotations of
    the word and of its reversal, under the symbol order
    e1 < e1^-1 < e2 < e2^-1 < ...; two cyclic words are equal as values
    exactly when they agree up to rotation and reversal.
    """

    symbols: tuple[HalfEdge, ...]

    @staticmethod
    def from_symbols(symbols) -> "CyclicWord":
        symbols = tuple(symbols)
        _check_symbols(symbols)
        return CyclicWord(_canonical(symbols))

    @property
    def n(self) -> int:
        return len(self.symbols) // 2

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.symbols)

    @staticmethod
    def parse(text: str) -> "CyclicWord":
        parts = [p.strip() for p in text.split(",") if p.strip()]
        return CyclicWord.from_symbols(HalfEdge.parse(p) for p in parts)


def canonical_cyclic_word(symbols) -> CyclicWord:
    """Canonicalize a sequence of half-edge symbols as a cyclic word.

    >>> w = canonical_cyclic_word([HalfEdge(1, False), HalfEdge(0, False),
    ...                            HalfEdge(1, True), HalfEdge(0, True)])
    >>> str(w)
    'e1,e2,e1^-1,e2^-1'
    """
    return CyclicWord.from_symbols(symbols)


@dataclass(frozen=True, slots=True)
class InvariantTuple:
    """The full invariant: vertex word, homotopy-class bits, parity bits."""

    order: CyclicWord
    h: tuple[int, ...]
    w: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.order.n

    def text(self) -> str:
        return f"order={self.order}; h={''.join(map(str, self.h))}; w={''.join(map(str, self.w))}"

    @staticmethod
    def parse(text: str) -> "InvariantTuple":
        fields = {}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            fields[key.strip()] = value.strip()
        missing = {"order", "h", "w"} - set(fields)
        if missing:
            raise ValueError(f"invariant tuple text missing {sorted(missing)}")
        order = CyclicWord.parse(fields["order"])
        bits = {}
        for key in ("h", "w"):
            raw = fields[key]
            if not raw or any(ch not in "01" for ch in raw):
                raise ValueError(f"{key} must be a non-empty bit string, got {raw!r}")
            bits[key] = tuple(int(ch) for ch in raw)
        if len(bits["h"]) != order.n or len(bits["w"]) != order.n:
            raise ValueError("bit strings must have one bit per loop")
        return InvariantTuple(order, bits["h"], bits["w"])


# ---------------------------------------------------------------------------
# the three components
# ---------------------------------------------------------------------------

def _star_word(d: BouquetDiagram) -> tuple[HalfEdge, ...]:
    """The 2n half-edge symbols counterclockwise around V, from direction (1, 0)."""
    star = vertex_directions(d)
    return tuple(star[i][0] for i in angle_sort([direction for _, direction in star]))


def inv1(d: BouquetDiagram) -> CyclicWord:
    """Canonical cyclic word of half-edge symbols counterclockwise around V."""
    crossings(d)  # assert generic position
    return canonical_cyclic_word(_star_word(d))


def inv2(d: BouquetDiagram) -> tuple[int, ...]:
    """Per-loop homotopy class in pi_1(RP^2): seam-crossing count mod 2."""
    crossings(d)
    return tuple(loop.seam_crossings % 2 for loop in d.loops)


def _self_crossings(d: BouquetDiagram, loop: int) -> list[Crossing]:
    return [c for c in crossings(d) if c.loop_a == loop and c.loop_b == loop]


def _index_term(c: Crossing) -> int:
    """The term of self-crossing c in the signed index at orientation +1."""
    return (-1 if c.param_a.leg % 2 else 1) * c.frame


def signed_index(d: BouquetDiagram, loop: int, orientation: int = 1) -> int:
    """Signed self-intersection index of one loop.

    Each self-crossing contributes

        orientation * (-1)^(seam crossings before the first visit) * frame,

    where `frame` is +1 when the ordered pair (direction at first visit,
    direction at second visit) is counterclockwise.  Crossings with other
    loops do not contribute.  The result negates when `orientation` flips.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    if not 0 <= loop < len(d.loops):
        raise IndexError(f"no loop {loop} in a diagram of {len(d.loops)}")
    return orientation * sum(map(_index_term, _self_crossings(d, loop)))


def inv3(d: BouquetDiagram) -> tuple[int, ...]:
    """Per-loop parity of the signed self-intersection index.

    Every contribution is +-1, so this equals the self-crossing count mod 2
    and does not depend on the traversal orientation.
    """
    return tuple(signed_index(d, i) % 2 for i in range(d.n))


def invariants(d: BouquetDiagram) -> InvariantTuple:
    """The complete invariant (order word, h bits, w bits) of a diagram."""
    return InvariantTuple(inv1(d), inv2(d), inv3(d))


def equiv(d1: BouquetDiagram, d2: BouquetDiagram) -> bool:
    """Decide regular homotopy: same loop count and equal invariant tuples."""
    if d1.n != d2.n:
        raise MismatchedLoopCount(f"cannot compare bouquets of {d1.n} and {d2.n} loops")
    return invariants(d1) == invariants(d2)
