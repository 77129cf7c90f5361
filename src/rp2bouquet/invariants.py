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

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, pairwise, product, repeat
from operator import attrgetter
from typing import Iterable, Iterator

from .diagram import BouquetDiagram, HalfEdge, _canonical, _generic_analysis

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

    @cached_property
    def _text(self) -> str:
        # rendered once per word; cached_property writes the instance
        # __dict__ directly, so the frozen __setattr__, eq and hash are untouched
        return ",".join(str(s) for s in self.symbols)

    def __str__(self) -> str:
        return self._text

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
            key, eq, value = chunk.partition("=")
            key = key.strip()
            if not eq or key not in ("order", "h", "w"):
                raise ValueError(f"expected order=, h= or w=, got {chunk!r}")
            if key in fields:
                raise ValueError(f"{key} given twice")
            fields[key] = value.strip()
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


def _text_lines(tuples: Iterable[InvariantTuple], n: int) -> Iterator[str]:
    """The text() of each of the n-loop `tuples`, each ending in a newline,
    joined for each run of equal order.  Each bit string is joined once and
    each word's prefix built once: for enumerate_classes(4), grouped by word,
    text() per class, with the word's text cached, takes about 1.3 s more."""
    bits = {b: "".join(map(str, b)) for b in product((0, 1), repeat=n)}
    for order, group in groupby(tuples, attrgetter("order")):
        head = f"order={order}; h="
        yield "".join(f"{head}{bits[t.h]}; w={bits[t.w]}\n" for t in group)


def _class_rows(words: list[CyclicWord], bits: list[tuple[int, ...]]) -> list[InvariantTuple]:
    """The rows of product(words, bits, bits) as a new list of InvariantTuples.

    No Python function runs per row: object.__new__ allocates every tuple,
    then one pass per field stores a column through that field's slot
    descriptor, which sets it exactly as the dataclass's own __init__ does
    (neither goes through the frozen __setattr__).  The columns are lazy
    iterators, so the result is the only list of row length.  This stands
    for the constructor only while the fields are (order, h, w) and there is
    no __post_init__; tests/test_normal_form.py pins both.
    """
    words_n, bits_n = len(words), len(bits)
    out = list(map(object.__new__, repeat(InvariantTuple, words_n * bits_n * bits_n)))
    # order: each word bits_n^2 times in a row; h: each bit tuple bits_n times
    # in a row, that run once per word; w: the bit tuples over and over
    order = chain.from_iterable(map(repeat, words, repeat(bits_n * bits_n)))
    h = chain.from_iterable(map(repeat, chain.from_iterable(repeat(bits, words_n)), repeat(bits_n)))
    w = chain.from_iterable(repeat(bits, words_n * bits_n))
    for slot, column in ((InvariantTuple.order, order), (InvariantTuple.h, h), (InvariantTuple.w, w)):
        deque(map(slot.__set__, out, column), maxlen=0)
    return out


# ---------------------------------------------------------------------------
# the three components
# ---------------------------------------------------------------------------

def inv1(d: BouquetDiagram) -> CyclicWord:
    """Canonical cyclic word of half-edge symbols counterclockwise around V."""
    return CyclicWord(_canonical(_generic_analysis(d).star))


def inv2(d: BouquetDiagram) -> tuple[int, ...]:
    """Per-loop homotopy class in pi_1(RP^2): seam-crossing count mod 2."""
    _generic_analysis(d)  # assert generic position
    return tuple(loop.seam_crossings % 2 for loop in d.loops)


def _index_term(leg: int, frame: int) -> int:
    """The term in the signed index at orientation +1 of a self-crossing
    with frame `frame` whose first visit lies on leg `leg`."""
    return (-1 if leg % 2 else 1) * frame


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
    a = _generic_analysis(d)
    # the leg of each record of the loop; a kept crossing's first visit is on its record a
    legs = {id(s): k for k, (i, j) in enumerate(pairwise(a.leg_starts[loop])) for s in a.records[i:j]}
    return orientation * sum(_index_term(legs[id(s)], frame) for s, t, frame, _ in a.pairs
                             if s.loop == t.loop == loop)


def inv3(d: BouquetDiagram) -> tuple[int, ...]:
    """Per-loop parity of the signed self-intersection index.

    Every contribution is +-1, so this equals the self-crossing count mod 2
    and does not depend on the traversal orientation.  The analysis keeps it.
    """
    return _generic_analysis(d).w


def invariants(d: BouquetDiagram) -> InvariantTuple:
    """The complete invariant (order word, h bits, w bits) of a diagram."""
    return InvariantTuple(inv1(d), inv2(d), inv3(d))


def equiv(d1: BouquetDiagram, d2: BouquetDiagram) -> bool:
    """Decide regular homotopy: same loop count and equal invariant tuples."""
    if d1.n != d2.n:
        raise MismatchedLoopCount(f"cannot compare bouquets of {d1.n} and {d2.n} loops")
    return invariants(d1) == invariants(d2)
