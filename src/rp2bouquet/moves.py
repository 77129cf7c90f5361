"""Regular-homotopy moves and non-regular control edits on bouquet diagrams.

Moves (:class:`MoveSpec`) realize regular homotopies, so applying one must
preserve the full invariant tuple; edits (:class:`EditSpec`) are deliberate
invariant breakers used as negative controls.  Everything is applied the same
way: a template polyline built from the spec's exact rational parameters is
spliced into the target loop, and the candidate result is then *checked*, not
trusted, in this order -

* the changed loop, the vertex star and the seam table must still be in
  generic position;
* in one pass over the changed segments, every contact must be a transversal
  crossing apart from all other crossings and from the vertex;
* every crossing of the input diagram must survive at its exact location
  (so a template never lands on top of existing geometry);
* the freshly created crossings must match the move's contract exactly, e.g.
  a kink pair adds two self-crossings of opposite sign and nothing else.

Any failure raises :class:`MoveBlocked` at the first certain violation.  A
splice declares its count of new crossings and the pass checks it, stopping
past the count once every crossing on a replaced segment has been found
again ("got more than 2").  No move is "almost legal".
Smallness never needs to be argued: the checks are exact.  A random walk
drops unbuilt a proposal proved blocked, by floats where certain (_certainly_blocked).

Templates in segment-local coordinates (e = segment vector, v = left normal),
each point an int point built by `_along` and `_plus` (`_seam_step` past the
seam) from the segment's ends (see :mod:`rp2bouquet.geometry`):

* curl - four points making one loop over the segment, one self-crossing
  whose sign is -sign(h) before seam transport;
* kink pair - two curls of opposite side on disjoint windows;
* detour - two curls of equal side followed by a short excursion through the
  seam (out at q, back in through a second transition at r close to -q),
  adding two seam crossings and shifting the signed index by exactly +-2;
* finger push - a rectangular finger over one other strand, two transversal
  crossings with it;
* seam reroute (edit) - replaces a window with a one-transition trip through
  the seam, flipping the loop's homotopy class bit;
* single kink (edit) - one curl, flipping the loop's parity bit;
* jiggle - no template: one interior point moves.  The crossings on its two
  segments may move with it, so instead of surviving they must keep their
  strands and frames, and the half-edges at the vertex must keep their order.

Every contract takes (additions, dropped, kept): the crossings found on the new
segments less those at a location to find again, the crossings on replaced
segments, and the candidate d2's kept analysis.  Each crossing is a (key_a,
key_b, frame) triple, no `Crossing`, a key being the (loop, leg, seg) of a
strand, in :class:`Crossing`'s order: an addition is addressed in d2, a dropped
crossing in d (a partner the pass did not meet again gets a key on no segment).
The locations to find again are the dropped ones, or none for a splice without
check_persistence (the jiggle), whose additions are then every crossing found.

Every builder splices through diagram._splice_points, and
diagram._apply_splice runs the checks above on the new segments only and
updates the kept analysis of the rest: that keeps long move chains cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

from .geometry import Point, Rat, _along, _ints, _plus, _point, _seam_step, circle_point, rat
from .diagram import (
    BouquetDiagram,
    MoveBlocked,
    _Splice,
    _apply_splice,
    _certain_addition,
    _generic_analysis,
    _key,
    _segment_gaps,
    _splice_points,
)
from .invariants import _canonical, _index_term

__all__ = [
    "MOVE_KINDS",
    "EDIT_KINDS",
    "MoveBlocked",
    "Exhausted",
    "MoveSpec",
    "EditSpec",
    "EditOutcome",
    "apply_move",
    "apply_edit",
    "apply_edit_outcome",
    "random_move",
    "random_move_applied",
    "random_edit",
]

MOVE_KINDS = ("KinkPair", "Detour", "FingerPush", "Jiggle", "Subdivide")
EDIT_KINDS = ("SingleKink", "SeamReroute")


class Exhausted(RuntimeError):
    """random_move gave up after its retry budget."""


def _format_params(params: tuple[Rat, ...]) -> str:
    return " ".join(f"{p.numerator}/{p.denominator}" for p in params)


def _parse_rat(token: str) -> Rat:
    num, slash, den = token.partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return rat(int(num), den)


@dataclass(frozen=True)
class _Spec:
    """One move or edit: a kind, a target (loop, leg, segment) and the
    kind-specific rationals listed in the module docstring.

    Subclasses fix the kinds they accept and the noun their errors use; a
    spec equals only specs of its own class.
    """

    kind: str
    loop: int
    leg: int
    segment: int
    params: tuple[Rat, ...]

    _kinds: ClassVar[tuple[str, ...]] = ()
    _noun: ClassVar[str] = ""

    def __post_init__(self):
        if self.kind not in self._kinds:
            raise ValueError(f"unknown {self._noun} kind {self.kind!r}")
        _, count = _BUILDERS[self.kind]
        if len(self.params) != count:
            raise ValueError(f"{self.kind} takes {count} params")
        if not all(isinstance(p, (Rat, int)) for p in self.params):
            raise ValueError(f"{self.kind} params must be rationals")
        if min(self.loop, self.leg, self.segment) < 0:
            raise ValueError("target indices must be non-negative")

    def to_line(self) -> str:
        return f"{self.kind} {self.loop} {self.leg} {self.segment} {_format_params(self.params)}"

    @classmethod
    def from_line(cls, line: str) -> "_Spec":
        tokens = line.split()
        if len(tokens) < 4:
            raise ValueError(f"malformed {cls._noun} line {line!r}")
        loop, leg, seg = (int(t) for t in tokens[1:4])
        return cls(tokens[0], loop, leg, seg, tuple(_parse_rat(t) for t in tokens[4:]))


class MoveSpec(_Spec):
    """One invariant-preserving move.

    `loop`, `leg`, `segment` address the spliced segment, except for Jiggle
    where the third index addresses the interior polyline point being moved.
    """

    _kinds = MOVE_KINDS
    _noun = "move"


class EditSpec(_Spec):
    """One deliberately non-regular edit (negative control)."""

    _kinds = EDIT_KINDS
    _noun = "edit"


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _get_segment(d: BouquetDiagram, loop: int, leg: int, seg: int) -> tuple[tuple, tuple]:
    """The ends of segment (loop, leg, seg) as int points."""
    try:
        a, b = d.segment(loop, leg, seg)
    except IndexError:
        raise MoveBlocked(f"no segment ({loop}, {leg}, {seg})") from None
    return _ints(a), _ints(b)


def _curl_points(a: tuple, b: tuple, t: Rat, w: Rat, h: Rat) -> tuple[Point, ...]:
    # one self-crossing between the first and last inserted segments, sign
    # -sign(h) before seam transport, located at a + t*e + (2h/3)*v: the points
    # a + s*e at s = t - w, t + w/2, t - w/2, t + w, the middle two moved by
    # h*v, for the int points a, b, e = b - a and v = (-ey, ex)
    exn, exd, eyn, eyd = _plus(b, a, -1, 1)
    v, kn, kd, sd = (-eyn, eyd, exn, exd), h.numerator, h.denominator, 2 * t.denominator * w.denominator
    tn, wn = 2 * t.numerator * w.denominator, w.numerator * t.denominator  # t = tn / sd, w = 2 * wn / sd
    return (_point(*_along(a, b, tn - 2 * wn, sd)), _point(*_plus(_along(a, b, tn + wn, sd), v, kn, kd)),
            _point(*_plus(_along(a, b, tn - wn, sd), v, kn, kd)), _point(*_along(a, b, tn + 2 * wn, sd)))


def _window_ok(lo: Rat, hi: Rat) -> bool:
    return 0 < lo < hi < 1


def _build_kink_pair(d, spec) -> _Splice:
    t1, t2, w, h = spec.params
    if h == 0 or not _window_ok(t1 - w, t1 + w) or not _window_ok(t2 - w, t2 + w) \
            or t1 + w >= t2 - w:
        raise MoveBlocked("kink windows must be disjoint and inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    inserted = _curl_points(a, b, t1, w, h) + _curl_points(a, b, t2, w, -h)

    def contract(additions: list[tuple], dropped, kept) -> str | None:
        if any(a[0] != spec.loop or b[0] != spec.loop for a, b, _ in additions):
            return "kink pair may only add self-crossings of the target loop"
        if sorted(_index_term(a[1], frame) for a, _, frame in additions) != [-1, 1]:
            return "kink pair crossings must have opposite signs"
        return None

    return _splice_points(d, spec.loop, spec.leg, spec.segment + 1, spec.segment + 1, (inserted,),
                          contract, (2, None, "kink pair must add exactly 2 crossings"))


def _build_single_kink(d, spec) -> _Splice:
    t, w, h = spec.params
    if h == 0 or not _window_ok(t - w, t + w):
        raise MoveBlocked("kink window must sit inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    inserted = _curl_points(a, b, t, w, h)

    def contract(additions: list[tuple], dropped, kept) -> str | None:
        if any(a[0] != spec.loop or b[0] != spec.loop for a, b, _ in additions):
            return "single kink may only add a self-crossing of the target loop"
        return None

    return _splice_points(d, spec.loop, spec.leg, spec.segment + 1, spec.segment + 1, (inserted,),
                          contract, (1, None, "single kink must add exactly 1 crossing"))


def _seam_exit(a: tuple, b: tuple, x: tuple, q: tuple, noun: str) -> tuple:
    """The int point after leaving segment ab at x straight through the seam
    point q, all int points; MoveBlocked if that path folds back along ab."""
    (exn, exd, eyn, eyd), g = _plus(b, a, -1, 1), _plus(q, x, -1, 1)
    # e x g and e . g, each times exd * eyd * gxd * gyd > 0
    ex, ey = exn * eyd, eyn * exd
    cross, dot = ex * g[2] * g[1] - ey * g[0] * g[3], ex * g[0] * g[3] + ey * g[2] * g[1]
    if not (g[0] or g[2]) or (cross == 0 and dot < 0):
        raise MoveBlocked(f"{noun} exit folds back on the segment")
    return _seam_step(q, g)


def _detour_points(d, spec) -> tuple[tuple, tuple, tuple]:
    """A Detour's target a, b and its excursion (x1, q), (-q, y1, r), (-r, z1,
    x2) in int points; MoveBlocked on a bad parameter."""
    sig_raw, t, w, uq, ur = spec.params
    if sig_raw not in (1, -1):
        raise MoveBlocked("detour sign must be +1 or -1")
    if not _window_ok(t - w, t + w):
        raise MoveBlocked("detour window must sit inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    q, r = _ints(circle_point(uq)), _ints(circle_point(ur))  # in lowest terms, so equal as the points
    nq, nr = ((-x, c, -y, c) for x, c, y, _ in (q, r))  # -q and -r
    if r == q or r == nq:
        raise MoveBlocked("detour seam transitions must be distinct and non-antipodal")
    (tn, td), (wn, wd) = (t.numerator, t.denominator), (w.numerator, w.denominator)
    x1 = _along(a, b, 4 * tn * wd + wn * td, 4 * td * wd)  # at t + w / 4
    y1 = _seam_exit(a, b, x1, q, "detour")
    # y1 is inside the disk (x1 is) and r on the circle, so r - y1 is never 0
    z1 = _seam_step(r, _plus(r, y1, -1, 1))
    return a, b, ((x1, q), (nq, y1, r), (nr, z1, _along(a, b, 4 * tn * wd + 3 * wn * td, 4 * td * wd)))


def _build_detour(d, spec) -> _Splice:
    a, b, excursion = _detour_points(d, spec)
    sigma, t, w = int(spec.params[0]), spec.params[1], spec.params[2]
    # curl side chosen so each curl contributes sigma at orientation +1
    hsign = -sigma if spec.leg % 2 == 0 else sigma
    h = (w / 8) * hsign
    curl_a = _curl_points(a, b, t - 3 * w / 4, w / 8, h)
    curl_b = _curl_points(a, b, t - w / 4, w / 8, h)

    def contract(additions: list[tuple], dropped, kept) -> str | None:
        if any(_index_term(a[1], frame) != sigma for a, b, frame in additions
               if a[0] == spec.loop and b[0] == spec.loop):
            return "detour curls must both carry the requested sign"
        return None

    first, *rest = (tuple(_point(*p) for p in chain) for chain in excursion)
    chains = (curl_a + curl_b + first, *rest)
    return _splice_points(d, spec.loop, spec.leg, spec.segment + 1, spec.segment + 1, chains,
                          contract, (2, spec.loop, "detour must add exactly 2 self-crossings"))


def _build_seam_reroute(d, spec) -> _Splice:
    t, w, uq = spec.params
    lo, hi = t - w, t + w
    if not _window_ok(lo, hi):
        raise MoveBlocked("reroute window must sit inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    q = circle_point(uq)
    x1, x2 = _along(a, b, lo.numerator, lo.denominator), _along(a, b, hi.numerator, hi.denominator)
    z1 = _seam_exit(a, b, x1, _ints(q), "reroute")
    # created crossings are unconstrained: the edit's index damage is reported,
    # not controlled
    return _splice_points(d, spec.loop, spec.leg, spec.segment + 1, spec.segment + 1,
                          ((_point(*x1), q), (-q, _point(*z1), _point(*x2))), None)


def _finger_points(d, spec) -> tuple[tuple[int, int, int], tuple]:
    """The chosen strand's (loop, leg, seg) and the inserted int points (x1,
    f1, f2, x2) of a FingerPush; MoveBlocked on a bad parameter."""
    t, w, loop2_r, leg2_r, seg2_r, s2, reach = spec.params
    for v in (loop2_r, leg2_r, seg2_r):
        if v.denominator != 1 or v < 0:
            raise MoveBlocked("finger push strand indices must be non-negative integers")
    loop2, leg2, seg2 = int(loop2_r), int(leg2_r), int(seg2_r)
    lo, hi = t - w, t + w
    if not _window_ok(lo, hi) or not (0 < s2 < 1) or reach <= 0:
        raise MoveBlocked("finger push window parameters out of range")
    if (loop2, leg2, seg2) == (spec.loop, spec.leg, spec.segment):
        raise MoveBlocked("cannot push a segment across itself")
    if loop2 == spec.loop and leg2 == spec.leg and abs(seg2 - spec.segment) == 1:
        raise MoveBlocked("cannot push across an adjacent segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    c, dd = _get_segment(d, loop2, leg2, seg2)
    (exn, exd, eyn, eyd), center = _plus(b, a, -1, 1), _along(a, b, t.numerator, t.denominator)
    v = _plus(_along(c, dd, s2.numerator, s2.denominator), center, -1, 1)  # to the target on the strand
    if not (v[0] or v[2]) or exn * eyd * v[2] * v[1] == eyn * exd * v[0] * v[3]:  # v zero or parallel to e
        raise MoveBlocked("finger direction is degenerate")
    x1, x2 = _along(a, b, lo.numerator, lo.denominator), _along(a, b, hi.numerator, hi.denominator)
    k = (reach.numerator + reach.denominator, reach.denominator)  # each finger reaches 1 + reach times v
    return (loop2, leg2, seg2), (x1, _plus(x1, v, *k), _plus(x2, v, *k), x2)


def _build_finger_push(d, spec) -> _Splice:
    (loop2, leg2, seg2), inserted = _finger_points(d, spec)
    # the chosen strand moves along only if it lies later on the pushed leg
    later = (loop2, leg2) == (spec.loop, spec.leg) and seg2 > spec.segment
    expected_other = (loop2, leg2, seg2 + len(inserted) if later else seg2)
    vertical_keys = {(spec.loop, spec.leg, spec.segment + 1), (spec.loop, spec.leg, spec.segment + 3)}

    def contract(additions: list[tuple], dropped, kept) -> str | None:
        seen_verticals = set()
        for a, b, _ in additions:
            sides = {a, b}
            # so across another loop, no addition is a self-crossing
            if expected_other not in sides:
                return "finger push crossing misses the chosen strand"
            seen_verticals |= sides & vertical_keys
        if len(seen_verticals) != 2:
            return "finger push must cross the strand with both fingers"
        if loop2 == spec.loop and sum(_index_term(a[1], frame) for a, _, frame in additions) != 0:
            return "same-loop finger push crossings must cancel"
        return None

    return _splice_points(d, spec.loop, spec.leg, spec.segment + 1, spec.segment + 1,
                          (tuple(_point(*p) for p in inserted),), contract,
                          (2, None, "finger push must add exactly 2 crossings"))


def _build_subdivide(d, spec) -> _Splice:
    (t,) = spec.params
    if not (0 < t < 1):
        raise MoveBlocked("subdivision point must be interior")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    inserted = (_point(*_along(a, b, t.numerator, t.denominator)),)
    # no contract: the halves refind every crossing of the old segment
    return _splice_points(d, spec.loop, spec.leg, spec.segment + 1, spec.segment + 1, (inserted,),
                          None, (0, None, "subdividing must not create crossings"))


# ---------------------------------------------------------------------------
# jiggle (point move, no insertion)
# ---------------------------------------------------------------------------

def _build_jiggle(d: BouquetDiagram, spec: MoveSpec) -> _Splice:
    dx, dy = spec.params
    loop, k, idx = spec.loop, spec.leg, spec.segment
    try:
        legs = d.loops[loop].legs
        pts = legs[k].points
    except IndexError:
        raise MoveBlocked(f"no leg ({loop}, {k})") from None
    if not (1 <= idx <= len(pts) - 2):
        raise MoveBlocked("only interior polyline points can be jiggled")
    moved = pts[idx] + Point(dx, dy)
    # only a point next to V moves a half-edge, and only one of them (a
    # three-point one-leg loop is codirectional at V); moving one of 2n
    # half-edges can reorder the star but never reverse it, so the canonical
    # word decides as a comparison of rotations would
    next_to_v = (k, idx) in ((0, 1), (len(legs) - 1, len(pts) - 2))

    def contract(additions: list[tuple], dropped, kept) -> str | None:
        if sorted(additions) != sorted(dropped):
            return "jiggle would change the crossing pattern"
        if next_to_v and _canonical(kept.star) != _canonical(_generic_analysis(d).star):
            return "jiggle would reorder the vertex star"
        return None

    return _splice_points(d, loop, k, idx, idx + 1, ((moved,),), contract, check_persistence=False)


# ---------------------------------------------------------------------------
# public application
# ---------------------------------------------------------------------------

# kind -> (builder, parameter count), the parameters listed in order
_BUILDERS = {
    "KinkPair": (_build_kink_pair, 4),        # t1 t2 w h
    "Detour": (_build_detour, 5),             # sigma t w uq ur
    "FingerPush": (_build_finger_push, 7),    # t w loop2 leg2 seg2 s2 reach
    "Jiggle": (_build_jiggle, 2),             # dx dy  (target's third index is the point)
    "Subdivide": (_build_subdivide, 1),       # t
    "SingleKink": (_build_single_kink, 3),    # t w h
    "SeamReroute": (_build_seam_reroute, 3),  # t w uq
}


@dataclass(frozen=True)
class EditOutcome:
    """Result of a control edit plus its promised invariant damage.

    `parity_flip` is the predicted change (0 or 1) to the edited loop's
    index-parity bit: the parity of the number of self-crossings the edit
    created.  Pre-existing crossings only ever have their signed-index
    contribution flipped by +-2, which cannot move the parity.
    """

    diagram: BouquetDiagram
    loop: int
    created_self: int

    @property
    def parity_flip(self) -> int:
        return self.created_self % 2


def apply_move(d: BouquetDiagram, spec: MoveSpec) -> BouquetDiagram:
    """Apply an invariant-preserving move; raise MoveBlocked if illegal here.

    The returned diagram is freshly validated (incrementally) and carries its
    updated crossing analysis, so chains of moves stay cheap.
    """
    if not isinstance(spec, MoveSpec):
        raise TypeError(f"a move needs a MoveSpec, got {type(spec).__name__}")
    d2, _ = _apply_splice(d, _BUILDERS[spec.kind][0](d, spec))
    return d2


def apply_edit_outcome(d: BouquetDiagram, spec: EditSpec) -> EditOutcome:
    """Apply a control edit and report the self-crossings it created."""
    if not isinstance(spec, EditSpec):
        raise TypeError(f"an edit needs an EditSpec, got {type(spec).__name__}")
    d2, additions = _apply_splice(d, _BUILDERS[spec.kind][0](d, spec))
    created = sum(1 for a, b, _ in additions if a[0] == spec.loop and b[0] == spec.loop)
    return EditOutcome(d2, spec.loop, created)


def apply_edit(d: BouquetDiagram, spec: EditSpec) -> BouquetDiagram:
    """Apply a non-regular control edit; raise MoveBlocked if illegal here."""
    return apply_edit_outcome(d, spec).diagram


# ---------------------------------------------------------------------------
# random proposals
# ---------------------------------------------------------------------------

def _free_window(d, rng: random.Random, key) -> tuple[Rat, Rat]:
    """A (center, halfwidth) window on the segment avoiding existing crossings.

    The gaps of [0, 1] are never empty, and center -+ half lies within
    lo + (3/20, 17/20) * width, so inside its gap and inside (0, 1)."""
    gaps = _segment_gaps(d, key)
    lo, hi = gaps[rng.randrange(len(gaps))]
    # lo + width * k / 20 and width * m / 20 over 20 * lo.den * hi.den
    den = 20 * lo.denominator * hi.denominator
    width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    center = Rat(20 * lo.numerator * hi.denominator + width * rng.randrange(7, 14), den)
    return center, Rat(width * rng.randrange(2, 5), den)


def _rand_rat(rng: random.Random, lo_num: int, hi_num: int, den: int) -> Rat:
    return rat(rng.randrange(lo_num, hi_num), den)


def _extent(a: Point, b: Point) -> tuple[int, int]:
    """max(|bx - ax|, |by - ay|) as an unreduced (n, d), d > 0."""
    xn, xd = abs(b.xn * a.xd - a.xn * b.xd), a.xd * b.xd
    yn, yd = abs(b.yn * a.yd - a.yn * b.yd), a.yd * b.yd
    return (xn, xd) if xn * yd >= yn * xd else (yn, yd)


def _outward_u(p: tuple, rng: random.Random) -> Rat | None:
    """Tan-half-angle of roughly the outward radial direction at the int point p.

    Float arithmetic here only steers the proposal; all applied geometry
    stays exact.  Returns None near the vertex or near the left pole, where
    the caller falls back to uniform sampling.
    """
    fx, fy = p[0] / p[1], p[2] / p[3]
    norm = (fx * fx + fy * fy) ** 0.5
    if norm < 1e-9:
        return None
    den = norm + fx
    if abs(den) < 1e-9:
        return None
    u = fy / den
    if abs(u) > 12:
        return None
    return rat(round(u * 64) + rng.randrange(-6, 7), 64)


def _seam_u(d: BouquetDiagram, rng: random.Random, key, center: Rat) -> Rat:
    """Tan-half-angle of a seam exit for a window centred at `center` on
    segment `key`: mostly roughly outward from there, otherwise uniform."""
    uq = None
    if rng.random() < 0.75:
        uq = _outward_u(_along(*_get_segment(d, *key), center.numerator, center.denominator), rng)
    if uq is None:
        uq = _rand_rat(rng, -48, 49, 16)
    return uq


def _propose_move(d: BouquetDiagram, rng: random.Random) -> MoveSpec | None:
    kind = rng.choices(MOVE_KINDS, weights=(24, 14, 20, 27, 15))[0]
    # records are in iter_segments order, so this draws what a list of keys did
    records = _generic_analysis(d).records
    i = rng.randrange(len(records))
    loop, leg, seg = _key(d, i)

    if kind == "Jiggle":
        lp = d.loops[loop]
        pts = lp.legs[leg].points
        if len(pts) < 3:
            return None
        idx = rng.randrange(1, len(pts) - 1)
        # moving a point next to a seam endpoint always breaks the joint
        if idx == 1 and leg > 0:
            return None
        if idx == len(pts) - 2 and leg < len(lp.legs) - 1:
            return None
        # the scale: the lesser of the two segments' extents, as sn / sd
        (n1, d1), (n2, d2) = _extent(pts[idx - 1], pts[idx]), _extent(pts[idx], pts[idx + 1])
        sn, sd = (n1, d1) if n1 * d2 <= n2 * d1 else (n2, d2)
        dx = Rat(sn * rng.randrange(-40, 41), 256 * sd)  # scale times a random k / 256
        dy = Rat(sn * rng.randrange(-40, 41), 256 * sd)
        if dx == 0 and dy == 0:
            return None
        return MoveSpec("Jiggle", loop, leg, idx, (dx, dy))

    center, half = _free_window(d, rng, (loop, leg, seg))

    if kind == "Subdivide":
        return MoveSpec("Subdivide", loop, leg, seg, (center,))

    if kind == "KinkPair":
        w = half / 4
        t1 = center - half / 2
        t2 = center + half / 2
        h = w * rat(rng.choice([-1, 1]), 4)
        return MoveSpec("KinkPair", loop, leg, seg, (t1, t2, w, h))

    if kind == "Detour":
        sigma = rng.choice([1, -1])
        uq = _seam_u(d, rng, (loop, leg, seg), center)
        if uq == 0:
            return None
        tilt = rat(rng.choice([-1, 1]) * rng.randrange(1, 12), 96)
        ur = -1 / uq + tilt
        return MoveSpec("Detour", loop, leg, seg, (rat(sigma), center, half, uq, ur))

    # FingerPush: aim at some other strand, skipping the block records[lo:hi]
    # of the chosen segment and its neighbours on the same leg
    lo = i - 1 if seg else i
    hi = i + 2 if seg + 2 < len(d.loops[loop].legs[leg].points) else i + 1
    if len(records) == hi - lo:
        return None
    j = rng.randrange(len(records) - (hi - lo))
    loop2, leg2, seg2 = _key(d, j if j < lo else j + hi - lo)
    s2 = _rand_rat(rng, 5, 16, 20)
    reach = _rand_rat(rng, 2, 9, 16)
    w = half / 2
    return MoveSpec("FingerPush", loop, leg, seg,
                    (center, w, rat(loop2), rat(leg2), rat(seg2), s2, reach))


def _propose_edit(d: BouquetDiagram, kinds: tuple[str, ...], rng: random.Random) -> EditSpec | None:
    kind = kinds[rng.randrange(len(kinds))]
    loop, leg, seg = _key(d, rng.randrange(len(_generic_analysis(d).records)))
    center, half = _free_window(d, rng, (loop, leg, seg))
    if kind == "SingleKink":
        w = half / 2
        return EditSpec(kind, loop, leg, seg, (center, w, w * rat(rng.choice([-1, 1]), 4)))
    uq = _seam_u(d, rng, (loop, leg, seg), center)
    return EditSpec(kind, loop, leg, seg, (center, half, uq)) if uq else None


# A walk drops unbuilt each proposal that one of three rules proves blocked;
# apply_move decides the rest and names the first certain violation.  The
# rules read the template's int points exactly, or as floats where _B makes
# them certain (_certain_addition), so a proposal they decide builds no `Rat`.
# Each chord a rule tests is a new segment of the splice, not at V, whose
# neighbours are new, so the scan pairs it with every kept record and every
# new segment but its neighbours (see _skip_pair).  A crossing at a location
# on the target segment is left out, as the scan finds it again instead of
# counting it; any other would be an addition of a splice that passed:
# * Detour: each curl adds one self-crossing of the target loop, off the
#   target's line (h is not 0).  A chord crossing another chord or a record
#   of the target loop makes a third, so the count of 2 fails, if no check
#   fails before it ("two crossings would coincide" at a curl's location).
# * FingerPush, point outside: f1 and f2 are interior points of the leg, so
#   the structural check reports the one on or outside the circle.
# * FingerPush, wrong strand: a finger chord (segment + 1 .. segment + 3)
#   crossing a record other than the target and the chosen strand is an
#   addition without the chosen strand: "misses the chosen strand", if the
#   count of 2 does not fail first.

def _certainly_blocked(d: BouquetDiagram, spec: MoveSpec) -> bool:
    """Whether a rule above proves apply_move(d, spec) blocked, d valid;
    False is no verdict."""
    key = (spec.loop, spec.leg, spec.segment)
    try:
        if spec.kind == "Detour":
            _, _, chains = _detour_points(d, spec)
            return _certain_addition(d, key, [c for ch in chains for c in zip(ch, ch[1:])], spec.loop)
        if spec.kind == "FingerPush":
            strand, (x1, f1, f2, x2) = _finger_points(d, spec)
            return (any((xn * yd) ** 2 + (yn * xd) ** 2 >= (xd * yd) ** 2 for xn, xd, yn, yd in (f1, f2))
                    or _certain_addition(d, key, ((x1, f1), (f1, f2), (f2, x2)), spared=strand))
    except MoveBlocked:
        pass
    return False


_RETRY_BUDGET = 10_000


def _first_legal(noun: str, seed: int, propose, apply, blocked=None) -> tuple:
    """(spec, apply(spec)) for the first proposal that applies, drawing the
    proposals from the seeded stream of `noun` and dropping unbuilt those that
    `blocked` proves blocked; Exhausted past the budget."""
    rng = random.Random(f"rp2bouquet-{noun}:{seed}")
    for _ in range(_RETRY_BUDGET):
        spec = propose(rng)
        if spec is not None and not (blocked and blocked(spec)):
            try:
                return spec, apply(spec)
            except MoveBlocked:
                pass
    raise Exhausted(f"no legal {noun} found in {_RETRY_BUDGET} attempts (seed {seed})")


def random_move_applied(d: BouquetDiagram, seed: int) -> tuple[MoveSpec, BouquetDiagram]:
    """Deterministically propose and apply one legal random move."""
    return _first_legal("move", seed, partial(_propose_move, d), partial(apply_move, d),
                        partial(_certainly_blocked, d))


def random_move(d: BouquetDiagram, seed: int) -> MoveSpec:
    """A random move that is guaranteed to apply legally to d.

    Deterministic in (d, seed); retries internally and raises
    :class:`Exhausted` after 10000 failed proposals.
    """
    spec, _ = random_move_applied(d, seed)
    return spec


def random_edit(d: BouquetDiagram, seed: int, kind: str | None = None) -> tuple[EditSpec, EditOutcome]:
    """Deterministically propose and apply one legal random control edit."""
    if kind is not None and kind not in EDIT_KINDS:
        raise ValueError(f"unknown edit kind {kind!r}")
    kinds = EDIT_KINDS if kind is None else (kind,)
    return _first_legal("edit", seed, partial(_propose_edit, d, kinds), partial(apply_edit_outcome, d))
