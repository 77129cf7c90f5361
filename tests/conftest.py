from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from rp2bouquet import BouquetDiagram, Crossing, Leg, LoopPath, pt
from rp2bouquet.cli import _PALETTE, _SEAM_MARK, _fmt
from rp2bouquet.diagram import _Seg, crossings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"


def record(li, a, b):
    """The record of segment [a, b] of loop li, its floats n / d (float()'s
    value, correctly rounded), as the structural check gives them."""
    return _Seg(li, a, b, (a.x.numerator / a.x.denominator, a.y.numerator / a.y.denominator),
                (b.x.numerator / b.x.denominator, b.y.numerator / b.y.denominator))


def segment_records(d):
    """Records of every segment in (loop, leg, seg) order, from the points
    alone: the reference for the records the structural check builds."""
    return [record(li, a, b) for li, _, _, a, b in d.iter_segments()]


def reference_svg(d):
    """The SVG of render_svg, drawn from the diagram's points and the public
    crossing tuple, sorted here by Crossing.sort_key so that the order is not
    taken from the function render_svg shares with crossings(d): the reference
    for render_svg, which reads the kept analysis.  Raises InvalidDiagram (via
    crossings) for an invalid d."""
    def xy(p):
        return f"{_fmt(p.x)},{_fmt(-p.y)}"

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
           'viewBox="-1.15 -1.15 2.3 2.3">',
           '<rect x="-1.15" y="-1.15" width="2.3" height="2.3" fill="white"/>',
           '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" '
           'stroke-width="0.012" stroke-dasharray="0.05,0.035"/>']
    for li, loop in enumerate(d.loops):
        color = _PALETTE[li % len(_PALETTE)]
        for leg in loop.legs:
            points = " ".join(xy(p) for p in leg.points)
            out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                       'stroke-width="0.014" stroke-linejoin="round"/>')
        for leg in loop.legs[:-1]:
            x, y = float(leg.points[-1].x), float(leg.points[-1].y)
            for mx, my in ((x, y), (-x, -y)):
                out.append(f'<rect x="{_fmt(mx - _SEAM_MARK)}" y="{_fmt(-my - _SEAM_MARK)}" '
                           f'width="{_fmt(2 * _SEAM_MARK)}" height="{_fmt(2 * _SEAM_MARK)}" '
                           f'fill="{color}" stroke="black" stroke-width="0.006"/>')
    for c in sorted(crossings(d), key=Crossing.sort_key):
        out.append(f'<circle cx="{_fmt(c.location.x)}" cy="{_fmt(-c.location.y)}" r="0.022" '
                   'fill="none" stroke="black" stroke-width="0.01"/>')
    out.append(f'<circle cx="{_fmt(d.vertex.x)}" cy="{_fmt(-d.vertex.y)}" r="0.025" '
               'fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def chord() -> BouquetDiagram:
    """One loop through the seam along the x axis: h=1, no crossings."""
    return BouquetDiagram(1, pt(0, 0), (
        LoopPath((Leg((pt(0, 0), pt(1, 0))), Leg((pt(-1, 0), pt(0, 0))))),
    ))


@pytest.fixture
def quad() -> BouquetDiagram:
    """One embedded quadrilateral loop: h=0, w=0, no crossings."""
    return BouquetDiagram(1, pt(0, 0), (
        LoopPath((Leg((pt(0, 0), pt("1/2", "-1/8"), pt("1/2", "1/2"),
                       pt("-1/8", "1/2"), pt(0, 0))),)),
    ))


@pytest.fixture
def wedge() -> BouquetDiagram:
    """Two interleaved loops (word e1,e2,e1^-1,e2^-1) with one crossing."""
    l1 = LoopPath((Leg((pt(0, 0), pt("3/8", 0), pt(0, "-5/8"), pt("-3/8", 0), pt(0, 0))),))
    l2 = LoopPath((Leg((pt(0, 0), pt(0, "3/8"), pt("5/8", 0), pt(0, "-3/8"), pt(0, 0))),))
    return BouquetDiagram(2, pt(0, 0), (l1, l2))
