from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from rp2bouquet import BouquetDiagram, Leg, LoopPath, pt
from rp2bouquet.diagram import _make_seg

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
    return _make_seg(li, a, b, (a.x.numerator / a.x.denominator, a.y.numerator / a.y.denominator),
                     (b.x.numerator / b.x.denominator, b.y.numerator / b.y.denominator))


def segment_records(d):
    """Records of every segment in (loop, leg, seg) order, from the points
    alone: the reference for the records the structural check builds."""
    return [record(li, a, b) for li, _, _, a, b in d.iter_segments()]


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
