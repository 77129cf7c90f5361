#!/usr/bin/env python3
"""Render an SVG gallery: normal forms per class plus the sample diagrams.

Writes one SVG per invariant class for the requested loop count (all classes
for n <= 2, a seeded sample for n = 3) and one per JSON file in the sample
data directory that is valid, so move and realization changes can be
inspected visually.
"""

import argparse
import sys
from pathlib import Path

from rp2bouquet import enumerate_classes, loads, realize
from rp2bouquet.cli import render_svg
from rp2bouquet.normal_form import random_tuple


def safe_name(text: str) -> str:
    return (text.replace("order=", "").replace("; ", "_").replace("=", "")
            .replace(",", "-").replace("^-1", "i"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1, help="loop count for the class gallery")
    ap.add_argument("--sample", type=int, default=12,
                    help="number of sampled classes when full enumeration is large")
    ap.add_argument("--data", default=str(Path(__file__).resolve().parents[1] / "tests" / "data"),
                    help="directory of diagram JSON files to include")
    ap.add_argument("--out", default="gallery", help="output directory (default gallery)")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    classes = enumerate_classes(args.n)
    if len(classes) > args.sample:
        classes = [random_tuple(args.n, seed) for seed in range(args.sample)]
        classes = sorted(set(classes), key=lambda t: (t.order.symbols, t.h, t.w))
    for t in classes:
        path = outdir / f"normal_{safe_name(t.text())}.svg"
        path.write_text(render_svg(realize(t)))
        print(f"wrote {path}")

    data_dir = Path(args.data)
    for json_path in sorted(data_dir.glob("*.json")):
        try:
            svg = render_svg(loads(json_path.read_text()))
        except ValueError:  # malformed JSON, or an invalid diagram (InvalidDiagram)
            continue
        path = outdir / f"sample_{json_path.stem}.svg"
        path.write_text(svg)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
