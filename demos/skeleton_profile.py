"""One bump, three displays: staircase, linear panels, buckled skeleton.

Renders a raised-cosine fingertip bump whose peak falls awkwardly between
two pixels of a 1D display and compares what each reconstruction actually
shows.  The pixel-only display parks the peak on the wrong pixel, the
linear display kinks, and the end-compressed skeleton threads the pixels
with a smooth elastica whose peak lands close to the target.

Writes the sampled profiles as CSV when --out is given.
"""
import argparse
import csv
import sys

import numpy as np

from crslab.distortion import find_peak
from crslab.fields import BumpField1D, bump1d, make_lattice
from crslab.reconstruct import (
    CrsProfile1D,
    LinearProfile1D,
    NearestProfile,
    sample_pixels,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pitch", type=float, default=30.0,
                    help="pixel spacing in mm (default 30)")
    ap.add_argument("--peak", type=float, default=43.0,
                    help="target peak position in mm (default 43, "
                    "i.e. 13 mm past a pixel)")
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    wavelength = 90.0
    lat = make_lattice("line", args.pitch, (0.0, 120.0))
    fld = BumpField1D(args.peak, 9.0, wavelength)
    heights = sample_pixels(fld, lat)

    print("line display: pixels at", ", ".join("%g" % p for p in lat.positions))
    print("target: 9 mm bump, wavelength %g mm, peak at %g mm"
          % (wavelength, args.peak))
    print("pixel heights: " + ", ".join("%5.2f" % h for h in heights))
    print()

    profiles = {
        "pixel-only": NearestProfile(heights, lat),
        "linear": LinearProfile1D(heights, lat),
        "crs": CrsProfile1D(fld, lat),
    }

    # ==================================================================
    # where does each display put the peak, and how wrong is the shape?
    # ==================================================================
    xs = np.linspace(*lat.hull_bounds(), 1201)
    ideal = bump1d(xs, fld)
    print("%-11s %9s %11s %11s" % ("model", "peak mm", "offset mm",
                                   "shape err"))
    for name, prof in profiles.items():
        pk = find_peak(prof)
        shown = prof.extended(xs)
        num = np.trapezoid((shown - ideal) ** 2, xs)
        den = np.trapezoid(ideal ** 2, xs)
        note = " (plateau)" if pk.plateau else ""
        print("%-11s %9.2f %11.2f %11.3f%s"
              % (name, pk.location, pk.location - args.peak,
                 float(np.sqrt(num / den)), note))

    crs = profiles["crs"]
    print()
    print("the skeleton needed %.3f mm of end compression to buckle over"
          % crs.solution.excess)
    print("the pixels; its peak overshoots the tallest pixel by %.2f mm."
          % (find_peak(crs).height - np.max(heights)))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x_mm", "ideal", "pixel_only", "linear", "crs"])
            cols = [profiles[k].extended(xs)
                    for k in ("pixel-only", "linear", "crs")]
            for row in zip(xs, ideal, *cols):
                w.writerow(["%.6g" % v for v in row])
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
