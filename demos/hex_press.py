"""A fingertip press on the 19-pixel hexagonal skeleton display.

Drops a 6 mm press at an off-centre point, plans the boundary compression
for each of the 15 skeleton beams, and compares where the pixel-only and
CRS displays put the peak.  Every beam gets exactly the arc excess of the
target surface along its line, fed from whichever end is closer to the
bump.
"""
import numpy as np

from crslab.control import ServoSpec, compression_plan, render_target
from crslab.control import FingertipSample
from crslab.distortion import find_peak
from crslab.fields import make_lattice
from crslab.reconstruct import CrsSurface2D, NearestProfile, sample_pixels


def main():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    press = FingertipSample(t_ms=0.0, x_f=7.0, y_f=-13.0, z_f=6.0)
    fld = render_target(press)

    print("hexagonal display: %d pixels, pitch 30 mm, %d beams"
          % (lat.n_pixels, len(lat.beam_lines())))
    print("press: %g mm deep at (%g, %g)" % (press.z_f, press.x_f, press.y_f))
    print()

    # ==================================================================
    # boundary compression plan
    # ==================================================================
    plan = compression_plan(fld, lat.beam_lines(), ServoSpec())
    active = [(n, e, ends) for n, e, ends in
              zip(plan.beam_names, plan.excess, plan.ends) if e > 0.0]
    print("compression plan (%d of %d beams active)"
          % (len(active), len(plan.beam_names)))
    print("%-6s %11s %10s %10s" % ("beam", "excess mm", "feed A", "feed B"))
    for name, e, ends in active:
        print("%-6s %11.3f %10.3f %10.3f" % (name, e, ends[0], ends[1]))
    asym = max(max(ends) / max(e, 1e-12) for _, e, ends in active)
    print("most lopsided feed takes %.0f%% from one end" % (100 * asym))
    print()

    # ==================================================================
    # displayed peak, pixel-only vs skeleton
    # ==================================================================
    target = np.array([press.x_f, press.y_f])
    stair = NearestProfile(sample_pixels(fld, lat), lat)
    pk = find_peak(stair)
    err = float(np.linalg.norm(np.asarray(pk.location) - target))
    print("pixel-only peak at (%.1f, %.1f), %.1f mm off target"
          % (pk.location[0], pk.location[1], err))

    crs = CrsSurface2D(fld, lat)
    pk = find_peak(crs)
    err = float(np.linalg.norm(np.asarray(pk.location) - target))
    print("skeleton   peak at (%.1f, %.1f), %.1f mm off target"
          % (pk.location[0], pk.location[1], err))
    print()
    print("the skeleton interpolates along its beams, so the displayed")
    print("summit moves off the pixel sites and tracks the press.")


if __name__ == "__main__":
    main()
