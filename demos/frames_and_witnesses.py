"""Module frames and positivity witnesses.

build_frame needs the critical points to stay away from the sampled Julia
set; z^2 and z^6 qualify, z^2 - 2 does not (the frame call refuses). The
number of arcs comes from the closest sampled fiber mates: 8 on z^2, more
on z^6, whose mates sit about 2 pi / 6 apart.
The witness construction works either way since it only needs backward
expansion.
"""

from ratdyn.bimodule import (
    GraphFunction,
    build_frame,
    frame_delta_defect,
    frame_reconstruction_defect,
    normalized_witness,
)
from ratdyn.errors import FrameUnavailable
from ratdyn.julia import sample_inverse_iteration
from ratdyn.ratmap import RationalMap
from ratdyn.transfer import TestFunction

z2 = RationalMap([0, 0, 1], [1])
zm2 = RationalMap([-2, 0, 1], [1])

cloud = sample_inverse_iteration(z2, 0.9 + 0.3j, count=4000, seed=0)
frame = build_frame(z2, cloud)
probes = cloud.points[::100]
f = GraphFunction(1, TestFunction.monomial(1))
print(f"frame on z^2: {len(frame.members)} members")
print(f"  delta defect          {frame_delta_defect(z2, frame, probes):.2e}")
print(f"  reconstruction defect "
      f"{frame_reconstruction_defect(z2, frame, f, cloud.points[::200]):.2e}")

z6 = RationalMap([0] * 6 + [1], [1])
cloud6 = sample_inverse_iteration(z6, 0.9 + 0.3j, count=2000, seed=0)
frame6 = build_frame(z6, cloud6)
print(f"frame on z^6: {len(frame6.members)} members")
print(f"  delta defect          "
      f"{frame_delta_defect(z6, frame6, cloud6.points[::100]):.2e}")

cloud2 = sample_inverse_iteration(zm2, 1.3, count=4000, seed=0)
try:
    build_frame(zm2, cloud2)
except FrameUnavailable as e:
    print(f"frame on z^2 - 2 refused: {e}")

# witness: a strictly positive a, an eps margin, and a u with (u|au) = 1
a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.25, (0, 1): 0.25})
u, rep = normalized_witness(zm2, a, 0.2, cloud2,
                            probe_ys=cloud2.points[::20])
print(f"witness on z^2 - 2: expansion time n = {rep['n']}, "
      f"|a| = {rep['norm_a']:.4f}")
print(f"  (u|au) in [{rep['uau_min']:.12f}, {rep['uau_max']:.12f}]")
print(f"  |u|_2 = {rep['norm_two_u']:.6f} <= {rep['norm_two_bound']:.6f}")
