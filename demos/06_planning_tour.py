#!/usr/bin/env python3
"""Pick modes for a queue of objects, minimizing total switching rotation.

The planner matches finger surfaces to the declared object faces (curved
faces prefer the complementary curvature, flat takes flat), drops convex
fingers for small objects, and among the fitting modes takes the one
nearest in the one-way switching cycle.  Objects nothing fits get the
deformable surface.
"""

import math

from multigrip import (DEFAULT_COUNTS, DEFAULT_GEARS, build_mode_table,
                       select_mode, switch_interval)
from multigrip.planner import ObjectFace, ObjectFaces

QUEUE = [
    ("thin plate", ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 30.0)),
    ("large cylinder", ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0)),
    ("molded tray pocket", ObjectFaces(ObjectFace.CONCAVE, ObjectFace.CONCAVE, 25.0)),
    ("tiny dowel", ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 6.0)),
    ("cast bracket", ObjectFaces(ObjectFace.COMPLEX, ObjectFace.COMPLEX, 28.0)),
]


def main() -> None:
    table = build_mode_table(DEFAULT_COUNTS)
    interval = switch_interval(DEFAULT_GEARS, DEFAULT_COUNTS)
    k_now = 1
    total = 0.0
    for name, faces in QUEUE:
        plan = select_mode(faces, k_now, table, interval)
        s3, s4 = table.entry(plan.k_goal)
        print(f"{name:<20} -> {table.label(plan.k_goal):<5} ({s3} | {s4})  "
              f"rotation {math.degrees(plan.rotation):6.1f} deg"
              f"{'  [deformable fallback]' if plan.fallback_used else ''}")
        for line in plan.rationale:
            print(f"    {line}")
        total += plan.rotation
        k_now = plan.k_goal
    print(f"\ntotal switching rotation for the queue: {math.degrees(total):.1f} deg")


if __name__ == "__main__":
    main()
