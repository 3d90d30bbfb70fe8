"""`cli-cold`: a fixed cycle of CLI subcommands, each in a fresh interpreter.

The user pays interpreter start and `import multigrip` on every op.  Each
child runs `multigrip.cli.main` with `src` on PYTHONPATH; its stdout must
be non-empty and equal, byte for byte, to in-process `cli.dispatch` on the
same arguments.  Three of the nine ops per cycle classify a polygon pair
that the caging search decides (one each of box, complex bracket and thin
plate, in seeded order), so the first-use imports of the caging path land
in the tail and p90 sits inside that class.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys

from common import OpFailed

from multigrip import cli

# The child reports its own peak RSS (VmHWM of the image it exec'd) on exit;
# the kernel's ru_maxrss for a child also counts the parent image it was
# forked from, which here is the client with its in-process runs.
CHILD = """import atexit, sys
def _peak():
    with open("/proc/self/status", encoding="ascii") as fh:
        sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
atexit.register(_peak)
from multigrip.cli import main
main()
"""
_LAUNCH_TIMEOUT_S = 60
CAGING_PAIRS = (("box", 5), ("complex_bracket", 5), ("thin_plate", 5))


class CliCold:
    def __init__(self, seed: int, root: str):
        self.root = root
        self.peak_rss_mb = 0.0
        fixtures = sorted(f[:-len(".object")]
                          for f in os.listdir(os.path.join(root, "fixtures/objects")))
        rng = random.Random(seed)
        picks = rng.sample(CAGING_PAIRS, len(CAGING_PAIRS))

        def obj(name):
            return f"fixtures/objects/{name}.object"

        def classify(pair):
            return ["classify", "--object", obj(pair[0]), "--mode", str(pair[1])]

        # simulate and sweep get small inputs, so every op but classify costs
        # about one import and p50 sits inside a tight cluster
        k_from = rng.randint(1, 12)
        start = rng.choice([0.5, 0.75, 1.0])
        cycle = [
            ["validate-gears"],
            ["plan", "--object", obj(rng.choice(fixtures)),
             "--current-mode", str(rng.randint(1, 12))],
            classify(picks[0]),
            ["modes"],
            ["simulate", "grasp", "--force", f"{rng.uniform(5.0, 60.0):.3f}",
             "--gap", f"{rng.uniform(2.0, 6.0):.3f}"],
            classify(picks[1]),
            ["simulate", "switch", "--from", str(k_from),
             "--to", str(k_from % 12 + 1), "--gap", f"{rng.uniform(0.5, 4.0):.3f}"],
            ["sweep", "--param", "detent.magnet_gap_mm",
             "--range", f"{start}:{start + 0.5}:0.25", "--metric", "peak-detent"],
            classify(picks[2]),
        ]
        self.items = [("--config", "fixtures/default.cfg", *args) for args in cycle]
        # in-process runs are the warm-up: they load every module a child loads
        self.expected = {item: self.dispatch(item) for item in self.items}
        self.warmup_items = []

    def dispatch(self, item) -> bytes:
        """In-process CLI run from the repository root; returns its stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.dispatch(list(item))
        if status != 0:
            raise OpFailed(f"in-process {' '.join(item)} exited {status}: {err.getvalue()}")
        return out.getvalue().encode()

    def op(self, item):
        return subprocess.run([sys.executable, "-c", CHILD, *item], cwd=self.root,
                              capture_output=True,
                              timeout=_LAUNCH_TIMEOUT_S)

    def check(self, item, proc) -> None:
        if proc.returncode != 0:
            raise OpFailed(f"{' '.join(item)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
        peak_kb = int(proc.stderr.decode().rsplit("VmHWM:", 1)[1].split()[0])
        self.peak_rss_mb = max(self.peak_rss_mb, peak_kb / 1024.0)
        if not proc.stdout:
            raise OpFailed(f"{' '.join(item)} printed nothing")
        if proc.stdout != self.expected[item]:
            raise OpFailed(f"{' '.join(item)}: stdout differs from in-process dispatch")
