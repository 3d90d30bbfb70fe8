"""Timing loop, percentiles, spans and import-time parsing for the workers.

Stdlib only, and free of `multigrip` imports, so that a worker can load it
before it times `import multigrip`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import traceback
from collections import defaultdict

NULL_SPAN = contextlib.nullcontext()


class OpFailed(Exception):
    """An operation ran but its output failed the benchmark's check."""


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) with linear interpolation between ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """In-memory spans (name, start, end, parent, op id) plus counters.

    Spans nest strictly (one thread), so a span's self time is its duration
    minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    @contextlib.contextmanager
    def instrument(self, targets):
        """Wrap module attributes in spans for the duration of the block.

        targets: (module, attribute, span name or callable(args) -> name,
        optional after(result, args) hook for counters).  Missing attributes
        are skipped, so the tracer survives refactors of private helpers.
        """
        saved = []
        try:
            for module, attr, name, after in targets:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name, after):
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
        return out

    def write_jsonl(self, stream) -> None:
        for name, start, end, parent, op in self.spans:
            stream.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# Machine-speed reference.  The host this benchmark targets changes speed
# by up to 40% within a minute (a fixed pure-Python loop shows it, and CPU
# time moves with wall time, so it is outside contention, not stolen time).
# A fixed loop, independent of multigrip, runs between ops, and each op's
# time is scaled by REFERENCE_S / (the loop's time around that op): times
# are reported at the speed where the loop takes REFERENCE_S.  Raw wall
# times go to the report line.  The loop mixes integer arithmetic with
# small-object churn (floats, tuples, reprs): over 5 s windows the
# workloads slowed 1.3-1.4x as much as an integer loop alone, and 0.9-1.1x
# as much as this mix.
REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.1


def _kernel() -> int:
    total = 0
    for i in range(6000):
        total += i * i
    rows = []
    x = 0.5
    for i in range(500):
        x = x * 1.0000001 + 0.25
        rows.append((i, x, repr(x)))
    return total + len(rows)


def reference_time() -> float:
    """Median of three timed runs of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Timed:
    """Result of run_timed: per-op times, raw and speed-normalized."""

    def __init__(self, raw, speed, failed, passes):
        self.raw = raw            # wall seconds per op
        self.speed = speed        # REFERENCE_S / reference time, per op
        self.latencies = [t * f for t, f in zip(raw, speed)]
        self.failed = failed
        self.passes = passes

    def rate(self) -> float:
        """Ops per second of speed-normalized op time."""
        return len(self.latencies) / sum(self.latencies)


def run_timed(workload, items, seconds: float, tracer: Tracer | None = None,
              whole_passes: bool = False) -> Timed:
    """Closed loop over the fixed item list for `seconds` of wall time.

    The output check runs outside the timed region.  With whole_passes the
    loop only stops at the end of a pass, so per-pass counts are exact.
    The reference loop runs before the first op, at least every
    CALIBRATE_EVERY_S, and after the last op; an op's speed factor comes
    from the two reference times that bracket it.
    """
    raw: list[float] = []
    refs = [(0, reference_time())]  # (index of the next op, seconds)
    last_ref = time.perf_counter()
    failed = 0
    n = len(items)
    deadline = last_ref + seconds
    i = 0
    while True:
        if time.perf_counter() - last_ref >= CALIBRATE_EVERY_S:
            refs.append((i, reference_time()))
            last_ref = time.perf_counter()
        item = items[i % n]
        span = NULL_SPAN
        if tracer is not None:
            tracer.op_id = i
            span = tracer.span("op")
        ok = True
        t0 = time.perf_counter()
        try:
            with span:
                out = workload.op(item)
        except Exception:  # an op that raises counts as failed
            ok, out = False, None
            _report(failed)
        raw.append(time.perf_counter() - t0)
        if ok:
            try:
                workload.check(item, out)
            except Exception:  # so does one whose output check fails
                ok = False
                _report(failed)
        failed += not ok
        out = None
        i += 1
        if time.perf_counter() >= deadline and (not whole_passes or i % n == 0):
            break
    refs.append((i, reference_time()))
    speed = []
    for k, (start, before) in enumerate(refs[:-1]):
        stop, after = refs[k + 1]
        speed += [2 * REFERENCE_S / (before + after)] * (stop - start)
    return Timed(raw, speed, failed, i // n)


def _report(failed_so_far: int) -> None:
    if failed_so_far < 3:
        traceback.print_exc()


def parse_importtime(stderr: str, harness_modules) -> dict[str, float]:
    """Import costs (ms) from `python -X importtime` output.

    import.multigrip.ms: cumulative time of the top-level `multigrip` import.
    import.scipy.ms: scipy modules first imported inside it (outermost ones).
    import.lazy.ms: top-level imports completed after it, other than the
    harness's own modules, i.e. what the program imported on first use.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))
    top = [i for i, (d, name, _) in enumerate(entries)
           if d == 0 and name == "multigrip"]
    if not top:
        raise ValueError("no top-level multigrip import in -X importtime output")
    end = top[0]
    start = end
    while start > 0 and entries[start - 1][0] > 0:
        start -= 1
    scipy_ms = 0.0
    outer_scipy_depth = None
    for depth, name, ms in reversed(entries[start:end]):
        # reversed: a parent is listed after its children
        if outer_scipy_depth is not None and depth > outer_scipy_depth:
            continue
        outer_scipy_depth = None
        if name == "scipy" or name.startswith("scipy."):
            scipy_ms += ms
            outer_scipy_depth = depth
    lazy_ms = sum(ms for depth, name, ms in entries[end + 1:]
                  if depth == 0 and name.split(".")[0] not in harness_modules)
    return {"import.multigrip.ms": entries[end][2],
            "import.scipy.ms": scipy_ms,
            "import.lazy.ms": lazy_ms}
