"""End-to-end benchmark of the R-tree buffering reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-build --seed 1 \\
        --seconds 28 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layer metric should move which end-to-end metric):

* ``fig6-build``      — TAT/NX/HS builds of tiger-like data + Fig. 6 model
* ``table1-validate`` — NX/HS/STR packing, stack-distance sweep, model
* ``serve-point``     — QueryService: sync passes, open-loop Poisson load
* ``churn-mixed``     — deletes, reinserts and searches on an RTree

The benchmark repeats rounds of its workload until ``--seconds`` have
passed.  The measured work of a round is timed in short units;
``wall_s`` is the sum of each unit's fastest untraced time (see
:meth:`Context.wall` and the README) and ``setup_s`` is the median
set-up.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and prints the per-layer metrics plus the
tracing overhead.  Human-readable lines
(provenance, every metric with its unit, failed checks) come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, and with ``--trace 1`` the span trace, are written under
``.perfbench/`` in the repository root.

The program under test is imported from ``src/``; without it the
benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = (
    "fig6-build",
    "table1-validate",
    "serve-point",
    "churn-mixed",
)
SETUP_REPEATS = 5


def load_manifest() -> dict:
    """Metric names and units from ``BENCHMARK.json``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {}
    for group in ("end_to_end", "per_layer"):
        for metric in manifest[group]:
            units[metric["name"]] = metric["unit"]
    return {
        "end_to_end": [m["name"] for m in manifest["end_to_end"]],
        "per_layer": [m["name"] for m in manifest["per_layer"]],
        "units": units,
    }


class Context:
    """Run state shared with a workload: seed, budget, tracer, ledger."""

    def __init__(self, seed: int, seconds: float, trace: bool, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer
        self.setup_times: list[float] = []
        self.units: dict[str, list[tuple[float, bool]]] = {}
        """Timed units of work: name -> [(seconds, traced), ...]."""
        self.repetitions = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def rounds(self, min_rounds: int):
        """Yield round numbers until the time budget is spent.

        A traced run traces even rounds only; the odd rounds give the
        untraced times the tracing overhead is measured against.
        """
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < self.seconds:
            self.tracer.round = r
            self.tracer.enabled = self.trace and r % 2 == 0
            self.repetitions += 1
            yield r
            r += 1
        self.tracer.enabled = self.trace

    def repeat_setup(self, make):
        """Generate a round's data ``SETUP_REPEATS`` times; time each.

        Data generation is cheap next to a round, so it is repeated to
        give ``setup_s`` enough samples.  Returns the last data set.
        """
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with self.tracer.span("datasets.gen"):
                data = make()
            self.tracer.count("datasets.calls")
            self.attempt()
            self.setup_times.append(time.perf_counter() - t0)
        return data

    @contextmanager
    def unit(self, name: str):
        """Time one unit of measured work.

        A unit of a given name does the same work every time it runs
        (the same data, tree state and calls), so its repetitions
        differ only by the host's speed at the moment.
        """
        traced = self.tracer.enabled
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        self.units.setdefault(name, []).append((seconds, traced))

    def _fastest(self, traced: bool) -> dict[str, float]:
        fastest = {}
        for name, samples in self.units.items():
            times = [s for s, t in samples if t == traced]
            if times:
                fastest[name] = min(times)
        return fastest

    def wall(self) -> float:
        """The run's ``wall_s``: the sum, over the units of one round,
        of each unit's fastest untraced time.

        A unit takes a few milliseconds and repeats many times over
        the run.  On a shared host the quiet moments of a slow spell
        last about a millisecond, so in most runs some repetition of
        each unit lands in one; the sum stays near the program's own
        cost even in a run that spends most of its time in slow
        spells.  Every unit slows with the program.
        """
        return sum(self._fastest(traced=False).values())

    def trace_overhead_pct(self) -> float:
        """Traced over untraced ``wall`` on the units timed both ways."""
        traced = self._fastest(traced=True)
        plain = self._fastest(traced=False)
        both = traced.keys() & plain.keys()
        if not both:
            return 0.0
        ratio = sum(traced[n] for n in both) / sum(plain[n] for n in both)
        return 100.0 * (ratio - 1.0)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.failures.append(message)

    def check(self, ok: bool, message: str, failed: int = 1) -> None:
        """Count one check; a failed check is recorded, never raised."""
        self.attempted += 1
        if not ok:
            self.fail(max(1, failed), message)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(ctx: Context) -> dict[str, float]:
    """Per-layer values: means over the traced rounds that recorded
    each span or count (``serve-point``: its traced sync passes)."""
    m = ctx.tracer.mean
    out = {
        "datasets.gen_s": _ratio(m("datasets.gen"), m("datasets.calls")),
        "packing.tat_s": m("packing.tat"),
        "packing.packed_s": m("packing.packed"),
        "packing.nodes": m("packing.nodes"),
        "packing.leaf_fill": _ratio(
            m("packing.leaf_fill_sum"), m("packing.trees")
        ),
        "rtree.insert_s": m("rtree.insert"),
        "rtree.delete_s": m("rtree.delete"),
        "rtree.search_s": m("rtree.search"),
        "rtree.inserts": m("rtree.inserts"),
        "rtree.deletes": m("rtree.deletes"),
        "rtree.searches": m("rtree.searches"),
        "rtree.results": m("rtree.results"),
        "rtree.nodes_after": m("rtree.nodes_after"),
        "model.s": m("model"),
        "model.calls": m("model.calls"),
        "simulation.sweep_s": m("simulation.sweep"),
        "simulation.peak_mb": m("simulation.peak_mb"),
        "simulation.queries": m("simulation.queries"),
        "simulation.page_requests": m("simulation.page_requests"),
        "simulation.misses": m("simulation.misses"),
        "simulation.hit_ratio": _ratio(
            m("simulation.page_requests") - m("simulation.misses"),
            m("simulation.page_requests"),
        ),
        "accel.stab_s": m("accel.stab"),
        "accel.pages_per_query": _ratio(m("accel.pages"), m("accel.queries")),
        "buffer.request_s": m("buffer.request"),
        "buffer.requests": m("buffer.requests"),
        "buffer.hits": m("buffer.hits"),
        "buffer.misses": m("buffer.misses"),
        "buffer.evictions": m("buffer.evictions"),
        "buffer.hit_ratio": _ratio(m("buffer.hits"), m("buffer.requests")),
        "serving.process_s": m("serving.process"),
        # Serving's own time: the traced passes minus the stab and
        # request time of their replay.
        "serving.overhead_s": (
            m("serving.process") - m("accel.stab") - m("buffer.request")
            if m("serving.process")
            else 0.0
        ),
        "serving.batches": m("serving.batches"),
        "serving.mean_batch": m("serving.mean_batch"),
        "serving.backlog_s": m("serving.backlog_s"),
    }
    out["trace.overhead_pct"] = ctx.trace_overhead_pct()
    return out


def provenance(seed: int) -> dict:
    """Where a result came from: seed, host, versions, source."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from layers import LayerTracer
        from workloads import WORKLOADS
    except ImportError:
        traceback.print_exc()
        return 2
    manifest = load_manifest()

    trace = bool(args.trace)
    ctx = Context(args.seed, args.seconds, trace, LayerTracer(trace))
    try:
        details = WORKLOADS[args.workload](ctx)
    except Exception:  # a crash is reported, with no result line
        traceback.print_exc()
        return 1
    e2e = {
        "setup_s": statistics.median(ctx.setup_times),
        "wall_s": ctx.wall(),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }

    prov = provenance(args.seed)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(
        f"# {args.workload}: {ctx.repetitions} repetition(s), "
        f"{len(ctx.units)} unit(s), {len(ctx.setup_times)} setup(s), "
        f"trace={args.trace}"
    )
    units = manifest["units"]
    names = manifest["per_layer"] if trace else manifest["end_to_end"]
    values = per_layer_metrics(ctx) if trace else dict(e2e)
    values.update(details)
    for name in sorted(values):
        print(f"{name:28s} {values[name]} {units.get(name, '')}")
    error_rate = ctx.failed / max(1, ctx.attempted)
    print(f"{'error_rate':28s} {error_rate} ratio")
    for message in ctx.failures:
        print(f"CHECK FAILED: {message}")

    # A per-layer metric of a layer this workload never calls reads 0.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
        for name in names
    }
    result = {
        "correct": not ctx.failures,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "provenance": prov,
                "all_metrics": values,
                "failures": ctx.failures,
                "setup_times_s": ctx.setup_times,
                "unit_times_s": {
                    name: [s for s, _ in samples]
                    for name, samples in ctx.units.items()
                },
            },
            indent=1,
        )
        + "\n"
    )
    if trace:
        ctx.tracer.write(OUT_DIR / f"trace-{stem}.json", prov)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
