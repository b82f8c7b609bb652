"""The four benchmark workloads.

Each workload is a function ``f(ctx) -> dict`` that drives the system
only through the public functions of ``repro.datasets``,
``repro.packing``, ``repro.rtree``, ``repro.model``,
``repro.simulation``, ``repro.accel`` (via ``build_stabbers``),
``repro.buffer`` and ``repro.serving``, checks the outputs through
``ctx.check``, counts operations through ``ctx.attempt``/``ctx.fail``,
and returns the figures it adds to the result.  The measured work is
timed in short units (``ctx.unit(name)``), each repeating the same work
every round; ``wall_s`` sums the units' fastest times.  Calls into a
layer sit inside ``ctx.tracer.span("<layer>.<op>")`` so a traced run
can attribute time to layers; an untraced run records nothing.

All inputs derive from ``ctx.seed``: the same seed gives the same data,
query streams and update streams.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np

from repro import datasets, model, packing, rtree, serving, simulation
from repro.buffer import ShardedBufferPool
from repro.geometry import Rect
from repro.queries import UniformPointWorkload, UniformRegionWorkload

__all__ = ["WORKLOADS"]

now = time.perf_counter


def _p99(samples) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, int(np.ceil(0.99 * len(ordered))) - 1)]


def _record_tree(tracer, desc, n_rects: int, capacity: int) -> None:
    """Count a built tree's nodes and its leaf fill (share of slots used)."""
    tracer.count("packing.nodes", desc.total_nodes)
    tracer.count("packing.trees")
    tracer.count(
        "packing.leaf_fill_sum", n_rects / (desc.node_counts[-1] * capacity)
    )


# ----------------------------------------------------------------------
# fig6-build: insertion-built and packed trees plus the Fig. 6 model
# ----------------------------------------------------------------------
FIG6_RECTS = 1_000
"""About 15 TAT leaves under one root at capacity 100, built with about
14 quadratic splits of full leaves.  A round stays near a quarter of a
second, so each timed unit repeats often enough in a run to find a
quiet moment of the host (see ``Context.wall``).  Splits of internal
nodes are exercised by ``churn-mixed``, whose packed full nodes split
up the tree."""
FIG6_CAPACITY = 100
FIG6_SEGMENT = 10
"""TAT inserts per timed unit (a few milliseconds)."""
FIG6_PACKED = ("nx", "hs")
FIG6_BUFFERS = (2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500)
FIG6_REGION_SIDE = 0.1


def _tat_build(ctx, rects) -> rtree.TreeDescription:
    """The TAT loader's build (Guttman quadratic insertion), timed in
    units of ``FIG6_SEGMENT`` inserts.

    It calls what ``packing.load_description("tat", ...)`` calls, in
    the same order; :func:`fig6_build` checks that the descriptions
    agree.
    """
    with ctx.tracer.span("packing.tat"):
        tree = rtree.RTree(max_entries=FIG6_CAPACITY, split="quadratic")
        for lo in range(0, len(rects), FIG6_SEGMENT):
            with ctx.unit(f"tat.insert.{lo}"):
                for i in range(lo, min(lo + FIG6_SEGMENT, len(rects))):
                    tree.insert(rects[i], i)
        with ctx.unit("tat.describe"):
            return rtree.TreeDescription.from_tree(tree)


def fig6_build(ctx) -> dict:
    tracer = ctx.tracer
    panels = (
        UniformPointWorkload(),
        UniformRegionWorkload((FIG6_REGION_SIDE, FIG6_REGION_SIDE)),
    )
    reference = None
    for _ in ctx.rounds(min_rounds=3):
        data = ctx.repeat_setup(
            lambda: datasets.tiger_like(FIG6_RECTS, rng=ctx.seed)
        )
        rects = list(data)
        gc.collect()  # the same collector state in every round
        built = {"tat": _tat_build(ctx, rects)}
        _record_tree(tracer, built["tat"], len(data), FIG6_CAPACITY)
        for loader in FIG6_PACKED:
            with ctx.unit(f"{loader}.load"), tracer.span("packing.packed"):
                built[loader] = packing.load_description(
                    loader, data, FIG6_CAPACITY
                )
            _record_tree(tracer, built[loader], len(data), FIG6_CAPACITY)
        results = {}
        for loader, desc in built.items():
            with ctx.unit(f"{loader}.model"), tracer.span("model"):
                curves = [
                    model.buffer_model_sweep(desc, w, FIG6_BUFFERS)
                    for w in panels
                ]
                bufferless = [
                    model.expected_node_accesses(desc, w) for w in panels
                ]
            tracer.count("model.calls", 2 * len(panels))
            results[loader] = (curves, bufferless)
        ctx.attempt(len(built) * (1 + 2 * len(panels)))

        data_mbr = data.mbr()
        for loader, (curves, bufferless) in results.items():
            root = built[loader].levels[0]
            ctx.check(
                len(root) == 1 and root.rect(0) == data_mbr,
                f"{loader}: root MBR differs from the data MBR",
            )
            for w, curve, ept in zip(panels, curves, bufferless):
                eds = [r.disk_accesses for r in curve]
                ctx.check(
                    all(b <= a for a, b in zip(eds, eds[1:])),
                    f"{loader} {w!r}: model ED increases with B: {eds}",
                )
                ctx.check(
                    all(ed <= ept for ed in eds),
                    f"{loader} {w!r}: ED exceeds bufferless accesses {ept}",
                )
        if reference is None:
            # Once per run, untimed: the loader itself builds the same
            # TAT tree as the benchmark's timed insertion.
            reference = packing.load_description("tat", data, FIG6_CAPACITY)
        ctx.check(
            built["tat"] == reference,
            "the timed TAT build differs from packing.load_description",
        )
    return {}


# ----------------------------------------------------------------------
# table1-validate: packed trees, stack-distance sweep, model agreement
# ----------------------------------------------------------------------
TABLE1_RECTS = 165_000
TABLE1_CAPACITY = 100
TABLE1_NODES = 1_668
TABLE1_LOADERS = ("nx", "hs", "str")
TABLE1_BUFFERS = (10, 50, 100, 200, 300, 500)
TABLE1_BATCHES = 20
TABLE1_BATCH_SIZE = 2_000
TABLE1_MAX_ERR_PCT = 4.0
"""The paper's Table 1 agreement, gated for B >= 50."""


def table1_validate(ctx) -> dict:
    tracer = ctx.tracer
    point = UniformPointWorkload()
    reference = None
    for _ in ctx.rounds(min_rounds=3):
        data = ctx.repeat_setup(
            lambda: datasets.synthetic_region(TABLE1_RECTS, rng=ctx.seed)
        )
        gc.collect()  # the same collector state in every round
        cells = {}
        for loader in TABLE1_LOADERS:
            with ctx.unit(f"{loader}.load"), tracer.span("packing.packed"):
                desc = packing.load_description(loader, data, TABLE1_CAPACITY)
            _record_tree(tracer, desc, len(data), TABLE1_CAPACITY)
            with ctx.unit(f"{loader}.sweep"), tracer.span("simulation.sweep"):
                measured = _table1_sweep(desc, point, ctx.seed)
            with ctx.unit(f"{loader}.model"), tracer.span("model"):
                predicted = [
                    model.buffer_model(desc, point, b).disk_accesses
                    for b in TABLE1_BUFFERS
                ]
            tracer.count("model.calls", len(TABLE1_BUFFERS))
            # The stream (and so the stab output) is shared by all sizes.
            tracer.count("accel.queries", TABLE1_BATCHES * TABLE1_BATCH_SIZE)
            tracer.count(
                "accel.pages",
                sum(s.requests for s in measured[0].batch_stats),
            )
            for result in measured:
                tracer.count(
                    "simulation.queries",
                    TABLE1_BATCHES * TABLE1_BATCH_SIZE,
                )
                tracer.count(
                    "simulation.page_requests",
                    sum(s.requests for s in result.batch_stats),
                )
                tracer.count(
                    "simulation.misses",
                    sum(s.misses for s in result.batch_stats),
                )
            cells[loader] = (
                desc.total_nodes,
                [r.disk_accesses.mean for r in measured],
                predicted,
            )
        ctx.attempt(len(TABLE1_LOADERS) * (2 + len(TABLE1_BUFFERS)))

        errors = []
        for loader, (nodes, sim, pred) in cells.items():
            ctx.check(
                nodes == TABLE1_NODES,
                f"{loader}: {nodes} nodes, expected {TABLE1_NODES}",
            )
            ctx.check(
                all(b <= a for a, b in zip(sim, sim[1:])),
                f"{loader}: simulated ED increases with B: {sim}",
            )
            for size, s, p in zip(TABLE1_BUFFERS, sim, pred):
                if size >= 50:
                    errors.append(100.0 * abs(p - s) / s)
        err = max(errors)
        ctx.check(
            err <= TABLE1_MAX_ERR_PCT,
            f"model vs simulation differs by {err:.2f}% > "
            f"{TABLE1_MAX_ERR_PCT}% for B >= 50",
        )
        if reference is None:
            reference = (cells, err)
        ctx.check(
            (cells, err) == reference,
            "the same seed gave different results in two rounds",
        )
    if ctx.trace:
        # Peak sweep memory, measured outside the timed rounds because
        # tracemalloc slows every allocation it watches.
        peak_mb = 0.0
        for loader in TABLE1_LOADERS:
            desc = packing.load_description(loader, data, TABLE1_CAPACITY)
            tracemalloc.start()
            try:
                _table1_sweep(desc, point, ctx.seed)
                peak_mb = max(peak_mb, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ctx.tracer.gauge("simulation.peak_mb", peak_mb / 2**20)
    return {"model.err_pct": reference[1]}


def _table1_sweep(desc, point, seed):
    return simulation.simulate_sweep(
        desc,
        point,
        TABLE1_BUFFERS,
        n_batches=TABLE1_BATCHES,
        batch_size=TABLE1_BATCH_SIZE,
        rng=seed,
    )


# ----------------------------------------------------------------------
# serve-point: QueryService, synchronous passes and open-loop traffic
# ----------------------------------------------------------------------
SERVE_RECTS = 165_000
SERVE_CAPACITY = 100
SERVE_BUFFER = 100
SERVE_SETUPS = 5
SERVE_WARMUP = 20_000
SERVE_SYNC_POINTS = 20_000
SERVE_MAX_BATCH = 512
"""Micro-batch size: a sync pass is 40 ``process()`` calls of a few
milliseconds each, timed one by one (see ``Context.wall``)."""
SERVE_HINT = 200_000
"""``expected_queries`` hint: the service's probe volume per round."""
SERVE_FIXED_RATE = 10_000.0
SERVE_LADDER = (5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0)
SERVE_RUNG_S = 0.25
"""Each rung offers its rate for this long (at least 2,500 queries), so
an overloaded rung queues a bounded number of queries."""
SERVE_SYNC_SHARE = 0.6
SERVE_FIXED_SHARE = 0.2
"""Shares of ``--seconds`` given to sync passes and the fixed-rate run."""
SERVE_LIMIT_S = 0.010
"""p99 latency limit, and the largest tolerated end-of-run backlog."""


def _serve_setup(ctx, point):
    tracer = ctx.tracer
    with tracer.span("datasets.gen"):
        data = datasets.synthetic_region(SERVE_RECTS, rng=ctx.seed)
    tracer.count("datasets.calls")
    with tracer.span("setup.packing"):
        desc = packing.load_description("hs", data, SERVE_CAPACITY)
    warm = point.sample_points(
        SERVE_WARMUP, np.random.default_rng([ctx.seed, 1])
    )
    with tracer.span("setup.serving"):
        service = serving.QueryService(
            desc,
            point,
            SERVE_BUFFER,
            shards=1,
            policy="lru",
            max_batch=SERVE_MAX_BATCH,
            expected_queries=SERVE_HINT,
        )
        service.process(warm)
    return desc, service


class _Mirror:
    """A second copy of the service's buffer, checked against it.

    A stream goes through the public path the service itself uses:
    ``build_stabbers(...).stab`` then ``ShardedBufferPool.request_batch``,
    in the service's micro-batches, and the two sets of counters must
    agree bit for bit.  An LRU pool's state after a pass over a stream
    that touches more than ``SERVE_BUFFER`` distinct pages depends on
    that pass alone, so the mirror can replay one sync pass per block
    (:meth:`pass_counts`) and every open-loop stream (:meth:`compare`)
    without feeding every sync pass.
    """

    def __init__(self, ctx, desc, service) -> None:
        self.ctx = ctx
        self.service = service
        self.stabber, _ = simulation.build_stabbers(
            desc, service.workload, n_points=SERVE_HINT
        )
        self.pool = ShardedBufferPool(SERVE_BUFFER, 1, policy="lru")

    def feed(self, points) -> dict:
        """Replay ``points``; returns the counters they added."""
        tracer = self.ctx.tracer
        self.pool.reset_stats()
        step = self.service.max_batch
        for lo in range(0, len(points), step):
            chunk = points[lo : lo + step]
            with tracer.span("accel.stab"):
                ids = self.stabber.stab(chunk).ids
            with tracer.span("buffer.request"):
                self.pool.request_batch(ids)
            tracer.count("accel.queries", len(chunk))
            tracer.count("accel.pages", len(ids))
        return self.pool.aggregate_stats().as_dict()

    def pass_counts(self, points, traced: bool) -> dict:
        """The counters one sync pass over ``points`` adds, starting
        from the state a pass over ``points`` leaves.  The measured
        replay is traced when ``traced``, so its stab and request time
        can be set against ``serving.process``."""
        tracer = self.ctx.tracer
        trace = tracer.enabled
        tracer.enabled = False
        self.feed(points)
        tracer.enabled = traced
        counts = self.feed(points)
        tracer.enabled = trace
        return counts

    def compare(self, points, stats: dict, what: str) -> None:
        """Replay ``points`` (untraced) and check the counters against
        ``stats``."""
        tracer = self.ctx.tracer
        trace = tracer.enabled
        tracer.enabled = False
        mirrored = self.feed(points)
        tracer.enabled = trace
        self.ctx.check(
            mirrored == stats,
            f"{what}: replayed counters {mirrored} != service counters "
            f"{stats}",
        )


def _sync_block(ctx, mirror, points, seconds):
    """Synchronous passes over ``points`` for ``seconds`` (>= 3 passes).

    The first pass of a block is not timed: it brings the buffer to the
    state a pass over ``points`` leaves, which every later pass starts
    from, so each timed micro-batch (a unit) repeats the same work and
    every timed pass adds the same counters as the mirror's replay.  A
    traced run alternates traced and untraced timed passes.  Each traced
    pass is a tracer round of its own (round 0 holds the set-up and the
    open-loop run), and its ``buffer.*`` counts are the service's
    counter deltas over that one pass.
    """
    tracer = ctx.tracer
    trace = tracer.enabled
    service = mirror.service
    step = service.max_batch
    tracer.enabled = False
    service.process(points)
    tracer.round = ctx.repetitions + 1
    expected = mirror.pass_counts(points, traced=trace)
    gc.collect()
    start = now()
    n = 0
    while n < 2 or now() - start < seconds:
        n += 1
        ctx.repetitions += 1
        traced = trace and ctx.repetitions % 2 == 1
        tracer.round = ctx.repetitions
        tracer.enabled = traced
        before = service.aggregate_stats().as_dict()
        with tracer.span("serving.process"):
            for lo in range(0, len(points), step):
                with ctx.unit(f"serve.batch.{lo}"):
                    service.process(points[lo : lo + step])
        after = service.aggregate_stats().as_dict()
        counts = {key: after[key] - before[key] for key in after}
        for key, value in counts.items():
            tracer.count(f"buffer.{key}", value)
        ctx.attempt(len(points))
        ctx.check(
            counts == expected,
            f"sync pass {n}: service counters {counts} != replayed "
            f"counters {expected}",
        )
    tracer.enabled = trace
    tracer.round = 0


def _open_loop(ctx, mirror, rate, n_queries, seed):
    """One open-loop run; returns (report, backlog_s).

    ``LoadGenerator.run`` zeroes the service's counters first, so right
    after it they hold this run alone.
    """
    service = mirror.service
    gen = serving.LoadGenerator(
        service, rate_qps=rate, n_queries=n_queries, seed=seed
    )
    report = gen.run()
    mirror.compare(
        gen.query_points(),
        service.aggregate_stats().as_dict(),
        f"{rate:.0f} qps run",
    )
    backlog_s = report.wall_seconds - gen.schedule_offsets_ns()[-1] / 1e9
    ctx.attempt(n_queries)
    ctx.check(
        report.queries == n_queries,
        f"{rate:.0f} qps run served {report.queries} of {n_queries}",
        failed=n_queries - report.queries,
    )
    return report, backlog_s


def _ladder(ctx, mirror) -> float:
    """Throughput on the highest rung that meets the latency limit.

    A rung meets it when its p99 and its end-of-run backlog are both
    within ``SERVE_LIMIT_S``.  Each rung gets two tries, so one host
    stall does not end the climb; the climb ends at the first rung that
    misses twice.  Returns 0 if even the first rung misses.
    """
    best = 0.0
    for rung, rate in enumerate(SERVE_LADDER, start=1):
        n = max(2_500, int(rate * SERVE_RUNG_S))
        for attempt in range(2):
            seed = ctx.seed + 1_000 * rung + attempt
            report, backlog = _open_loop(ctx, mirror, rate, n, seed)
            if (
                report.latency_summary_us["p99"] <= SERVE_LIMIT_S * 1e6
                and backlog <= SERVE_LIMIT_S
            ):
                best = report.throughput_qps
                break
        else:
            return best
    return best


def serve_point(ctx) -> dict:
    tracer = ctx.tracer
    point = UniformPointWorkload()
    trace = tracer.enabled

    # Set up several times for a steady setup_s, spread over the run:
    # SERVE_SETUPS - 3 times here (the first one, traced, is used),
    # then once after each sync block.
    def timed_setup(traced: bool):
        tracer.enabled = trace and traced
        t0 = now()
        parts = _serve_setup(ctx, point)
        ctx.setup_times.append(now() - t0)
        ctx.attempt(SERVE_WARMUP)
        tracer.enabled = trace
        return parts

    def spare_setup() -> None:
        timed_setup(traced=False)[1].close()

    desc, service = timed_setup(traced=True)
    for _ in range(SERVE_SETUPS - 4):
        spare_setup()

    mirror = _Mirror(ctx, desc, service)
    sync_points = point.sample_points(
        SERVE_SYNC_POINTS, np.random.default_rng([ctx.seed, 2])
    )
    # The sync passes are split into three blocks around the open-loop
    # runs so that they sample the host across the whole run.
    block_s = SERVE_SYNC_SHARE * ctx.seconds / 3
    _sync_block(ctx, mirror, sync_points, block_s)
    spare_setup()
    service.start(1)
    try:
        fixed_n = max(
            2_000, int(SERVE_FIXED_RATE * SERVE_FIXED_SHARE * ctx.seconds)
        )
        report, backlog_s = _open_loop(
            ctx, mirror, SERVE_FIXED_RATE, fixed_n, ctx.seed
        )
        latency = report.latency_summary_us
        tracer.gauge("serving.batches", report.batches)
        tracer.gauge("serving.mean_batch", report.queries / report.batches)
        tracer.gauge("serving.backlog_s", backlog_s)
        _sync_block(ctx, mirror, sync_points, block_s)
        spare_setup()
        max_qps = _ladder(ctx, mirror)
        _sync_block(ctx, mirror, sync_points, block_s)
        spare_setup()
    finally:
        service.close()

    return {
        "serving.sync_qps": SERVE_SYNC_POINTS / ctx.wall(),
        "serving.p50_ms": latency["p50"] / 1e3,
        "serving.p99_ms": latency["p99"] / 1e3,
        "serving.max_qps": max_qps,
    }


# ----------------------------------------------------------------------
# churn-mixed: deletes, reinserts and searches on a small-fanout tree
# ----------------------------------------------------------------------
CHURN_RECTS = 5_000
CHURN_CAPACITY = 25
CHURN_OPS = 500
CHURN_MIX = (
    ("delete", 1 / 3),
    ("insert", 1 / 3),
    ("search", 1 / 6),
    ("point", 1 / 6),
)
CHURN_SEARCH_SIDE = 0.02
CHURN_BUFFER = 100
CHURN_SEGMENT = 5
"""Ops per timed unit (about 2 ms); see ``Context.wall``."""
CHURN_CHECK_EVERY = 5
"""Every fifth search is checked against a brute-force scan."""


def _churn_ops(seed: int, n_rects: int):
    """A seeded op stream; inserts re-add the oldest deleted item."""
    rng = np.random.default_rng([seed, 3])
    names = [name for name, _ in CHURN_MIX]
    probs = [p for _, p in CHURN_MIX]
    kinds = rng.choice(len(names), size=CHURN_OPS, p=probs)
    live = list(range(n_rects))
    deleted: list[int] = []
    ops = []
    for k in kinds:
        kind = names[k]
        if kind == "insert" and not deleted:
            kind = "delete"
        if kind == "delete":
            j = int(rng.integers(len(live)))
            live[j], live[-1] = live[-1], live[j]
            item = live.pop()
            deleted.append(item)
            ops.append(("delete", item))
        elif kind == "insert":
            ops.append(("insert", deleted.pop(0)))
        elif kind == "search":
            lo = rng.random(2) * (1.0 - CHURN_SEARCH_SIDE)
            hi = lo + CHURN_SEARCH_SIDE
            ops.append(("search", Rect(tuple(lo), tuple(hi))))
        else:
            ops.append(("point", tuple(rng.random(2))))
    return ops


def churn_mixed(ctx) -> dict:
    tracer = ctx.tracer
    point = UniformPointWorkload()
    latencies = {"rtree.insert": [], "rtree.delete": [], "rtree.search": []}
    reference = None
    for r in ctx.rounds(min_rounds=3):
        t0 = now()
        with tracer.span("datasets.gen"):
            data = datasets.synthetic_region(CHURN_RECTS, rng=ctx.seed)
        tracer.count("datasets.calls")
        with tracer.span("setup.packing"):
            tree = packing.load_tree("hs", data, CHURN_CAPACITY)
        ctx.setup_times.append(now() - t0)
        if r == 0:
            # The same in every round: built once, outside setup_s.
            rects = list(data)
            ops = _churn_ops(ctx.seed, len(rects))
        gc.collect()  # the same collector state in every round
        calls = {
            "delete": ("rtree.delete", lambda i: tree.delete(rects[i], i)),
            "insert": ("rtree.insert", lambda i: tree.insert(rects[i], i)),
            "search": ("rtree.search", tree.search),
            "point": ("rtree.search", tree.search_point),
        }
        outputs = []
        for lo in range(0, len(ops), CHURN_SEGMENT):
            with ctx.unit(f"churn.ops.{lo}"):
                for kind, arg in ops[lo : lo + CHURN_SEGMENT]:
                    name, call = calls[kind]
                    s = time.perf_counter_ns()
                    with tracer.span(name):
                        out = call(arg)
                    latencies[name].append(time.perf_counter_ns() - s)
                    outputs.append(out)
        with ctx.unit("churn.model"):
            with tracer.span("rtree.describe"):
                desc = rtree.TreeDescription.from_tree(tree)
            with tracer.span("model"):
                churned = model.buffer_model(desc, point, CHURN_BUFFER)
        tracer.count("model.calls")

        kinds = [kind for kind, _ in ops]
        deleted = [o for k, o in zip(kinds, outputs) if k == "delete"]
        results = [
            o for k, o in zip(kinds, outputs) if k in ("search", "point")
        ]
        tracer.count("rtree.deletes", len(deleted))
        tracer.count("rtree.inserts", len(ops) - len(deleted) - len(results))
        tracer.count("rtree.searches", len(results))
        tracer.count("rtree.results", sum(len(r) for r in results))
        tracer.gauge("rtree.nodes_after", tree.node_count())
        ctx.attempt(len(ops) + 2)
        missed = deleted.count(False)
        if missed:
            ctx.fail(missed, f"{missed} deletes found no entry")
        state = (outputs, tree.node_count(), churned.disk_accesses)
        if reference is None:
            # The full check once; later rounds repeat the same stream
            # on the same tree, so they must give the same answers.
            reference = state
            _check_churned(ctx, tree, rects, ops, results, churned)
        ctx.check(
            state == reference,
            "the same seed gave different results in two rounds",
        )
    return {
        f"{name}_p99_us": _p99(ns) / 1e3 for name, ns in latencies.items()
    }


def _check_churned(ctx, tree, rects, ops, results, churned) -> None:
    """Structure, contents, sampled search answers and the model."""
    try:
        rtree.check_tree(tree)
        ok, why = True, ""
    except rtree.InvariantViolation as exc:
        ok, why = False, str(exc)
    ctx.check(ok, f"check_tree: {why}")

    lo = np.array([r.lo for r in rects])
    hi = np.array([r.hi for r in rects])
    live = np.ones(len(rects), dtype=bool)
    answers = iter(results)
    n_search = 0
    for kind, arg in ops:
        if kind == "delete":
            live[arg] = False
        elif kind == "insert":
            live[arg] = True
        else:
            found = next(answers)
            n_search += 1
            if n_search % CHURN_CHECK_EVERY:
                continue
            q = arg if kind == "search" else Rect(arg, arg)
            hit = live & (lo <= q.hi).all(axis=1) & (hi >= q.lo).all(axis=1)
            ctx.check(
                sorted(found) == np.flatnonzero(hit).tolist(),
                f"{kind} {q} returned a wrong item set",
            )

    everything = tree.search(Rect((0.0, 0.0), (1.0, 1.0)))
    expected = np.flatnonzero(live).tolist()
    ctx.check(
        sorted(everything) == expected and len(tree) == len(expected),
        "the churned tree lost or duplicated live items",
    )
    for item in {arg for kind, arg in ops if kind in ("delete", "insert")}:
        found = item in tree.search(rects[item])
        ctx.check(
            found == bool(live[item]),
            f"item {item} {'missing' if live[item] else 'still present'}",
        )
    ctx.check(
        0.0 < churned.disk_accesses <= churned.node_accesses,
        f"churned-tree model: ED {churned.disk_accesses} vs EPT "
        f"{churned.node_accesses}",
    )


WORKLOADS = {
    "fig6-build": fig6_build,
    "table1-validate": table1_validate,
    "serve-point": serve_point,
    "churn-mixed": churn_mixed,
}
