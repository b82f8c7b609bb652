"""Per-layer attribution for the benchmark, kept in memory.

The benchmark wraps every call it makes into a layer of the system
(``datasets``, ``packing``, ``rtree``, ``model``, ``simulation``,
``accel``, ``buffer``, ``serving``) in ``tracer.span("<layer>.<op>")``.
Spans go to a private :class:`repro.obs.Tracer`; no process-wide
tracer is installed, so nothing inside the program is traced and a
span covers exactly one call made from this directory.

Each span is tagged with the benchmark round it ran in, and counts
are kept per round next to it.  A layer value is a mean over the
rounds that recorded it, so it is a per-round figure however many
rounds fit in the time budget.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from repro.obs import NULL_SPAN, Tracer, write_chrome_trace

__all__ = ["LayerTracer"]


class LayerTracer:
    """Spans and counts, grouped by benchmark round.

    ``enabled`` may be flipped between rounds: the benchmark alternates
    traced and untraced rounds in a traced run so that the tracing
    overhead is measured on the same data and host.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.round = 0
        self._tracer = Tracer()
        self._counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )

    def span(self, name: str):
        """Time one call into a layer (a shared no-op while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self._tracer.span(name, round=self.round)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to this round's count ``name``."""
        if self.enabled:
            self._counts[self.round][name] += amount

    def gauge(self, name: str, value: float) -> None:
        """Set this round's value ``name`` (last write wins)."""
        if self.enabled:
            self._counts[self.round][name] = value

    def per_round(self, name: str) -> list[float]:
        """``name`` for every round that recorded it: summed span
        seconds for a span name, the value for a count."""
        seconds: dict[int, float] = defaultdict(float)
        for s in self._tracer.finished():
            if s.name == name:
                seconds[s.attrs["round"]] += s.duration_ns / 1e9
        if seconds:
            return [seconds[r] for r in sorted(seconds)]
        return [c[name] for _, c in sorted(self._counts.items()) if name in c]

    def mean(self, name: str) -> float:
        """Mean of :meth:`per_round`; 0 for a layer never called."""
        values = self.per_round(name)
        return sum(values) / len(values) if values else 0.0

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as Chrome-trace JSON, with the per-round
        counts and ``meta`` under ``"profile"``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        counts = {str(r): dict(c) for r, c in sorted(self._counts.items())}
        write_chrome_trace(
            path,
            self._tracer.finished(),
            profile={"meta": meta, "counts": counts},
        )
