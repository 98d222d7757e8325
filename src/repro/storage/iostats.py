"""Physical I/O accounting.

Table 6 of the paper reports the *number of I/Os* issued by the IRR index
as ``Q.k`` grows.  To reproduce that as a measurement, every read path in
the storage layer is routed through an :class:`IOStats` instance that
counts (queries never write, so only reads are counted)

* ``read_calls`` — logical read requests (one per contiguous range, the
  closest analogue to the paper's "number of I/O"),
* ``pages_read`` — pages not resident in the buffer pool (physical reads),
* ``pages_hit`` — pages served from the buffer pool,
* ``bytes_read`` — payload bytes returned.

The counter is plain mutable state by design: it is threaded explicitly
through readers (no globals), and :meth:`IOStats.snapshot` /
:meth:`IOStats.delta` give before/after accounting around a query.  It
belongs to one reader and takes no lock: a reader has one caller at a
time (see "Concurrency contract" in ``docs/ARCHITECTURE.md``), which is
also what makes a query's before/after window exactly its own reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["IOStats"]


@dataclass
class IOStats:
    """Mutable I/O counters (see module docstring for field semantics)."""

    read_calls: int = 0
    pages_read: int = 0
    pages_hit: int = 0
    bytes_read: int = 0

    def record_read(self, *, pages_read: int, pages_hit: int, nbytes: int) -> None:
        """Account one logical read of ``nbytes`` touching pages."""
        self.read_calls += 1
        self.pages_read += pages_read
        self.pages_hit += pages_hit
        self.bytes_read += nbytes

    def snapshot(self) -> "IOStats":
        """An immutable-by-convention copy of the current counters."""
        return IOStats(
            read_calls=self.read_calls,
            pages_read=self.pages_read,
            pages_hit=self.pages_hit,
            bytes_read=self.bytes_read,
        )

    def add(self, other: "IOStats") -> None:
        """Accumulate another counter's totals into this one.

        Used by batch attribution (charging a shared keyword load's I/O
        to one query's :class:`~repro.core.results.QueryStats`) and by
        pool-level stat aggregation.
        """
        self.read_calls += other.read_calls
        self.pages_read += other.pages_read
        self.pages_hit += other.pages_hit
        self.bytes_read += other.bytes_read

    def delta(self, since: "IOStats") -> "IOStats":
        """Counters accumulated since a :meth:`snapshot`."""
        return IOStats(
            read_calls=self.read_calls - since.read_calls,
            pages_read=self.pages_read - since.pages_read,
            pages_hit=self.pages_hit - since.pages_hit,
            bytes_read=self.bytes_read - since.bytes_read,
        )

    def to_dict(self) -> dict:
        """The counters as a JSON-ready dict."""
        return asdict(self)

    @property
    def hit_ratio(self) -> float:
        """Buffer-pool hit ratio over all page touches (0 when idle)."""
        touched = self.pages_read + self.pages_hit
        return self.pages_hit / touched if touched else 0.0
