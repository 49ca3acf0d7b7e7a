"""Round accounting across multi-phase algorithms.

The constructions in the paper are compositions of node programs (BFS
tree, then CoreFast, then Verification, repeated …).  Standard CONGEST
accounting composes phases sequentially and charges a synchronisation
barrier between them: termination is detected by a convergecast up the
global BFS tree followed by a broadcast of the go-signal, costing
``2 * depth(T) + 1`` rounds.  :class:`RoundLedger` records each phase's
simulated rounds and message counts together with these barrier
charges, so every experiment can report both the raw simulated rounds
and the barrier-inclusive total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class PhaseRecord:
    """Rounds and messages consumed by one named phase."""

    name: str
    rounds: int
    messages: int
    barrier_rounds: int = 0


@dataclass
class RoundLedger:
    """Accumulates per-phase costs of a composed distributed algorithm."""

    barrier_depth: int = 0
    records: List[PhaseRecord] = field(default_factory=list)
    _total: tuple = field(default=(None, 0, 0), init=False, compare=False, repr=False)

    def charge(self, name: str, rounds: int, messages: int = 0) -> None:
        """Record a phase with an explicit round count (no barrier)."""
        self.records.append(PhaseRecord(name, rounds, messages, 0))

    def charge_phase(self, name: str, rounds: int, messages: int = 0) -> None:
        """Record a phase followed by a synchronisation barrier."""
        barrier = 2 * self.barrier_depth + 1
        self.records.append(PhaseRecord(name, rounds, messages, barrier))

    def merge(self, other: "RoundLedger", prefix: str = "") -> None:
        """Absorb another ledger's records (optionally name-prefixed)."""
        for record in other.records:
            self.records.append(
                PhaseRecord(
                    prefix + record.name,
                    record.rounds,
                    record.messages,
                    record.barrier_rounds,
                )
            )

    @property
    def total_rounds(self) -> int:
        """Sum of phase rounds including barrier charges.  ``_total``
        holds ``(records, count, sum over records[:count])``: records are
        append-only, so a read adds only the records new since the last."""
        records, count, total = self._total
        if records is not self.records or count > len(records):
            records, count, total = self.records, 0, 0
        total += sum(r.rounds + r.barrier_rounds for r in records[count:])
        self._total = (records, len(records), total)
        return total

    @property
    def simulated_rounds(self) -> int:
        """Sum of phase rounds excluding barrier charges."""
        return sum(r.rounds for r in self.records)

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.records)

    def summary(self) -> str:
        """Human-readable multi-line cost breakdown."""
        lines = [f"{'phase':<40} {'rounds':>8} {'barrier':>8} {'messages':>10}"]
        for record in self.records:
            lines.append(
                f"{record.name:<40} {record.rounds:>8} "
                f"{record.barrier_rounds:>8} {record.messages:>10}"
            )
        lines.append(
            f"{'TOTAL':<40} {self.simulated_rounds:>8} "
            f"{self.total_rounds - self.simulated_rounds:>8} "
            f"{self.total_messages:>10}"
        )
        return "\n".join(lines)
