"""Summaries of timing samples and tallies of checked operations."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Problems kept for the report; failures past this are only counted.
MAX_PROBLEMS = 30


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """Highest ladder percentile (nearest rank) with at least ``TAIL_BEYOND``
    samples above its rank, as (percentile, value); None when too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(round(q * n / 100.0, 9)))  # round away float dust
        if n - rank >= TAIL_BEYOND:
            best = (q, ordered[rank - 1])
    return best


def summarize(samples: Sequence[float]) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "samples": len(samples),
    }


@dataclass
class Outcome:
    """Result of one operation: its label and either a value or the error it raised."""

    label: str
    value: object = None
    error: str | None = None


def attempt(label: str, fn: Callable, *args, **kwargs) -> Outcome:
    """Run one operation, recording instead of raising what it raises."""
    try:
        return Outcome(label, fn(*args, **kwargs))
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(label, error=f"{type(exc).__name__}: {exc}")


@dataclass
class Tally:
    """Operations attempted and failed, with the first problems found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, label: str, problems: Sequence[str]) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def record(self, outcomes: Iterable[Outcome],
               check: Callable[[Outcome], Iterable[str]]) -> None:
        """Count operations; one fails if it raised, if ``check`` names a
        problem with its value, or if ``check`` itself raises."""
        for outcome in outcomes:
            self.attempted += 1
            if outcome.error is not None:
                problems = [outcome.error]
            else:
                try:
                    problems = list(check(outcome))
                except Exception as exc:  # a check that cannot run is a failed check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.fail(outcome.label, problems)
