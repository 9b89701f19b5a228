"""Frequency tables and corpus summary statistics (§7.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import CorpusError


@dataclass(frozen=True)
class CorpusSummary:
    """The aggregate numbers the paper reports for its corpus."""

    distinct_declarations: int
    total_uses: int
    max_uses: int
    most_used_symbol: str
    fraction_under_100: float

    def __str__(self) -> str:
        return (f"{self.distinct_declarations} declarations, "
                f"{self.total_uses} uses, max {self.max_uses} "
                f"({self.most_used_symbol}), "
                f"{self.fraction_under_100 * 100:.1f}% under 100 uses")


class FrequencyTable:
    """Immutable symbol -> use-count mapping with summary statistics."""

    def __init__(self, counts: Mapping[str, int]):
        for symbol, count in counts.items():
            if count < 0:
                raise CorpusError(f"negative count for {symbol!r}: {count}")
        self._counts = dict(counts)

    # -- queries ---------------------------------------------------------------

    def get(self, symbol: str, default: int = 0) -> int:
        """The paper's ``f(x)``: uses of *symbol* in the corpus."""
        return self._counts.get(symbol, default)

    def __getitem__(self, symbol: str) -> int:
        return self.get(symbol)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def as_mapping(self) -> dict[str, int]:
        return dict(self._counts)

    def symbols(self) -> list[str]:
        return list(self._counts)

    def total_uses(self) -> int:
        return sum(self._counts.values())

    def max_entry(self) -> tuple[str, int]:
        if not self._counts:
            raise CorpusError("empty frequency table")
        symbol = max(self._counts, key=lambda s: (self._counts[s], s))
        return symbol, self._counts[symbol]

    def fraction_below(self, threshold: int) -> float:
        if not self._counts:
            raise CorpusError("empty frequency table")
        below = sum(1 for count in self._counts.values() if count < threshold)
        return below / len(self._counts)

    def most_common(self, limit: int = 10) -> list[tuple[str, int]]:
        ordered = sorted(self._counts.items(),
                         key=lambda item: (-item[1], item[0]))
        return ordered[:limit]

    def summary(self) -> CorpusSummary:
        symbol, max_uses = self.max_entry()
        return CorpusSummary(
            distinct_declarations=len(self._counts),
            total_uses=self.total_uses(),
            max_uses=max_uses,
            most_used_symbol=symbol,
            fraction_under_100=self.fraction_below(100),
        )

    # -- combination -------------------------------------------------------------

    def merged(self, other: "FrequencyTable") -> "FrequencyTable":
        """Pointwise sum of two tables (combining project counts)."""
        combined = dict(self._counts)
        for symbol, count in other._counts.items():
            combined[symbol] = combined.get(symbol, 0) + count
        return FrequencyTable(combined)

    def __repr__(self) -> str:
        return f"FrequencyTable({len(self._counts)} symbols)"
