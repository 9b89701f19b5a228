"""Synthetic corpus generation calibrated to the §7.3 marginals.

The real corpus statistics the paper reports:

* 7,516 distinct declarations used,
* 90,422 total uses,
* maximum single-symbol count 5,162 (the ``&&`` operator),
* 98 % of declarations have fewer than 100 uses.

We reproduce that profile with a truncated Zipf distribution: counts
``c_i = max(1, round(M / (i + 1)^a))`` over ranks ``i = 0..N-1`` with
``M = 5162`` pinned and the exponent ``a`` solved numerically so the total
lands on 90,422.  Hand-modelled JDK symbols that real Scala/Java code uses
constantly (``println``, ``FileInputStream.new``, collection methods, ...)
are placed on the popular ranks, followed by every other modelled member,
followed by generated Scala-flavoured names to fill out the 7,516.

The generator can also *materialise* the corpus as per-project usage-event
streams (`events_by_project`), which is what the miner in
:mod:`repro.corpus.mining` consumes — keeping the mining pipeline honest:
frequencies used by the synthesizer are counted from events, not copied
from the calibration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.errors import CorpusError
from repro.corpus.projects import all_projects
from repro.corpus.stats import FrequencyTable

#: Published marginals (§7.3).
PAPER_DISTINCT_DECLARATIONS = 7516
PAPER_TOTAL_USES = 90422
PAPER_MAX_USES = 5162
PAPER_MOST_USED = "scala.Boolean.&&"

#: JDK / Scala symbols that plausibly dominate a Scala+Java corpus, in
#: descending popularity.  The very top spot is the paper's ``&&``.
POPULAR_SYMBOLS: tuple[str, ...] = (
    "scala.Boolean.&&",
    "scala.Boolean.||",
    "scala.Any.==",
    "java.lang.String.length",
    "java.io.PrintStream.println",
    "scala.Option.map",
    "scala.collection.List.map",
    "java.lang.StringBuilder.append",
    "scala.collection.List.foreach",
    "java.lang.Object.toString",
    "scala.Option.getOrElse",
    "java.lang.String.substring",
    "scala.collection.List.filter",
    "java.util.ArrayList.new",
    "java.lang.Object.equals",
    "java.io.File.new",
    "scala.collection.Map.get",
    "java.lang.String.trim",
    "java.awt.Container.getLayout",
    "java.io.FileInputStream.new",
    "java.io.BufferedReader.new",
    "java.lang.Integer.parseInt",
    "java.io.BufferedWriter.new",
    "java.io.InputStreamReader.new",
    "java.io.FileReader.new",
    "java.io.BufferedReader.readLine",
    "java.io.FileOutputStream.new",
    "java.io.FileWriter.new",
    "java.io.BufferedInputStream.new",
    "java.io.PrintWriter.new",
    "java.io.BufferedOutputStream.new",
    "java.util.HashMap.new",
    "java.io.DataInputStream.new",
    "java.io.DataOutputStream.new",
    "java.net.URL.new",
    "java.io.PrintStream.new",
    "java.io.ObjectInputStream.new",
    "java.io.ObjectOutputStream.new",
    "java.io.StringReader.new",
    "javax.swing.JButton.new",
    "javax.swing.JLabel.new",
    "javax.swing.JPanel.new",
    "java.net.Socket.new",
    "java.net.ServerSocket.new",
    "javax.swing.JFrame.new",
    "java.io.SequenceInputStream.new",
    "java.io.LineNumberReader.new",
    "java.awt.Point.new",
    "javax.swing.JTextArea.new",
    "javax.swing.JCheckBox.new",
    "javax.swing.Timer.new",
    "javax.swing.ImageIcon.new",
    "java.net.DatagramSocket.new",
    "java.io.StreamTokenizer.new",
    "javax.swing.JToggleButton.new",
    "java.awt.GridBagLayout.new",
    "java.awt.GridBagConstraints.new",
    "javax.swing.JTable.new",
    "javax.swing.JTree.new",
    "java.io.FileInputStream.new#overload2",
)

#: Symbols pinned to the deepest corpus ranks (1-2 uses).  These are
#: constructors that real code almost never calls directly (in-memory sinks
#: and pipe endpoints); letting the tail shuffle occasionally place them on
#: a mid-frequency rank would make snippets like
#: ``new PrintWriter(new CharArrayWriter())`` spuriously cheap.
RARE_SYMBOLS: tuple[str, ...] = (
    "java.io.ByteArrayOutputStream.new",
    "java.io.StringWriter.new",
    "java.io.CharArrayWriter.new",
    "java.io.CharArrayReader.new",
    "java.io.PipedWriter.new",
    "java.io.PipedReader.new",
    "java.io.PipedOutputStream.new",
    "java.io.PipedInputStream.new",
    "java.io.FilterWriter.new",
    "java.io.StringBuffer.new",
)

_SCALA_NAME_STEMS = [
    "scala.collection.Seq", "scala.collection.Iterator", "scala.Option",
    "scala.util.Either", "scala.concurrent.Future", "akka.actor.Actor",
    "net.liftweb.http.S", "org.scalacheck.Gen", "scalaz.Functor",
    "scala.tools.nsc.Global", "org.specs.Specification",
    "com.twitter.kestrel.Queue", "scala.xml.Node", "scala.io.Source",
]
_MEMBER_STEMS = ["apply", "map", "flatMap", "filter", "fold", "headOption",
                 "toList", "mkString", "collect", "zip", "exists", "find",
                 "reduce", "take", "drop", "indexOf", "contains", "reverse"]


@dataclass(frozen=True)
class CalibratedRank:
    """One symbol with its calibrated corpus count."""

    symbol: str
    count: int


def _zipf_counts(distinct: int, total: int, peak: int) -> list[int]:
    """Counts ``max(1, round(peak / (i+1)^a))`` with ``a`` solved for total."""

    def total_for(exponent: float) -> int:
        return sum(max(1, round(peak / (rank + 1) ** exponent))
                   for rank in range(distinct))

    low, high = 0.3, 3.0
    for _ in range(60):
        mid = (low + high) / 2
        if total_for(mid) > total:
            low, high = mid, high
            low = mid
        else:
            high = mid
    # total_for is decreasing in the exponent; low/high bracket the target.
    for _ in range(60):
        mid = (low + high) / 2
        if total_for(mid) > total:
            low = mid
        else:
            high = mid
    exponent = (low + high) / 2
    counts = [max(1, round(peak / (rank + 1) ** exponent))
              for rank in range(distinct)]
    # Nudge the head so the grand total matches exactly (the tail is pinned
    # at 1 use each and must not change).
    difference = total - sum(counts)
    rank = 1  # never touch rank 0: the peak is a published number
    while difference != 0 and rank < distinct:
        adjustment = max(-counts[rank] + 1, difference) if difference < 0 \
            else difference
        step = max(1, abs(adjustment) // 97)
        step = min(step, abs(difference))
        if difference > 0:
            counts[rank] += step
            difference -= step
        else:
            reducible = counts[rank] - 1
            step = min(step, reducible)
            counts[rank] -= step
            difference += step
        rank = rank + 1 if rank + 1 < min(distinct, 2000) else 1
    if sum(counts) != total:
        raise CorpusError("failed to calibrate the synthetic corpus totals")
    return counts


class SyntheticCorpus:
    """A calibrated corpus with per-project usage-event streams."""

    def __init__(self, extra_symbols: Iterable[str] = (), seed: int = 2013,
                 distinct: int = PAPER_DISTINCT_DECLARATIONS,
                 total: int = PAPER_TOTAL_USES,
                 peak: int = PAPER_MAX_USES):
        self._rng = random.Random(seed)
        self._ranks = self._calibrate(list(extra_symbols), distinct, total,
                                      peak)

    # -- calibration -------------------------------------------------------------

    def _calibrate(self, extra_symbols: list[str], distinct: int, total: int,
                   peak: int) -> list[CalibratedRank]:
        head: list[str] = []
        seen: set[str] = set()
        for symbol in POPULAR_SYMBOLS:
            if symbol not in seen:
                seen.add(symbol)
                head.append(symbol)
        rare = [symbol for symbol in RARE_SYMBOLS if symbol not in seen]
        seen.update(rare)
        # Everything else — modelled API symbols and Scala filler — shares
        # the tail, shuffled so frequency does not follow registration order.
        tail: list[str] = []
        for symbol in extra_symbols:
            if symbol not in seen:
                seen.add(symbol)
                tail.append(symbol)
        index = 0
        while len(head) + len(tail) + len(rare) < distinct:
            stem = _SCALA_NAME_STEMS[index % len(_SCALA_NAME_STEMS)]
            member = _MEMBER_STEMS[(index // 7) % len(_MEMBER_STEMS)]
            candidate = f"{stem}.{member}{index}"
            if candidate not in seen:
                seen.add(candidate)
                tail.append(candidate)
            index += 1
        self._rng.shuffle(tail)
        symbols = (head + tail + rare)[:distinct]
        counts = _zipf_counts(distinct, total, peak)
        return [CalibratedRank(symbol, count)
                for symbol, count in zip(symbols, counts)]

    # -- views -------------------------------------------------------------------

    def calibrated_table(self) -> FrequencyTable:
        """The target frequency table (what mining should reproduce)."""
        return FrequencyTable({rank.symbol: rank.count
                               for rank in self._ranks})

    def events_by_project(self) -> dict[str, list[str]]:
        """Materialise usage events, split across the Table 3 projects.

        Every symbol's count is distributed over projects proportionally to
        project activity (with seeded randomness), so mining the streams and
        summing per-project tables reproduces the calibrated table exactly.
        """
        projects = all_projects()
        weights = [project.activity for project in projects]
        events: dict[str, list[str]] = {project.name: []
                                        for project in projects}
        for rank in self._ranks:
            homes = self._rng.choices(projects, weights=weights,
                                      k=rank.count)
            for project in homes:
                events[project.name].append(rank.symbol)
        for stream in events.values():
            self._rng.shuffle(stream)
        return events

    def __len__(self) -> int:
        return len(self._ranks)


#: The historical seeds behind the shared default corpus.  They are the
#: implicit ``seed=None`` of :func:`default_corpus`; every weight golden
#: and benchmark artefact in the repository was mined under them.
DEFAULT_SHUFFLE_SEED = 7516
DEFAULT_CORPUS_SEED = 2013


def default_corpus(model=None, seed: Optional[int] = None) -> SyntheticCorpus:
    """The standard corpus: JDK member symbols + Scala filler.

    When *model* (an :class:`~repro.javamodel.model.ApiModel`) is given, all
    its member symbols are guaranteed a rank — modelled API symbols then
    have nonzero ``f(x)`` just as real JDK symbols do in the paper's corpus.
    Symbols not on the curated popular list are spread over the whole tail
    by a seeded shuffle: real usage frequency does not follow alphabetical
    order, and clustering all modelled members near the head would make
    rarely-used constructors (``new CharArrayWriter()``) implausibly cheap.

    *seed* threads **every** stochastic path — the tail shuffle here and
    all of :class:`SyntheticCorpus`'s sampling (rank assignment, event
    homing, stream shuffles) — from one explicit value, so two corpora
    built from the same seed are identical event-for-event.  ``None``
    keeps the historical constants (:data:`DEFAULT_SHUFFLE_SEED`,
    :data:`DEFAULT_CORPUS_SEED`) so the shared
    :func:`default_frequencies` table, and everything mined from it,
    never shifts.
    """
    extra: list[str] = []
    if model is not None:
        extra = sorted({member.symbol for member in model.members()})
        shuffle_seed = DEFAULT_SHUFFLE_SEED if seed is None else seed
        random.Random(shuffle_seed).shuffle(extra)
    corpus_seed = DEFAULT_CORPUS_SEED if seed is None else seed
    return SyntheticCorpus(extra_symbols=extra, seed=corpus_seed)


_DEFAULT_TABLE: Optional[FrequencyTable] = None


def default_frequencies() -> FrequencyTable:
    """Memoised frequency table over the shared JDK model, mined from events."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        from repro.corpus.mining import mine_frequencies
        from repro.javamodel.jdk import shared_jdk

        corpus = default_corpus(shared_jdk())
        _DEFAULT_TABLE = mine_frequencies(corpus.events_by_project())
    return _DEFAULT_TABLE
