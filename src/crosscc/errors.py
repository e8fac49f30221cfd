"""Exception hierarchy for the crosscc library.

Everything raised on purpose derives from CrossCCError so callers (and the
CLI) can catch one type and keep going file by file.
"""


class CrossCCError(Exception):
    """Base class for all crosscc errors."""


class DisconnectedGraph(CrossCCError):
    """The operation requires a connected graph (treated as unoriented)."""


class EmptyGraph(CrossCCError):
    """The operation requires at least one vertex."""


class NotASpanningTree(CrossCCError):
    """An explicit edge set does not form a spanning tree of the host graph."""


class UnknownEdge(CrossCCError):
    """An edge id does not exist in the graph."""


class NotACycle(CrossCCError):
    """An edge set is not a single simple unoriented cycle."""


class NegativeWeight(CrossCCError):
    """Shortest-path based algorithms require non-negative edge weights."""


class TooLarge(CrossCCError):
    """The brute-force oracle refused an input beyond its enumeration guard."""


class ZeroNu(CrossCCError):
    """The refactoring indicator is undefined for cycle rank 0."""


class SourceError(CrossCCError):
    """Base for diagnostics that carry a source position."""

    def __init__(self, message, line=None, col=None, filename=None):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(str(self))

    def __str__(self):
        prefix = self.filename or "<input>"
        if self.line is not None:
            pos = f"{self.line}:{self.col}" if self.col is not None else str(self.line)
            return f"{prefix}:{pos}: {self.message}"
        return f"{prefix}: {self.message}"


class MiniLangSyntaxError(SourceError):
    """Invalid MiniLang source."""


class DuplicateFunction(SourceError):
    """Two functions in the same file share a name."""


class UnresolvedLabel(SourceError):
    """A break/continue names no enclosing labeled loop, or lacks a loop at all."""


class UnreachableCode(SourceError):
    """A statement (or the function exit) is cut off from the entry."""


class DotSyntaxError(SourceError):
    """Invalid input in the DOT subset."""


class MissingStartExit(CrossCCError):
    """Control-flow analysis of a DOT graph needs start= and exit= attributes."""


class EmptyReport(CrossCCError):
    """Plotting was requested for a report with no records."""


class MalformedReport(CrossCCError):
    """A saved report is JSON, but not shaped like a crosscc report."""
