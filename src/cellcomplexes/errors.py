"""Exception hierarchy for the cellcomplexes package."""

from __future__ import annotations


class CccError(Exception):
    """Base class for all errors raised by this package."""


class BuildError(CccError):
    """A complex could not be assembled from the given data."""


class DuplicateCellError(BuildError):
    pass


class UnknownCellError(CccError):
    pass


class RankOrderError(BuildError):
    """A rank that is not an integer in 0..MAX_RANK, or a covering pair
    whose lower cell does not have strictly smaller rank."""


class CoverCycleError(BuildError):
    """The covering relation contains a cycle."""


class FormatError(CccError):
    """Malformed text in the ``ccc v1`` file format or in a cell label."""


class EmptyComplexError(CccError):
    """The operation is undefined on a complex with no cells."""


class NotEquidimensionalError(CccError):
    """The operation needs all maximal cells to share the top rank."""


class NotManifoldLikeError(CccError):
    """The operation needs a nonsingular complex with empty boundary."""


class NotOrientableError(CccError):
    """A flag graph is disconnected or not bipartite.

    ``odd_cycle`` carries a closed odd walk of flags when bipartiteness
    fails; ``components`` carries the number of components, an ``int``,
    when connectivity fails.  ``cell`` names the offending cell for per-cell orientations.
    """

    def __init__(self, message, *, odd_cycle=None, components=None, cell=None):
        super().__init__(message)
        self.odd_cycle = odd_cycle
        self.components = components
        self.cell = cell


class MissingSignError(CccError):
    """A sign table does not cover some incidence pair."""


class SimplicialStructureError(CccError):
    """The complex was not produced by the simplicial builder."""
