"""The ``ccc v1`` text format.

Line 1 is the header ``ccc v1``.  Then one line per cell ``cell <id>
<rank>`` and one line per covering pair ``cover <lower-id> <upper-id>``.
``#`` starts a comment, ids are whitespace-free tokens, cone ids serialize
as ``C(<apex>;<base>)`` with base ``0`` for the empty cell.  Files are
UTF-8 (the command line reads and writes them so whatever the locale),
newline-terminated and order-insensitive, and hold at most ``MAX_CELLS``
cells.
"""

from __future__ import annotations

from typing import IO

from .cells import parse_cell_id
from .complexes import MAX_CELLS, Ccc, _climb_failure, build_complex
from .errors import CccError, FormatError

HEADER = "ccc v1"


def dumps(s: Ccc) -> str:
    """The text of ``s``: its cells in canonical order, then its covers.
    Where :func:`loads` would refuse that text, raises the same FormatError
    before anything is written, checking in the same order: the cell
    count, each rank, then each cover."""
    names = [str(c) for c in s.cells]  # each label is written out once
    ranks = s._ranks
    cell_ranks = list(zip(names, ranks))
    _check_cells(cell_ranks)
    lines = [HEADER]
    lines += [f"cell {name} {r}" for name, r in cell_ranks]
    for i, j in _cover_indices(s):
        if ranks[j] >= ranks[i]:
            raise FormatError(_climb_failure(names[j], names[i], ranks[j], ranks[i]))
        lines.append(f"cover {names[j]} {names[i]}")
    return "\n".join(lines) + "\n"


def dump(s: Ccc, fp: IO[str]) -> None:
    fp.write(dumps(s))


def covering_pairs(s: Ccc):
    """Pairs y < x with nothing strictly between, x in canonical order and
    the y of each x sorted by label."""
    cells = s.cells
    return [(cells[j], cells[i]) for i, j in _cover_indices(s)]


def _cover_indices(s: Ccc):
    """The index pairs (x, y) of :func:`covering_pairs`."""
    cells = s.cells
    return [(i, j) for i in range(len(cells))
            for j in sorted(s._cover_ix[i], key=cells.__getitem__)]


def loads(text: str) -> Ccc:
    """Read a complex.  Each line is split once.  Labels are interned:
    each distinct token is parsed once and every line naming it gets the
    same ``CellId``, so the lookups that build the complex match on
    identity before they compare keys.  :func:`build_complex` then numbers
    the cells in file order and reads the covers by position.  A file of
    more than ``MAX_CELLS`` cells is refused before it is built.  Every
    error is a FormatError."""
    cell_ranks = []
    covers = []
    ids = {}  # token -> its parsed label

    def cell_id(token):
        c = ids.get(token)
        if c is None:
            c = ids[token] = parse_cell_id(token)
        return c

    lines = text.splitlines()
    if not lines or lines[0].split("#")[0].strip() != HEADER:
        raise FormatError(f"missing '{HEADER}' header")
    for ln, raw in enumerate(lines[1:], start=2):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        try:
            if parts[0] == "cell" and len(parts) == 3:
                cell_ranks.append((cell_id(parts[1]), int(parts[2])))
            elif parts[0] == "cover" and len(parts) == 3:
                covers.append((cell_id(parts[1]), cell_id(parts[2])))
            else:
                raise FormatError(f"unrecognized line {raw!r}")
        except (ValueError, CccError) as e:
            raise FormatError(f"line {ln}: {e}") from None
    _check_cells(cell_ranks)
    try:
        return build_complex(cell_ranks, covers)
    except CccError as e:
        raise FormatError(str(e)) from None


def _check_cells(cell_ranks: list):
    """Raises FormatError for a file whose (cell, rank) pairs, in file
    order, are ``cell_ranks``: for more than ``MAX_CELLS`` cells, else for
    the first cell of rank at least the cell count."""
    n = len(cell_ranks)
    if n > MAX_CELLS:  # validation's bitsets of the order grow as the square
        raise FormatError(f"the file has {n} cells, more than {MAX_CELLS}")
    for c, r in cell_ranks:  # a rank-r cell tops a chain of r + 1 cells
        if r >= n:
            raise FormatError(f"cell {c} has rank {r} but only {n} cells")


def load(fp: IO[str]) -> Ccc:
    return loads(fp.read())
