"""The ``ccc v1`` text format.

Line 1 is the header ``ccc v1``.  Then one line per cell ``cell <id>
<rank>`` and one line per covering pair ``cover <lower-id> <upper-id>``.
``#`` starts a comment, ids are whitespace-free tokens, cone ids serialize
as ``C(<apex>;<base>)`` with base ``0`` for the empty cell.  Files are
UTF-8, newline-terminated and order-insensitive.
"""

from __future__ import annotations

from typing import IO

from .cells import parse_cell_id
from .complexes import Ccc, build_complex
from .errors import CccError, FormatError

HEADER = "ccc v1"


def dumps(s: Ccc) -> str:
    lines = [HEADER]
    for c in s.cells:
        lines.append(f"cell {c} {s.rank(c)}")
    for lo, hi in covering_pairs(s):
        lines.append(f"cover {lo} {hi}")
    return "\n".join(lines) + "\n"


def dump(s: Ccc, fp: IO[str]) -> None:
    fp.write(dumps(s))


def covering_pairs(s: Ccc):
    """Pairs y < x with nothing strictly between, x in canonical order and
    the y of each x sorted by label."""
    return [(y, x) for x in s.cells for y in sorted(s.covers(x))]


def loads(text: str) -> Ccc:
    cell_ranks = []
    covers = []
    lines = text.splitlines()
    if not lines or lines[0].split("#")[0].strip() != HEADER:
        raise FormatError(f"missing '{HEADER}' header")
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "cell" and len(parts) == 3:
                cell_ranks.append((parse_cell_id(parts[1]), int(parts[2])))
            elif parts[0] == "cover" and len(parts) == 3:
                covers.append((parse_cell_id(parts[1]), parse_cell_id(parts[2])))
            else:
                raise FormatError(f"unrecognized line {ln}: {raw!r}")
        except ValueError as e:
            raise FormatError(f"line {ln}: {e}") from None
        except CccError as e:
            raise FormatError(f"line {ln}: {e}") from None
    for c, r in cell_ranks:  # a rank-r cell tops a chain of r + 1 cells
        if r >= len(cell_ranks):
            raise FormatError(f"cell {c} has rank {r} but only {len(cell_ranks)} cells")
    try:
        return build_complex(cell_ranks, covers)
    except CccError as e:
        raise FormatError(str(e)) from None


def load(fp: IO[str]) -> Ccc:
    return loads(fp.read())
