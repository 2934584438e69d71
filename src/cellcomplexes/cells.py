"""Structured, totally ordered labels for cells.

A label is either a named base cell or a cone over another label.  Cone
labels are created by stellar subdivision: subdividing at ``x`` introduces
one new cell ``C(x;y)`` for every cell ``y`` of the subdivided star's base,
plus the new vertex ``C(x;0)`` (cone over the empty cell).  Labels nest
arbitrarily, compare structurally, and carry a total order so that every
iteration in the library is deterministic.

Serialized form: a base cell is its name; a cone is ``C(<apex>;<base>)``
with ``0`` denoting the empty base.  Names are non-empty tokens without
whitespace or any of ``( ) ; #``, and ``0`` is reserved.
"""

from __future__ import annotations

from .errors import FormatError

_BAD_NAME_CHARS = set("();#") | set(" \t\r\n")


class _EmptyBase:
    """Marker for the rank -1 empty cell; usable only as a cone base."""

    __slots__ = ()
    _kind = 0
    _hash = hash(("a",))

    def __repr__(self):
        return "EMPTY"

    def __str__(self):
        return "0"


EMPTY = _EmptyBase()


class CellId:
    """Label of a cell.

    Use :meth:`base` and :meth:`cone` to construct, or :func:`parse_cell_id`
    to read the serialized form back.
    """

    __slots__ = ("name", "apex", "base", "_kind", "_hash")

    def __init__(self, *, name=None, apex=None, base=None):
        if name is not None:
            if not name or name == "0" or not _BAD_NAME_CHARS.isdisjoint(name):
                raise FormatError(f"invalid cell name {name!r}")
            kind, h = 1, hash(("b", name))
        else:
            if not isinstance(apex, CellId):
                raise FormatError("cone apex must be a CellId")
            if not (base is EMPTY or isinstance(base, CellId)):
                raise FormatError("cone base must be a CellId or EMPTY")
            kind, h = 2, hash(("c", apex._hash, base._hash))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_hash", h)

    @classmethod
    def of(cls, name: str) -> "CellId":
        return cls(name=name)

    @classmethod
    def cone(cls, apex: "CellId", base) -> "CellId":
        return cls(apex=apex, base=base)

    @property
    def is_cone(self) -> bool:
        return self.name is None

    def __setattr__(self, *a):
        raise AttributeError("CellId is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CellId) or self._hash != other._hash:
            return False
        return _compare(self, other) == 0

    def __lt__(self, other):
        return _compare(self, other) < 0

    def __le__(self, other):
        return _compare(self, other) <= 0

    def __gt__(self, other):
        return _compare(self, other) > 0

    def __ge__(self, other):
        return _compare(self, other) >= 0

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.name is not None:
            return self.name
        parts = []
        todo = [self]  # labels and separators still to print, last one first
        while todo:
            c = todo.pop()
            if c.__class__ is str:
                parts.append(c)
            elif c is EMPTY:
                parts.append("0")
            elif c.name is not None:
                parts.append(c.name)
            else:
                parts.append("C(")
                todo += (")", c.base, ";", c.apex)
        return "".join(parts)

    def __repr__(self):
        return str(self)


def _compare(a, b) -> int:
    """-1, 0 or 1 as ``a`` sorts below, equal to or above ``b``.

    The empty base sorts first, then names, then cones, which compare
    apex first and base second.  The walk keeps its own stack, so labels
    of any depth compare.
    """
    todo = []  # base pairs still to compare once the apexes tie
    while True:
        if a is not b:
            if a._kind != b._kind:
                return -1 if a._kind < b._kind else 1
            if a._kind == 1:
                if a.name != b.name:
                    return -1 if a.name < b.name else 1
            else:
                todo.append((a.base, b.base))
                a, b = a.apex, b.apex
                continue
        if not todo:
            return 0
        a, b = todo.pop()


def parse_cell_id(token: str) -> CellId:
    """Parse the serialized form of a cell label."""
    cid, pos = _parse_id(token, 0)
    if pos != len(token):
        raise FormatError(f"trailing characters in cell id {token!r}")
    if cid is EMPTY:
        raise FormatError("the empty cell is not a standalone cell id")
    return cid


def _parse_id(s: str, pos: int):
    """The label starting at ``pos`` and the position after it.  Iterative,
    for any depth: one entry per open cone, None until its apex is read."""
    apexes = []
    while True:
        while s.startswith("C(", pos):
            apexes.append(None)
            pos += 2
        end = pos
        while end < len(s) and s[end] not in ";)":
            end += 1
        tok, pos = s[pos:end], end
        if not tok:
            raise FormatError(f"empty token in cell id {s!r}")
        cur = EMPTY if tok == "0" else CellId.of(tok)
        while apexes and apexes[-1] is not None:  # cur is a base: close its cone
            if not s.startswith(")", pos):
                raise FormatError(f"expected ')' in cone id {s!r}")
            cur = CellId.cone(apexes.pop(), cur)
            pos += 1
        if not apexes:
            return cur, pos
        if cur is EMPTY:  # cur is an apex
            raise FormatError(f"cone apex may not be empty in {s!r}")
        if not s.startswith(";", pos):
            raise FormatError(f"expected ';' in cone id {s!r}")
        apexes[-1] = cur
        pos += 1
