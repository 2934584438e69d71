"""Structured, totally ordered labels for cells.

A label is either a named base cell or a cone over another label.  Cone
labels are created by stellar subdivision: subdividing at ``x`` introduces
one new cell ``C(x;y)`` for every cell ``y`` of the subdivided star's base,
plus the new vertex ``C(x;0)`` (cone over the empty cell).  Labels nest
arbitrarily and carry a total order so that every iteration in the
library is deterministic.

A label is a tuple whose items are its sort key, a prefix-free preorder
walk: ``(0,)`` for the empty base, ``(1, name)`` for a name and
``(2, *apex, *base)`` for a cone.  Hashing, equality and ordering are
``tuple``'s, so they run in C, and a label equals the plain tuple of its
key.  :func:`nest` writes a tower of cones from the keys of its apexes and
base in one pass, and :func:`peel` reads them back in one pass.  Copies
and pickles rebuild a label from its key, and the empty base as itself.

Serialized form: a base cell is its name; a cone is ``C(<apex>;<base>)``
with ``0`` denoting the empty base.  Names are non-empty tokens without
whitespace or any of ``( ) ; #``, and ``0`` is reserved.
"""

from __future__ import annotations

import re

from .errors import FormatError

_BAD_NAME_CHARS = set("();#") | set(" \t\r\n")
_TERM = re.compile(r"[^;)]*")  # a name or ``0``, up to the separator after it


class _EmptyBase(tuple):
    """Marker for the rank -1 empty cell; usable only as a cone base."""

    __slots__ = ()

    def __repr__(self):
        return "EMPTY"

    def __str__(self):
        return "0"

    def __reduce__(self):
        return "EMPTY"


EMPTY = tuple.__new__(_EmptyBase, (0,))


class CellId(tuple):
    """Label of a cell.

    Use :meth:`of` and :meth:`cone` to construct, or :func:`parse_cell_id`
    to read the serialized form back.
    """

    __slots__ = ()

    def __new__(cls, *, name=None, apex=None, base=None):
        return cls.of(name) if name is not None else cls.cone(apex, base)

    @classmethod
    def of(cls, name: str) -> "CellId":
        _check_name(name)
        return tuple.__new__(cls, (1, name))

    @classmethod
    def cone(cls, apex: "CellId", base) -> "CellId":
        if not isinstance(apex, CellId):
            raise FormatError("cone apex must be a CellId")
        if not (base is EMPTY or isinstance(base, CellId)):
            raise FormatError("cone base must be a CellId or EMPTY")
        return nest((apex,), base)

    @property
    def name(self):
        """The name of a base cell; None for a cone."""
        return self[1] if self[0] == 1 else None

    @property
    def is_cone(self) -> bool:
        return self[0] == 2

    @property
    def apex(self):
        """The apex of a cone; None for a base cell."""
        return _label(self[1:_end(self, 1)]) if self[0] == 2 else None

    @property
    def base(self):
        """The base of a cone, a label or EMPTY; None for a base cell."""
        return _label(self[_end(self, 1):]) if self[0] == 2 else None

    def __reduce__(self):
        return _label, (tuple(self),)

    def __str__(self):
        if self[0] == 1:
            return self[1]
        parts = []
        seps = []  # what each open cone writes after its apex and base, last one first
        items = iter(self)
        for tag in items:
            if tag == 2:
                parts.append("C(")
                seps += (")", ";")
                continue
            parts.append(next(items) if tag == 1 else "0")
            while seps:  # a label ended: close the cones it ends too
                parts.append(seps.pop())
                if parts[-1] == ";":
                    break
        return "".join(parts)

    def __repr__(self):
        return str(self)


def _label(key: tuple):
    return EMPTY if key == (0,) else tuple.__new__(CellId, key)


def _end(key: tuple, i: int) -> int:
    """Where the label whose key starts at ``key[i]`` ends."""
    todo = 1  # labels still to pass over
    while todo:
        tag = key[i]
        todo += 1 if tag == 2 else -1
        i += 2 if tag == 1 else 1
    return i


def nest(apexes, base) -> CellId:
    """The label ``C(a1;C(a2;...C(ar;base)))`` of the cones with the
    apexes ``a1, ..., ar`` around ``base``, a label or EMPTY, written in
    one pass over their keys.  The parts are not checked."""
    key = []
    for a in apexes:
        key.append(2)
        key += a
    key += base
    return tuple.__new__(CellId, key)


def peel(label: CellId, stop) -> tuple:
    """The apexes of the outer cones of ``label``, outermost first, and
    what they cone over: the first part that is EMPTY, a name or a cone
    whose key ``stop`` accepts.  Inverse of :func:`nest`; one pass over
    the key."""
    apexes, i = [], 0
    while label[i] == 2 and not stop(label[i:]):
        j = _end(label, i + 1)
        apexes.append(tuple.__new__(CellId, label[i + 1:j]))
        i = j
    return apexes, _label(label[i:])


def _check_name(name) -> None:
    if (not isinstance(name, str) or not name or name == "0"
            or not _BAD_NAME_CHARS.isdisjoint(name)):
        raise FormatError(f"invalid cell name {name!r}")


def parse_cell_id(token: str) -> CellId:
    """Parse the serialized form of a cell label, in one pass that writes
    its key.  Iterative, for any depth.  A plain name, the common token,
    is read in one step; cones and malformed tokens take the full pass."""
    if token and token != "0" and _BAD_NAME_CHARS.isdisjoint(token):
        return tuple.__new__(CellId, (1, token))
    key = []
    seps = []  # the separator each open cone expects next: ';' or ')'
    pos = 0
    while True:
        while token.startswith("C(", pos):
            key.append(2)
            seps.append(";")
            pos += 2
        end = _TERM.match(token, pos).end()
        term, pos = token[pos:end], end
        if not term:
            raise FormatError(f"empty token in cell id {token!r}")
        if term != "0":
            _check_name(term)
            key += (1, term)
        elif not seps:
            raise FormatError("the empty cell is not a standalone cell id")
        elif seps[-1] == ";":
            raise FormatError(f"cone apex may not be empty in {token!r}")
        else:
            key.append(0)
        while seps and seps[-1] == ")":  # a base ended: close its cone
            if not token.startswith(")", pos):
                raise FormatError(f"expected ')' in cone id {token!r}")
            seps.pop()
            pos += 1
        if not seps:
            break
        if not token.startswith(";", pos):
            raise FormatError(f"expected ';' in cone id {token!r}")
        seps[-1] = ")"
        pos += 1
    if pos != len(token):
        raise FormatError(f"trailing characters in cell id {token!r}")
    return tuple.__new__(CellId, key)
