"""Fingerprints of what the library builds on a fixed set of complexes.

Each complex gets one text per result, and the snapshot keeps the
sha256 of each text: every sign table the library builds
(``orient_all_cells``, ``simplicial_signs``, ``barycentric``, a stellar
step, every tower stage, ``dual_orientations`` and the ``flipped`` and
``restrict`` views), ``dumps`` of every complex built, the certificate of
every error, ``str(verify_duality)``, ``homology_pairing_matrix`` in
degrees -1..dim+1 and ``compare_phi_bigphi``.  A sign table gets two
texts: ``list(table.signs.items())`` in the order the table lists them,
and, under the same name plus ``.canonical``, the same pairs in canonical
order: by the cell's position in ``complex.cells``, then by the face's.

    PYTHONPATH=src python tests/snapshot.py > tests/golden/snapshot.json

writes the snapshot that ``test_golden_snapshot.py`` compares against.
"""

from __future__ import annotations

import hashlib
import json
import sys

from cellcomplexes import fixtures
from cellcomplexes.errors import CccError
from cellcomplexes.fileformat import dumps
from cellcomplexes.flags import orient, orient_all_cells, simplicial_signs
from cellcomplexes.duality import dual_orientations, homology_pairing_matrix, verify_duality
from cellcomplexes.subdivision import (barycentric, barycentric_via_stellar,
                                       compare_phi_bigphi, stellar)


def complexes() -> dict:
    out = {f"fixture:{n}": make for n, make in sorted(fixtures.FIXTURES.items())}
    out.update({f"simplex:{n}": (lambda n=n: fixtures.simplex(n)) for n in range(1, 5)})
    out.update({f"boundary:{n}": (lambda n=n: fixtures.simplex_boundary(n))
                for n in range(2, 6)})
    out["torus:4"] = lambda: fixtures.torus(4)
    return out


def put_table(out: dict, name: str, table):
    """The pairs of a sign table, then its vertex signs, as the table lists
    them (``name``) and in canonical order (``name.canonical``)."""
    where = {c: i for i, c in enumerate(table.complex.cells)}
    pairs, verts = list(table.signs.items()), list(table.vertex_signs.items())
    out[name] = _table_text(pairs, verts)
    out[name + ".canonical"] = _table_text(
        sorted(pairs, key=lambda kv: (where[kv[0][0]], where[kv[0][1]])),
        sorted(verts, key=lambda kv: where[kv[0]]))


def _table_text(pairs, verts) -> str:
    return repr([(str(x), str(y), v) for (x, y), v in pairs]) + "\n" + \
        repr([(str(v), e) for v, e in verts])


def error_text(e: CccError) -> str:
    cycle = getattr(e, "odd_cycle", None)
    return repr((type(e).__name__, str(e), str(getattr(e, "cell", None)),
                 cycle and [[str(c) for c in f] for f in cycle],
                 getattr(e, "components", None)))


def _attempt(texts: dict, name: str, fn):
    """``fn()``, or None after recording the error's certificate as ``name``."""
    try:
        return fn()
    except CccError as e:
        texts[name + ".error"] = error_text(e)
        return None


def texts_of(s) -> dict:
    """Every result the snapshot keeps for one complex, as text."""
    out = {"dumps": dumps(s)}
    table = _attempt(out, "orient_all_cells", lambda: orient_all_cells(s))
    omega = _attempt(out, "orient", lambda: orient(s))
    if omega is not None:
        out["orient.colors"] = repr(sorted(([str(c) for c in f], v)
                                           for f, v in omega.colors.items()))
    simp = _attempt(out, "simplicial_signs", lambda: simplicial_signs(s))
    if simp is not None:
        put_table(out, "simplicial_signs", simp)
    bary = _attempt(out, "barycentric", lambda: barycentric(s))
    if bary is not None:
        out["barycentric.dumps"] = dumps(bary[0])
        put_table(out, "barycentric.signs", bary[1])
    if table is not None:
        put_table(out, "orient_all_cells", table)
        put_table(out, "flipped", table.flipped(s.cells[::3]))
        top = s.cells[-1]
        put_table(out, "restrict", table.restrict(s.closure_complex(top)))
        step = _attempt(out, "stellar", lambda: stellar(s, top, table)) if s.rank(top) else None
        if step is not None:
            out["stellar.dumps"] = dumps(step[0].complex)
            put_table(out, "stellar.signs", step[1])
        tower = _attempt(out, "tower", lambda: barycentric_via_stellar(s, table))
        for k, stage in enumerate(tower.stages if tower else ()):
            put_table(out, f"tower.{k}.signs", stage.signs)
            out[f"tower.{k}.dumps"] = dumps(stage.complex)
        out["compare_phi_bigphi"] = repr(_attempt(out, "compare_phi_bigphi",
                                                  lambda: compare_phi_bigphi(s, table)))
    report = verify_duality(s)
    cert = report.certificate
    out["verify_duality"] = str(report) + "\n" + repr(
        [[str(c) for c in f] for f in cert] if isinstance(cert, list) else cert)
    dos = _attempt(out, "dual_orientations", lambda: dual_orientations(s))
    if dos is not None:
        put_table(out, "dual_orientations.signs", dos.signs)
        put_table(out, "dual_orientations.dual_signs", dos.dual_signs)
        out["dual.dumps"] = dumps(dos.dual_complex)
        for i in range(-1, s.dim + 2):
            out[f"pairing.{i}"] = repr(homology_pairing_matrix(s, i).tolist())
    return out


def snapshot_of(s) -> dict:
    """The sha256 of each text of :func:`texts_of`."""
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(texts_of(s).items())}


def snapshot() -> dict:
    return {name: snapshot_of(make()) for name, make in complexes().items()}


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
