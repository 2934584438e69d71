"""Every result the snapshot in ``golden/snapshot.json`` fingerprints is
unchanged: sign tables, ``dumps``, certificates, ``str(verify_duality)``,
``homology_pairing_matrix`` and ``compare_phi_bigphi`` (see
``snapshot.py``, which wrote the file).

One difference is known.  ``table.signs`` lists its pairs in canonical
order, by cell and then by face, for every table.  The tables of
``barycentric``, a stellar step, every tower stage and the dual table of
``dual_orientations`` listed them in the order their constructor made
them when the snapshot was taken.  For those tables the order alone may
differ: their pairs and signs in canonical order must still match.
"""

import json
import re
from pathlib import Path

import pytest

import snapshot

GOLDEN = json.loads((Path(__file__).parent / "golden" / "snapshot.json").read_text())

# tables that listed their pairs in their constructor's order
REORDERED = re.compile(r"barycentric\.signs|stellar\.signs|tower\.\d+\.signs"
                       r"|dual_orientations\.dual_signs")


def test_snapshot_covers_every_complex():
    assert sorted(GOLDEN) == sorted(snapshot.complexes())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_match_the_snapshot(name):
    got, want = snapshot.snapshot_of(snapshot.complexes()[name]()), GOLDEN[name]
    assert sorted(got) == sorted(want)
    changed = [k for k in sorted(got) if got[k] != want[k]]
    assert [k for k in changed if not REORDERED.fullmatch(k)] == []
    # a reordered table now lists its pairs in canonical order
    assert [k for k in changed if got[k] != got[k + ".canonical"]] == []
