"""Per-op checks.  Each returns None when the output is right and a short
reason when it is not; none of them calls the library."""

from __future__ import annotations

from inputs import top_flag_count


def groups_of(result):
    """(betti, torsion) of a library HomologyResult."""
    return tuple(result.betti), tuple(tuple(t) for t in result.torsion)


def check_groups(got, want, what: str):
    if got != want:
        return f"{what}: got betti {got[0]} torsion {got[1]}, want {want[0]} {want[1]}"
    return None


def parse_kv(text: str):
    """Groups from ``ccc homology --kv`` / ``ccc cohomology --kv`` output."""
    betti, torsion = {}, {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            continue
        kind, _, degree = key.partition("_")
        if kind == "betti":
            betti[int(degree)] = int(value)
        elif kind == "torsion":
            torsion[int(degree)] = tuple(int(t) for t in value.split(",") if t)
    n = len(betti)
    if sorted(betti) != list(range(n)) or sorted(torsion) != list(range(n)):
        return None
    return tuple(betti[i] for i in range(n)), tuple(torsion[i] for i in range(n))


def check_certificate(cycle, poset) -> str | None:
    """An odd-cycle certificate: a closed walk of odd length through flags
    of the whole complex in which consecutive flags are adjacent."""
    if not isinstance(cycle, (list, tuple)) or not cycle:
        return f"certificate is not a cycle of flags: {cycle!r}"
    if len(cycle) % 2 == 0:
        return f"certificate has even length {len(cycle)}"
    flags = [tuple(str(c) for c in f) for f in cycle]
    for f in flags:
        if len(f) != poset.dim + 1 or poset.ranks.get(f[0]) != poset.dim:
            return f"certificate entry {'>'.join(f)} is not a full flag"
        for hi, lo in zip(f, f[1:]):
            if lo not in poset.faces.get(hi, ()):
                return f"certificate entry {'>'.join(f)} is not a chain of covers"
    for a, b in zip(flags, flags[1:] + flags[:1]):
        if sum(x != y for x, y in zip(a, b)) != 1:
            return f"certificate steps {'>'.join(a)} -> {'>'.join(b)} are not adjacent"
    return None


def check_orientation(colors, poset) -> str | None:
    """A global orientation: one colour +-1 per flag of the complex, and
    adjacent flags coloured opposite."""
    if len(colors) != top_flag_count(poset):
        return f"orientation colours {len(colors)} flags, want {top_flag_count(poset)}"
    seen = {}  # a flag with one entry removed -> colour of a flag through it
    for flag, c in colors.items():
        if c not in (1, -1):
            return f"flag colour {c} is not +-1"
        f = tuple(str(x) for x in flag)
        for pos in range(len(f)):
            key = (pos, f[:pos] + f[pos + 1:])
            if seen.get(key) == c:
                return f"adjacent flags at {'>'.join(f)} share a colour"
            seen[key] = c
    return None


def integer_det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def parse_ccc_counts(text: str):
    """Cells per rank and the number of cover lines of a ``ccc v1`` text."""
    lines = text.splitlines()
    if not lines or lines[0] != "ccc v1":
        return None
    per_rank, covers = {}, 0
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "cell":
            r = int(parts[2])
            per_rank[r] = per_rank.get(r, 0) + 1
        elif len(parts) == 3 and parts[0] == "cover":
            covers += 1
    return [per_rank.get(r, 0) for r in range(max(per_rank, default=-1) + 1)], covers
