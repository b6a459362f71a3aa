"""Text formats: instances, tiling certificates, absorber-family dumps.

Instance files: a header line ``n m`` followed by m lines ``u v w`` with
0 <= u < v < w < n.  Certificates: a header ``perfect k`` or ``partial s``
followed by one line per copy listing its 4 vertices and the two witness
edges, pipe-separated.  Family dumps: a header ``family m alpha sigma
seed``, m lines of 8 member vertex ids, then the m cached member tilings
as certificate blocks.  Lines starting with ``#`` and blank lines are
ignored everywhere; writers emit canonical (sorted) order so equal
objects serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .absorb import AbsorberFamily, leftover_bound, validate_family
from .core import DCopy, Hypergraph3, InputError, Tiling, _fill


@dataclass(frozen=True)
class Certificate:
    """A parsed certificate: the claim kind plus the copies themselves."""

    kind: str  # "perfect" or "partial"
    tiling: Tiling


class _Lines:
    """Content lines with original 1-based numbers, comments stripped."""

    def __init__(self, text: str):
        self.items = [
            (i, line.strip())
            for i, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise InputError(f"unexpected end of input, expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _ints(lineno: int, line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise InputError(f"line {lineno}: expected {count} fields for {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"line {lineno}: non-integer field in {what}") from None


def format_instance(G: Hypergraph3) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in G.triples())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Hypergraph3:
    """Parse instance text in one pass; every error names its line."""
    rows = text.splitlines()
    numbered = enumerate(rows, start=1)
    end = len(rows) + 1  # the line where missing content was due
    for lineno, line in numbered:
        fields = line.split()
        if fields and fields[0][0] != "#":
            break
    else:
        raise InputError(f"line {end}: unexpected end of input, expected instance header 'n m'")
    n, m = _ints(lineno, line, 2, "instance header")
    if n < 0 or m < 0:
        raise InputError(f"line {lineno}: vertex and edge counts must be nonnegative, got {n} {m}")
    at = lineno
    count = 0
    # Tokens already read as vertex ids, all in 0..n-1: a dict lookup is
    # several times cheaper than int(), and spares the range check.
    known: dict[str, int] = {}

    def vertex(token: str) -> int:
        try:
            x = int(token)
        except ValueError:
            raise InputError(f"line {at}: non-integer field in edge") from None
        if not 0 <= x < n:
            raise InputError(f"line {at}: vertex {x} outside 0..{n - 1}")
        known[token] = x
        return x

    def edges():
        nonlocal at, count
        for at, line in numbered:
            fields = line.split()
            if not fields or fields[0][0] == "#":
                continue
            if count == m:
                raise InputError(f"line {at}: trailing content after {m} edges")
            if len(fields) != 3:
                raise InputError(f"line {at}: expected 3 fields for edge, got {len(fields)}")
            a, b, c = fields
            try:
                u, v, w = known[a], known[b], known[c]
            except KeyError:
                u, v, w = vertex(a), vertex(b), vertex(c)
            if not u < v < w:
                raise InputError(f"line {at}: edge must be strictly increasing, got {u} {v} {w}")
            count += 1
            yield u, v, w

    def repeated(u, v, w):
        raise InputError(
            f"line {at}: edge {u} {v} {w} repeats an earlier line, so not all {m} edges are distinct"
        )

    links, filled = _fill(edges(), repeated)
    if filled < m:
        raise InputError(f"line {end}: unexpected end of input, expected edge line 'u v w'")
    return Hypergraph3(n, m, links)


def write_instance(G: Hypergraph3, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(G))


def read_instance(path) -> Hypergraph3:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _format_copy(c: DCopy) -> str:
    return "{} | {} | {}".format(
        " ".join(map(str, c.vertices)),
        " ".join(map(str, c.edge_a)),
        " ".join(map(str, c.edge_b)),
    )


def _parse_copy(lineno: int, line: str) -> DCopy:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise InputError(f"line {lineno}: copy line needs 'v1 v2 v3 v4 | a1 a2 a3 | b1 b2 b3'")
    quad = _ints(lineno, parts[0], 4, "copy vertices")
    ea = _ints(lineno, parts[1], 3, "witness edge")
    eb = _ints(lineno, parts[2], 3, "witness edge")
    copy = DCopy(vertices=tuple(quad), edge_a=tuple(ea), edge_b=tuple(eb))
    if not copy.well_formed():
        raise InputError(f"line {lineno}: malformed copy {line!r}")
    return copy


def format_certificate(tiling: Tiling, kind: str = "partial") -> str:
    if kind not in ("perfect", "partial"):
        raise InputError(f"certificate kind must be 'perfect' or 'partial', got {kind!r}")
    lines = [f"{kind} {tiling.size}"]
    lines.extend(_format_copy(c) for c in tiling.copies)
    return "\n".join(lines) + "\n"


def _parse_certificate_block(lines: _Lines) -> Certificate:
    lineno, header = lines.next("certificate header 'perfect k' or 'partial s'")
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("perfect", "partial"):
        raise InputError(f"line {lineno}: bad certificate header {header!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: bad copy count {parts[1]!r}") from None
    if count < 0:
        raise InputError(f"line {lineno}: negative copy count")
    copies = [_parse_copy(*lines.next("copy line")) for _ in range(count)]
    return Certificate(kind=parts[0], tiling=Tiling.from_copies(copies))


def parse_certificate(text: str) -> Certificate:
    lines = _Lines(text)
    cert = _parse_certificate_block(lines)
    if not lines.exhausted():
        lineno, _ = lines.next("")
        raise InputError(f"line {lineno}: trailing content after certificate")
    return cert


def write_certificate(tiling: Tiling, path, kind: str = "partial") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_certificate(tiling, kind))


def read_certificate(path) -> Certificate:
    with open(path, encoding="utf-8") as fh:
        return parse_certificate(fh.read())


def format_family(family: AbsorberFamily) -> str:
    lines = [
        "family {} {} {} {}".format(
            len(family.members), repr(family.alpha), repr(family.sigma), family.seed
        )
    ]
    lines.extend(" ".join(map(str, member)) for member in family.members)
    for own in family.tilings:
        lines.append(format_certificate(own, "partial").rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> AbsorberFamily:
    """Rebuild a family from its dump.

    The dump carries members, cached tilings, alpha, sigma, and seed; the
    sampling rate is not serialized (reads back as 0.0) and omega is
    rederived from alpha and sigma.
    """
    lines = _Lines(text)
    lineno, header = lines.next("family header")
    parts = header.split()
    if len(parts) != 5 or parts[0] != "family":
        raise InputError(f"line {lineno}: bad family header {header!r}")
    try:
        m = int(parts[1])
        alpha = float(parts[2])
        sigma = float(parts[3])
        seed = int(parts[4])
    except ValueError:
        raise InputError(f"line {lineno}: bad family header fields") from None
    members = []
    for _ in range(m):
        lineno, line = lines.next("member line of 8 ids")
        ids = _ints(lineno, line, 8, "member")
        if sorted(set(ids)) != ids:
            raise InputError(f"line {lineno}: member ids must be distinct and ascending")
        members.append(tuple(ids))
    tilings = [_parse_certificate_block(lines).tiling for _ in range(m)]
    if not lines.exhausted():
        lineno, _ = lines.next("")
        raise InputError(f"line {lineno}: trailing content after family")
    for member, own in zip(members, tilings):
        if set(own.covered) != set(member):
            raise InputError(f"cached tiling does not cover member {member}")
    covered = frozenset(v for member in members for v in member)
    if len(covered) != 8 * m:
        raise InputError("family members must be pairwise disjoint")
    return AbsorberFamily(
        members=tuple(members),
        tilings=tuple(tilings),
        covered=covered,
        alpha=alpha,
        sigma=sigma,
        p=0.0,
        omega=leftover_bound(alpha, sigma),
        seed=seed,
    )


def write_family(family: AbsorberFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_family(family))


def read_family(path, G: Hypergraph3 | None = None) -> AbsorberFamily:
    """Load a family dump; when G is given the invariants are rechecked."""
    with open(path, encoding="utf-8") as fh:
        family = parse_family(fh.read())
    if G is not None:
        validate_family(G, family)
    return family
