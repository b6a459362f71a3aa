"""Text formats: instances and tiling certificates.

Instance files: a header line ``n m`` followed by m lines ``u v w`` with
0 <= u < v < w < n.  Both readers refuse a header m above
``core.MAX_EDGES`` with an ``InputError``.  ``format_instance`` writes the edges in
lexicographic order, all lines of one pair ``a < b`` in one join: it
takes the decimal ids of each pair's third vertices above b from
``core._pair_thirds``, over one table of ids, and prefixes each line
with ``"a b "``.

``parse_instance`` has two paths.  Text in canonical form, as
``format_instance`` writes it (single spaces, decimal ids without
leading zeros, a newline after every line, n <= MAX_N, no repeated edge;
the edge lines may come in any order), is read in bulk:
its shape is checked in C, it is tokenised in chunks through one table
of the n canonical ids, and the tokens stream three at a time straight
into the pair-index filler, which reports whether every triple was
ascending: one comparison per pair rather than per edge.  Everything
else, and every error, takes the line-by-line reader, so each
``InputError`` names its line.  That reader streams the edges into the
filler, caches each vertex token it has read (a dict lookup is several
times cheaper than ``int()``), and looks for a repeated edge only once
the filler has counted fewer distinct edges than lines.  Without the
cache, and with a set of the edges seen so far, a CRLF text of
``planted_extremal(96)`` (83,240 edges) parsed in about 150 ms against
62 ms (2-vCPU Xeon, Python 3.11).

Certificates: a header ``perfect k`` or ``partial s`` followed by one
line per copy listing its 4 vertices and the two witness edges,
pipe-separated.

In both formats a line is skipped when it is blank or its first field
starts with ``#``; one walk over the lines, ``_content``, decides this
for both readers.  Writers emit canonical (sorted) order so equal
objects serialize identically.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .core import MAX_EDGES, MAX_N, DCopy, Hypergraph3, InputError, Tiling, _fill, _pair_thirds

_MAX_DIGITS = len(str(MAX_N))


class Certificate(namedtuple("Certificate", "kind tiling")):
    """A parsed certificate: the claim kind, "perfect" or "partial", plus
    the copies themselves as a ``Tiling``."""

    __slots__ = ()


def _content(rows: list[str], first: int = 1):
    """Yield ``(lineno, fields, line)`` for each row that carries content,
    numbering rows from ``first``: a row is skipped when it is blank or
    its first field starts with ``#``."""
    for lineno, line in enumerate(rows, start=first):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield lineno, fields, line


def _ints(lineno: int, line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise InputError(f"line {lineno}: expected {count} fields for {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"line {lineno}: non-integer field in {what}") from None


def format_instance(G: Hypergraph3) -> str:
    """Canonical instance text: the header, then one ascending triple per
    line in lexicographic order, each pair's lines written in one join."""
    names = [str(i) for i in range(min(G.n, MAX_N))]
    lines = [f"{G.n} {G.m}"]
    for a, b, names_c in _pair_thirds(G._links, names):
        prefix = f"{a} {b} "
        lines.append(prefix + ("\n" + prefix).join(names_c))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Hypergraph3:
    """Parse instance text; every error names its line.

    Text in canonical form (what ``format_instance`` writes, with the
    edge lines in any order) is read in bulk; all other text is read line
    by line, which is where every error is raised.
    """
    G = _parse_canonical(text)
    return _parse_lines(text) if G is None else G


# Characters of body text tokenised at a time.  Splitting the whole text
# would hold every token string at once (13 MB for 83k edges); a chunk
# of ids below 100 holds about 25,000 of them, some 1 MB.
_CHUNK = 1 << 16


def _parse_canonical(text: str) -> Hypergraph3 | None:
    """The instance, when ``text`` is in canonical form; else None.

    Canonical form is the header ``n m`` with n <= MAX_N and
    m <= MAX_EDGES, then m lines ``u v w`` of decimal ids in 0..n-1
    without leading zeros, with u < v < w, no two lines equal, single
    spaces and a newline ending every line.  The shape is checked on the
    whole text first; ids, order and repeats are checked by the one pass
    of ``_fill`` over the streamed tokens, which refuses the text by an
    unknown id, an order report of False or fewer than m distinct edges.
    """
    head, _, body = text.partition("\n")
    fields = head.split(" ")
    if len(fields) != 2:
        return None
    n_field, m_field = fields
    if not (n_field.isascii() and n_field.isdigit() and len(n_field) <= _MAX_DIGITS):
        return None
    n = int(n_field)
    if n > MAX_N:
        return None
    # The shape, checked in C: with the digits taken out, every edge line
    # is two spaces and a newline.  Any other character, non-ASCII ones
    # included, survives as itself or as "?".  Digits after the last
    # newline vanish too, so the body must end with one.  Comparing m as
    # text spares int() on an unbounded header field.
    shape = body.encode("ascii", "replace").translate(None, b"0123456789")
    m = len(shape) // 3
    if m > MAX_EDGES or m_field != str(m) or shape != b"  \n" * m or body[-1:] not in ("", "\n"):
        return None
    # The table holds exactly the canonical ids, so a lookup also checks
    # the range and rejects "07" or "+1": its KeyError, raised inside the
    # fill, means the text is not canonical.  The tokens stream from the
    # chunks into the fill three at a time, with no list of them.  The
    # shape allows at most 3 tokens per line and none after the last, and
    # an empty token, from a leading or doubled space, is no token at all:
    # so a line short of 3 leaves fewer than m triples, and the fill
    # counts fewer than m distinct ones.  The fill also reports whether
    # every triple was ascending, which covers u < v < w.
    table = {str(i): i for i in range(n)}
    it = chain.from_iterable(map(table.__getitem__, chunk.split()) for chunk in _chunks(body))
    try:
        links, distinct, ascending = _fill(n, zip(it, it, it))
    except KeyError:
        return None
    return Hypergraph3(n, m, links) if ascending and distinct == m else None


def _chunks(body: str):
    """``body`` in pieces of about ``_CHUNK`` characters, each ending at
    the end of a line."""
    start = 0
    while start < len(body):
        end = body.find("\n", start + _CHUNK) + 1 or len(body)
        yield body[start:end]
        start = end


def _parse_lines(text: str) -> Hypergraph3:
    """Parse instance text one line at a time, raising at the first bad line."""
    rows = text.splitlines()
    end = len(rows) + 1  # the line where missing content was due
    walk = _content(rows)
    header = next(walk, None)
    if header is None:
        raise InputError(f"line {end}: unexpected end of input, expected instance header 'n m'")
    lineno, _, line = header
    n, m = _ints(lineno, line, 2, "instance header")
    if n < 0 or m < 0:
        raise InputError(f"line {lineno}: vertex and edge counts must be nonnegative, got {n} {m}")
    if m > MAX_EDGES:
        raise InputError(f"line {lineno}: {m} edges; instances have at most MAX_EDGES = {MAX_EDGES}")
    at = lineno
    count = 0
    # Tokens already read as vertex ids, all in 0..n-1: a dict lookup is
    # several times cheaper than int(), and spares the range check.
    known: dict[str, int] = {}

    def vertex(token: str) -> int:
        # A token longer than MAX_N's digits would make int() slow or a
        # bit 1 << x of unbounded size, so it stops here, as do ids >= MAX_N.
        if len(token) > _MAX_DIGITS:
            raise InputError(f"line {at}: vertex token of {len(token)} characters; ids are below {MAX_N}")
        try:
            x = int(token)
        except ValueError:
            raise InputError(f"line {at}: non-integer field in edge") from None
        if not 0 <= x < n:
            raise InputError(f"line {at}: vertex {x} outside 0..{n - 1}")
        if x >= MAX_N:
            raise InputError(f"line {at}: vertex {x} is not below MAX_N = {MAX_N}")
        known[token] = x
        return x

    def edges():
        nonlocal at, count
        for at, fields, _ in walk:
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

    def check_repeats(stop: int) -> None:
        # The fill finds repeats only once all edges are in; a repeat among
        # the edge lines before line ``stop`` is the first error to report.
        seen = set()
        for row, fields, _ in _content(rows[lineno : stop - 1], lineno + 1):
            u, v, w = map(int, fields)
            if (u, v, w) in seen:
                raise InputError(
                    f"line {row}: edge {u} {v} {w} repeats an earlier line, so not all {m} edges are distinct"
                )
            seen.add((u, v, w))

    try:
        # Every id is below MAX_N, and with no edge line nothing is
        # filled, so a huge header costs no rows and no table of powers.
        links, distinct, _ = _fill(min(n, MAX_N) if m else 0, edges())
    except InputError:
        check_repeats(at)
        raise
    if distinct < count:
        check_repeats(at + 1)
    if count < m:
        raise InputError(f"line {end}: unexpected end of input, expected edge line 'u v w'")
    return Hypergraph3(n, m, links)


def write_instance(G: Hypergraph3, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(G))


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are an input error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_instance(path) -> Hypergraph3:
    return parse_instance(_read_text(path))


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


def parse_certificate(text: str) -> Certificate:
    lines = _content(text.splitlines())
    head = next(lines, None)
    if head is None:
        raise InputError("unexpected end of input, expected certificate header 'perfect k' or 'partial s'")
    lineno, parts, header = head
    if len(parts) != 2 or parts[0] not in ("perfect", "partial"):
        raise InputError(f"line {lineno}: bad certificate header {header.strip()!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: bad copy count {parts[1]!r}") from None
    if count < 0:
        raise InputError(f"line {lineno}: negative copy count")
    # zip asks ``range`` first, so no line past the last copy is read here.
    copies = [_parse_copy(at, line.strip()) for _, (at, _, line) in zip(range(count), lines)]
    if len(copies) < count:
        raise InputError("unexpected end of input, expected copy line")
    cert = Certificate(kind=parts[0], tiling=Tiling.from_copies(copies))
    extra = next(lines, None)
    if extra is not None:
        raise InputError(f"line {extra[0]}: trailing content after certificate")
    return cert


def write_certificate(tiling: Tiling, path, kind: str = "partial") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_certificate(tiling, kind))


def read_certificate(path) -> Certificate:
    return parse_certificate(_read_text(path))
