import contextlib
import functools
import hashlib
import io
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtiling import (
    DCopy,
    DriverParams,
    Hypergraph3,
    MAX_EDGES,
    MAX_N,
    InputError,
    build,
    complete_3graph,
    construct_G0,
    construct_G1,
    format_certificate,
    format_instance,
    main,
    near_perfect_tiling,
    parse_certificate,
    parse_instance,
    perfect_tiling_exact,
    planted_extremal,
    random_codegree_instance,
    read_certificate,
    read_instance,
    solve_driver,
    steiner_triple_system,
    Tiling,
    validate_tiling,
    write_certificate,
    write_instance,
)
from dtiling import io as text_io

from naive import naive_format_instance, naive_parse_instance


class TestInstanceText:
    def test_round_trip(self):
        G = construct_G1(8)
        H = parse_instance(format_instance(G))
        assert H.n == G.n and H.edges == G.edges

    def test_round_trip_random(self):
        for seed in range(5):
            G = random_codegree_instance(12, 3, seed=seed)
            H = parse_instance(format_instance(G))
            assert H.edges == G.edges

    def test_comments_and_blanks_ignored(self):
        text = "# hypergraph\n\n4 1\n# the only edge\n0 1 2\n\n"
        G = parse_instance(text)
        assert G.n == 4 and set(G.edges) == {(0, 1, 2)}

    def test_bad_header(self):
        with pytest.raises(InputError, match="line 1"):
            parse_instance("4\n0 1 2\n")

    def test_non_ascending_edge(self):
        with pytest.raises(InputError, match="strictly increasing"):
            parse_instance("4 1\n2 1 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            parse_instance("4 1\n0 1 5\n")

    def test_truncated(self):
        with pytest.raises(InputError, match="edge line"):
            parse_instance("4 2\n0 1 2\n")

    def test_trailing_content(self):
        with pytest.raises(InputError, match="trailing"):
            parse_instance("4 1\n0 1 2\n0 1 3\n")

    def test_duplicate_vs_header_count(self):
        with pytest.raises(InputError, match="distinct"):
            parse_instance("4 2\n0 1 2\n0 1 2\n")

    def test_file_round_trip(self, tmp_path):
        G = construct_G1(8)
        path = tmp_path / "g.txt"
        write_instance(G, path)
        assert read_instance(path).edges == G.edges


@st.composite
def graphs(draw):
    """``(n, triples)``: n in 0..120, so ids run to three digits, and
    ascending triples of 0..n-1, possibly repeated."""
    n = draw(st.integers(0, 120))
    if n < 3:
        return n, []
    triple = st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(lambda t: tuple(sorted(t)))
    return n, draw(st.lists(triple, max_size=150))


class TestFormatInstance:
    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_matches_line_by_line_writer(self, data):
        n, triples = data
        assert format_instance(build(n, triples)) == naive_format_instance(n, triples)

    @pytest.mark.parametrize(
        "n, triples",
        [
            (0, []),
            (9, []),
            (MAX_N + 5, [(0, 1, MAX_N - 1)]),
            # Every triple of 90..119: pair rows on both sides of the
            # digit-read bar, with two- and three-digit ids.
            (120, list(itertools.combinations(range(90, 120), 3))),
        ],
        ids=["n0", "no-edges", "beyond-max-n", "dense-window"],
    )
    def test_edge_cases(self, n, triples):
        # Beyond MAX_N the id table stops at MAX_N; ids stay below it.
        assert format_instance(build(n, triples)) == naive_format_instance(n, triples)

    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: planted_extremal(96), "55df3de2a20c27c3a3b0b38670532ffc497d1c4143e1ecaafe0b33ebaea2552e"),
            (lambda: construct_G0(40), "bea4be4c4a5059ee02f886d1c7e9a98f27537e065d22487459f10c8ea649fbf5"),
            (lambda: construct_G1(40), "182aa391ea0170bcb6f27d4a96a94ccd7e8fddac31f9ba444fe076064683b760"),
            (lambda: steiner_triple_system(19), "4903f67483988ee1868c9ce954c9a0064edfe765195f42c0701f14c2a90601e9"),
        ],
        ids=["planted96", "g0-40", "g1-40", "sts19"],
    )
    def test_text_pinned(self, make, digest):
        assert hashlib.sha256(format_instance(make()).encode()).hexdigest() == digest


class TestCertificateText:
    def test_round_trip_perfect(self):
        G = complete_3graph(8)
        tiling = perfect_tiling_exact(G).tiling
        cert = parse_certificate(format_certificate(tiling, "perfect"))
        assert cert.kind == "perfect"
        assert cert.tiling == tiling
        assert validate_tiling(G, cert.tiling, require_perfect=True).ok

    def test_round_trip_partial(self):
        G = complete_3graph(12)
        tiling = near_perfect_tiling(G)
        cert = parse_certificate(format_certificate(tiling))
        assert cert.kind == "partial" and cert.tiling == tiling

    def test_empty_tiling(self):
        from dtiling import Tiling

        cert = parse_certificate(format_certificate(Tiling.from_copies([])))
        assert cert.tiling.size == 0

    def test_bad_kind_argument(self):
        from dtiling import Tiling

        with pytest.raises(InputError, match="kind"):
            format_certificate(Tiling.from_copies([]), kind="total")

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            parse_certificate("complete 1\n0 1 2 3 | 0 1 2 | 0 1 3\n")

    def test_bad_count(self):
        with pytest.raises(InputError, match="copy count"):
            parse_certificate("perfect x\n")
        with pytest.raises(InputError, match="negative"):
            parse_certificate("perfect -1\n")

    def test_malformed_copy_shape(self):
        with pytest.raises(InputError, match="copy line"):
            parse_certificate("partial 1\n0 1 2 3 | 0 1 2\n")

    def test_witness_edge_outside_quad(self):
        with pytest.raises(InputError, match="malformed"):
            parse_certificate("partial 1\n0 1 2 3 | 0 1 4 | 0 1 3\n")

    def test_trailing_content(self):
        with pytest.raises(InputError, match="trailing"):
            parse_certificate("partial 1\n0 1 2 3 | 0 1 2 | 0 1 3\nextra\n")

    def test_file_round_trip(self, tmp_path):
        tiling = near_perfect_tiling(complete_3graph(8))
        path = tmp_path / "cert.txt"
        write_certificate(tiling, path, "perfect")
        cert = read_certificate(path)
        assert cert.kind == "perfect" and cert.tiling == tiling


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def edges_of(*lines):
    return frozenset(tuple(map(int, line.split())) for line in lines)


class TestBulkReader:
    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(
                "4 2\n0 1 2\n0 1 2\n",
                "line 3: edge 0 1 2 repeats an earlier line, so not all 2 edges are distinct",
                id="duplicate",
            ),
            pytest.param("4 2\n0 1 2\n0 1 4\n", "line 3: vertex 4 outside 0..3", id="id-above-n"),
            pytest.param(
                "4 2\n0 1 2\n0 2 1\n",
                "line 3: edge must be strictly increasing, got 0 2 1",
                id="descending",
            ),
            pytest.param(
                f"{MAX_N + 5} 1\n0 1 {MAX_N}\n",
                f"line 2: vertex {MAX_N} is not below MAX_N = {MAX_N}",
                id="id-at-max-n",
            ),
            pytest.param(
                "8 2\n0 1 2\n0 1 07\n",
                (8, edges_of("0 1 2", "0 1 7")),
                id="leading-zero",
            ),
            pytest.param("4 2\n0 +1 2\n0 1 3\n", (4, edges_of("0 1 2", "0 1 3")), id="plus-sign"),
            pytest.param("4 2\n0\t1 2\n0 1 3\n", (4, edges_of("0 1 2", "0 1 3")), id="tab"),
            pytest.param("4 2\r\n0 1 2\r\n0 1 3\r\n", (4, edges_of("0 1 2", "0 1 3")), id="crlf"),
            pytest.param(
                "4 1\n0 1 2\n0 1 3\n",
                "line 3: trailing content after 1 edges",
                id="trailing-edge-line",
            ),
            pytest.param(
                "4 3\n0 1 2\n0 1 3\n",
                "line 4: unexpected end of input, expected edge line 'u v w'",
                id="missing-edge-line",
            ),
            pytest.param("4 2\n# c\n0 1 2\n0 1 3\n", (4, edges_of("0 1 2", "0 1 3")), id="comment"),
            pytest.param("4 2\n0 1 2\n\n0 1 3\n", (4, edges_of("0 1 2", "0 1 3")), id="blank-line"),
            pytest.param(
                "4 2\n0 1 2 3\n0 1\n",
                "line 2: expected 3 fields for edge, got 4",
                id="4-and-2-fields",
            ),
            pytest.param(
                "4 2\n0 1 2\n 0 1\n",
                "line 3: expected 3 fields for edge, got 2",
                id="leading-space",
            ),
            pytest.param(
                "4 2\n0 1 2\n0 1 3",
                (4, edges_of("0 1 2", "0 1 3")),
                id="no-final-newline",
            ),
            # Digits after the last newline leave the shape as it was.
            pytest.param("4 1\n0 1 2\n3", "line 3: trailing content after 1 edges", id="trailing-token"),
            pytest.param("10 0\n0", "line 2: trailing content after 0 edges", id="token-after-empty-body"),
            pytest.param(
                "4 1\n0 1 \ud800\n",
                "line 2: non-integer field in edge",
                id="lone-surrogate",
            ),
            # The fill's order report stands in for a per-edge u < v < w
            # check: a repeated or out-of-order vertex is refused too.
            *(
                pytest.param(
                    f"4 2\n0 1 3\n{edge}\n",
                    f"line 3: edge must be strictly increasing, got {edge}",
                    id=f"order-{edge.replace(' ', '-')}",
                )
                for edge in ("0 0 1", "0 1 1", "1 0 2", "2 1 0", "3 3 3")
            ),
            # A repeat is reported before any error on a later line.
            pytest.param(
                "4 2\n0 1 2\n0 1 2\n0 1 3\n",
                "line 3: edge 0 1 2 repeats an earlier line, so not all 2 edges are distinct",
                id="repeat-then-trailing",
            ),
            pytest.param(
                "4 3\n0 1 2\n0 1 2\n",
                "line 3: edge 0 1 2 repeats an earlier line, so not all 3 edges are distinct",
                id="repeat-then-missing",
            ),
        ],
    )
    def test_canonical_looking_text_is_read_line_by_line(self, text, expected):
        assert text_io._parse_canonical(text) is None
        if isinstance(expected, str):
            with pytest.raises(InputError, match=f"^{re.escape(expected)}$"):
                parse_instance(text)
        else:
            G = parse_instance(text)
            assert (G.n, G.edges) == expected and G.m == len(expected[1])

    def test_shuffled_edge_lines_are_read_in_bulk(self, monkeypatch, benchmark_instances):
        (text,) = [inst.text for inst in benchmark_instances("planted", 0) if inst.id == "planted-n96-0"]
        head, *lines = text.splitlines(keepends=True)
        random.Random(7).shuffle(lines)
        shuffled = head + "".join(lines)
        assert shuffled != text
        H = text_io._parse_lines(text)

        def refuse(text):
            raise AssertionError("read line by line")

        monkeypatch.setattr(text_io, "_parse_lines", refuse)
        G = parse_instance(shuffled)
        assert (G.n, G.m, G._links) == (H.n, H.m, H._links)

    @pytest.mark.parametrize("workload", ["dense", "planted"])
    def test_benchmark_texts_are_read_in_bulk(self, monkeypatch, benchmark_instances, workload):
        texts = [inst.text for inst in benchmark_instances(workload, 0)]
        by_line = [text_io._parse_lines(text) for text in texts]

        def refuse(text):
            raise AssertionError("read line by line")

        monkeypatch.setattr(text_io, "_parse_lines", refuse)
        for text, H in zip(texts, by_line):
            G = parse_instance(text)
            assert (G.n, G.m, G._links) == (H.n, H.m, H._links)

    def test_bulk_memory_stays_below_a_whole_text_token_list(self, benchmark_instances):
        # A list of all the tokens of this text alone traces about 13 MB.
        (text,) = [inst.text for inst in benchmark_instances("planted", 0) if inst.id == "planted-n96-0"]
        G, peak = traced_peak(parse_instance, text)
        assert G.n == 96 and peak <= 8_000_000


class TestLineNumbers:
    def test_error_cites_physical_line(self):
        # edges start on line 3 because of the comment
        text = "# instance\n4 1\nnope\n"
        with pytest.raises(InputError, match="line 3"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("4 1\n\n0 1 5\n", "line 3"),  # vertex out of range
            ("4 1\n0 1 4\n", "line 2"),
            ("4 1\n-1 0 1\n", "line 2"),
            ("# c\n-4 0\n", "line 2"),  # negative vertex count
            ("4 -1\n", "line 1"),  # negative edge count
            ("4 2\n0 1 2\n# again\n0 1 2\n", "line 4"),  # repeated edge
            ("4 2\n0 1 2\n\n", "line 4"),  # truncated: the edge was due on line 4
            ("# only a comment\n", "line 2"),  # no header
            ("4 1\n0 1 x\n", "line 2"),
            ("4 1\n0 1 2 3\n", "line 2"),
        ],
    )
    def test_every_error_cites_its_line(self, text, line):
        with pytest.raises(InputError, match=line):
            parse_instance(text)

    def test_huge_header_without_edges(self, monkeypatch):
        # The pair index holds only vertices that lie on an edge, so a
        # header's vertex count costs no memory.  n > MAX_N leaves the
        # bulk reader before it builds its table of n ids.
        read = []
        line_reader = text_io._parse_lines
        monkeypatch.setattr(text_io, "_parse_lines", lambda text: read.append(text) or line_reader(text))
        G, peak = traced_peak(parse_instance, "1000000000 0\n")
        assert read == ["1000000000 0\n"] and peak < 100_000
        assert (G.n, G.m, G.edges) == (1000000000, 0, frozenset())
        assert G.pair_bits(0, 999999999) == 0 and G.degree(5) == 0


class TestInputBound:
    def test_huge_vertex_token_is_an_input_error(self):
        # int() of this token works, but its bit 1 << w would not fit.
        text = "99999999999999999999 1\n0 1 99999999999999999998\n"
        with pytest.raises(InputError, match="line 2"):
            parse_instance(text)

    def test_token_longer_than_max_n_digits(self):
        # Rejected by its length, before int(), though its value is 2.
        text = f"{MAX_N + 1} 1\n0 1 {'0' * len(str(MAX_N))}2\n"
        with pytest.raises(InputError, match="line 2: vertex token of 6 characters"):
            parse_instance(text)

    def test_vertex_at_max_n_rejected_even_below_n(self):
        with pytest.raises(InputError, match="line 3.*MAX_N"):
            parse_instance(f"# big\n{MAX_N + 5} 1\n0 1 {MAX_N}\n")

    def test_vertex_just_below_max_n_accepted(self):
        G = parse_instance(f"{MAX_N} 1\n0 1 {MAX_N - 1}\n")
        assert G.has_edge(0, 1, MAX_N - 1)

    @pytest.mark.parametrize(
        "text, line",
        [(f"4 {MAX_EDGES + 1}\n", "line 1"), (f"# big\r\n4 {MAX_EDGES + 1}\r\n0 1 2\r\n", "line 2")],
    )
    def test_header_m_above_max_edges(self, text, line):
        with pytest.raises(InputError, match=f"{line}: {MAX_EDGES + 1} edges; .*MAX_EDGES"):
            parse_instance(text)

    def test_header_m_at_max_edges_reads_on(self):
        with pytest.raises(InputError, match="unexpected end of input"):
            parse_instance(f"4 {MAX_EDGES}\n")

    def test_canonical_text_above_the_bound(self, monkeypatch):
        # Under a bound of 3 edges, canonical text of 4 leaves the bulk
        # reader and the line reader refuses its header.
        text = format_instance(complete_3graph(4))
        monkeypatch.setattr(text_io, "MAX_EDGES", 3)
        assert text_io._parse_canonical(text) is None
        with pytest.raises(InputError, match="line 1: 4 edges"):
            parse_instance(text)

    def test_solve_exits_64_on_header_m_above_max_edges(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(f"8 {MAX_EDGES + 1}\n0 1 2\n", encoding="utf-8")
        assert main(["solve", str(path)]) == 64
        assert "MAX_EDGES" in capsys.readouterr().err

    def test_solve_driver_rejects_n_above_max_n(self):
        # n = MAX_N + 1 is not divisible by 4 either, so without the bound
        # this fails fast on the wrong message instead of running on.
        with pytest.raises(InputError, match="at most"):
            solve_driver(build(MAX_N + 1, []))


# Lines that carry no content: they may appear anywhere.
FILLER = st.sampled_from(["", "   ", "\t", "# comment", "  # 1 2 3", "#"])


@st.composite
def instance_texts(draw):
    """Instance text for n <= 16: as ``format_instance`` writes it, in
    canonical form with the edges in drawn order, or with comment and
    blank lines mixed in."""
    n = draw(st.integers(0, 16))
    triples = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(lambda t: tuple(sorted(t))),
            unique=True,
            max_size=40,
        )
        if n >= 3
        else st.just([])
    )
    lines = [f"{n} {len(triples)}"] + [" ".join(map(str, t)) for t in triples]
    style = draw(st.sampled_from(["format_instance", "canonical", "filler"]))
    if style == "format_instance":
        return format_instance(build(n, triples))
    if style == "canonical":  # the bulk reader's form, edges in drawn order
        return "\n".join(lines) + "\n"
    out = []
    for line in lines:
        out += draw(st.lists(FILLER, max_size=2)) + [line]
    out += draw(st.lists(FILLER, max_size=2))
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\r\n"]))


def mutate(text: str, rnd: random.Random, chars: str = "0123456789 -+_#x\t\r\n") -> str:
    """One to three small edits: a character of ``chars`` inserted, a
    character deleted or replaced, or a line dropped, repeated or swapped
    with another."""
    for _ in range(rnd.randint(1, 3)):
        lines = text.split("\n")
        i, j = rnd.randrange(len(lines)), rnd.randrange(len(lines))
        pos = rnd.randrange(len(text) + 1)
        char = rnd.choice(chars)
        kind = rnd.randrange(6)
        if kind == 0:
            text = text[:pos] + char + text[pos:]
        elif kind == 1:
            text = text[:pos] + text[pos + 1 :]
        elif kind == 2:
            text = text[:pos] + char + text[pos + 1 :]
        elif kind == 3:
            text = "\n".join(lines[:i] + lines[i + 1 :])
        elif kind == 4:
            text = "\n".join(lines[: i + 1] + lines[i:])
        else:
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


class TestParserAgainstNaive:
    @settings(max_examples=200, deadline=None)
    @given(instance_texts())
    def test_generated_instances(self, text):
        n, edges = naive_parse_instance(text)
        G = parse_instance(text)
        assert (G.n, G.m, G.edges) == (n, len(edges), edges)
        assert parse_instance(format_instance(G)).edges == edges

    @settings(max_examples=400, deadline=None)
    @given(instance_texts(), st.randoms(use_true_random=False))
    def test_mutated_text_parses_the_same_or_raises_input_error(self, text, rnd):
        text = mutate(text, rnd)
        try:
            expected = naive_parse_instance(text)
        except ValueError:
            with pytest.raises(InputError):
                parse_instance(text)
        else:
            G = parse_instance(text)
            assert (G.n, G.m, G.edges) == (expected[0], len(expected[1]), expected[1])


# Edits for the certificate format also reach its separators, and "."
# and "e" make fields that are not integers.
TEXT_CHARS = "0123456789 -+_#x\t\r\n|.e"


@functools.lru_cache(maxsize=None)
def fuzz_bases() -> tuple[Hypergraph3, str]:
    """A tileable instance and a certificate of it."""
    G = random_codegree_instance(40, 14, 0)
    tiling = perfect_tiling_exact(G).tiling
    return G, format_certificate(tiling, "perfect")


@pytest.fixture(scope="class")
def verify_dir(tmp_path_factory):
    """A folder holding the fuzz instance as ``inst.txt``."""
    folder = tmp_path_factory.mktemp("verify")
    write_instance(fuzz_bases()[0], folder / "inst.txt")
    return folder


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_mutated_certificate_parses_or_raises_input_error(self, rnd):
        with contextlib.suppress(InputError):
            parse_certificate(mutate(fuzz_bases()[1], rnd, TEXT_CHARS))

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_verify_on_mutated_certificate_exits_0_or_1(self, verify_dir, rnd):
        cert = verify_dir / "cert.txt"
        cert.write_text(mutate(fuzz_bases()[1], rnd, TEXT_CHARS), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["verify", str(verify_dir / "inst.txt"), "--cert", str(cert)])
        assert code in (0, 1)
        assert "Traceback" not in out.getvalue()

    def test_verify_on_undecodable_certificate_exits_1(self, verify_dir, capsys):
        cert = verify_dir / "undecodable.txt"
        cert.write_bytes(b"\xff" + fuzz_bases()[1].encode())
        assert main(["verify", str(verify_dir / "inst.txt"), "--cert", str(cert)]) == 1
        assert "not UTF-8" in capsys.readouterr().out


class TestNoEdgeSet:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: relabelled(planted_extremal(48), seed=3),
            lambda: random_codegree_instance(48, 16, 0),
        ],
        ids=["planted-48", "random-48-16"],
    )
    def test_solve_path_never_builds_the_triple_set(self, make, monkeypatch):
        # Every reader on the solve path answers from the pair index; the
        # derived edge set is for callers that want the triples.
        text = format_instance(make())

        def refuse(G):
            raise AssertionError("the solve path read Hypergraph3.edges")

        monkeypatch.setattr(Hypergraph3, "edges", property(refuse))
        G = parse_instance(text)
        res = solve_driver(G, DriverParams())
        assert res.status == "tiled"
        cert = parse_certificate(format_certificate(res.tiling, "perfect"))
        assert validate_tiling(G, cert.tiling, require_perfect=True).ok


def relabelled(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return build(G.n, ([perm[v] for v in e] for e in G.edges))


# The golden corpus: seeded texts of both formats, each edited 1-3 times
# in ways a hand-written file goes wrong, and the digest of what the
# readers make of them: the parsed result or the InputError message.
CORPUS_TOKENS = ("x", "07", "-1", "99", "100000")


def corpus_edit(lines: list[str], rnd: random.Random, cert: bool) -> None:
    """Apply one edit to ``lines`` in place."""
    kinds = ["comment", "blank", "repeat", "delete", "spaces", "extra", "reverse", "token"]
    if cert:
        kinds.append("pipe")
    kind = rnd.choice(kinds)
    at = rnd.randrange(len(lines) + 1)
    if kind == "comment":
        lines.insert(at, rnd.choice(["# note", "#", "  # indented 1 2 3"]))
    elif kind == "blank":
        lines.insert(at, rnd.choice(["", "  ", "\t"]))
    elif not lines:
        return
    at = min(at, len(lines) - 1)
    line = lines[at]
    if kind == "repeat":
        lines.insert(at, line)
    elif kind == "delete":
        del lines[at]
    elif kind == "spaces":
        lines[at] = line.replace(" ", "  ", 1)
    elif kind == "extra":
        lines[at] = line + " 3"
    elif kind == "reverse":
        lines[at] = " ".join(reversed(line.split(" ")))
    elif kind == "token":
        fields = line.split(" ")
        fields[rnd.randrange(len(fields))] = rnd.choice(CORPUS_TOKENS)
        lines[at] = " ".join(fields)
    elif kind == "pipe":
        lines[at] = line.replace("|", "", 1)


def corpus_text(base: str, rnd: random.Random, cert: bool) -> str:
    lines = base.splitlines()
    for _ in range(rnd.randint(1, 3)):
        corpus_edit(lines, rnd, cert)
    return rnd.choice(["\n", "\r\n"]).join(lines) + rnd.choice(["\n", "\r\n", ""])


def corpus_instance(rnd: random.Random) -> str:
    n = rnd.randint(4, 12)
    p = rnd.random()
    return format_instance(build(n, (t for t in itertools.combinations(range(n), 3) if rnd.random() < p)))


def corpus_certificate(rnd: random.Random) -> str:
    n = rnd.randint(4, 24)
    order = rnd.sample(range(n), n)
    copies = []
    for i in range(rnd.randint(0, n // 4)):
        quad = tuple(sorted(order[4 * i : 4 * i + 4]))
        a, b = sorted(rnd.sample(list(itertools.combinations(quad, 3)), 2))
        copies.append(DCopy(vertices=quad, edge_a=a, edge_b=b))
    return format_certificate(Tiling.from_copies(copies), rnd.choice(["perfect", "partial"]))


def corpus_outcome(read, text):
    try:
        return read(text)
    except InputError as exc:
        return str(exc)


def instance_outcome(text):
    G = parse_instance(text)
    return (G.n, G.m, sorted(G.edges))


def certificate_outcome(text):
    cert = parse_certificate(text)
    return (cert.kind, [(c.vertices, c.edge_a, c.edge_b) for c in cert.tiling.copies])


def test_golden_corpus():
    rnd = random.Random(2025)
    outcomes = [corpus_outcome(instance_outcome, corpus_text(corpus_instance(rnd), rnd, False)) for _ in range(1500)]
    outcomes += [
        corpus_outcome(certificate_outcome, corpus_text(corpus_certificate(rnd), rnd, True)) for _ in range(500)
    ]
    valid = sum(not isinstance(o, str) for o in outcomes)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert (valid, digest) == (425, "d8b12fdc20201e0062a9705f6f08d91f2c24d7c09bb40cdc7e23675bceb191ed")
