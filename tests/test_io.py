import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtiling import (
    AbsorptionParams,
    DriverParams,
    Hypergraph3,
    InputError,
    build,
    build_absorbing_family,
    complete_3graph,
    construct_G1,
    format_certificate,
    format_family,
    format_instance,
    greedy_tiling,
    leftover_bound,
    parse_certificate,
    parse_family,
    parse_instance,
    perfect_tiling_exact,
    planted_extremal,
    random_codegree_instance,
    read_certificate,
    read_family,
    read_instance,
    solve_driver,
    validate_tiling,
    write_certificate,
    write_family,
    write_instance,
)

from naive import naive_parse_instance


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
        tiling = greedy_tiling(G)
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
        tiling = greedy_tiling(complete_3graph(8))
        path = tmp_path / "cert.txt"
        write_certificate(tiling, path, "perfect")
        cert = read_certificate(path)
        assert cert.kind == "perfect" and cert.tiling == tiling


class TestFamilyText:
    def build_family(self):
        return build_absorbing_family(complete_3graph(40), AbsorptionParams(seed=3))

    def test_round_trip(self):
        family = self.build_family()
        loaded = parse_family(format_family(family))
        assert loaded.members == family.members
        assert loaded.tilings == family.tilings
        assert loaded.alpha == family.alpha
        assert loaded.sigma == family.sigma
        assert loaded.seed == family.seed
        assert loaded.covered == family.covered
        # the sampling rate is not serialized; omega is rederived
        assert loaded.p == 0.0
        assert loaded.omega == leftover_bound(family.alpha, family.sigma)

    def test_file_round_trip_with_validation(self, tmp_path):
        G = complete_3graph(40)
        family = build_absorbing_family(G, AbsorptionParams(seed=3))
        path = tmp_path / "family.txt"
        write_family(family, path)
        assert read_family(path, G).members == family.members

    def test_bad_header(self):
        with pytest.raises(InputError, match="family header"):
            parse_family("household 1 0.3 1.0 0\n")

    def test_member_must_be_ascending(self):
        family = self.build_family()
        lines = format_family(family).splitlines()
        ids = lines[1].split()
        lines[1] = " ".join(ids[::-1])
        with pytest.raises(InputError, match="ascending"):
            parse_family("\n".join(lines) + "\n")

    def test_tiling_must_cover_member(self):
        family = self.build_family()
        lines = format_family(family).splitlines()
        member = [int(v) for v in lines[1].split()]
        free = next(v for v in range(40) if v not in member)
        member[-1] = max(member[-1], free) if free > member[-2] else member[-1]
        lines[1] = " ".join(map(str, sorted(set(member[:-1]) | {39})))
        with pytest.raises(InputError, match="cover"):
            parse_family("\n".join(lines) + "\n")

    def test_trailing_content(self):
        family = self.build_family()
        with pytest.raises(InputError, match="trailing"):
            parse_family(format_family(family) + "0 1 2\n")

    def test_validation_against_wrong_graph(self, tmp_path):
        family = self.build_family()
        path = tmp_path / "family.txt"
        write_family(family, path)
        with pytest.raises(InputError):
            read_family(path, build(40, []))


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

    def test_huge_header_without_edges(self):
        # The pair index holds only vertices that lie on an edge, so a
        # header's vertex count costs no memory.
        G = parse_instance("1000000000 0\n")
        assert (G.n, G.m, G.edges) == (1000000000, 0, frozenset())
        assert G.pair_bits(0, 999999999) == 0 and G.degree(5) == 0


# Lines that carry no content: they may appear anywhere.
FILLER = st.sampled_from(["", "   ", "\t", "# comment", "  # 1 2 3", "#"])


@st.composite
def instance_texts(draw):
    """Instance text for n <= 16 with comment and blank lines mixed in."""
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
    out = []
    for line in lines:
        out += draw(st.lists(FILLER, max_size=2)) + [line]
    out += draw(st.lists(FILLER, max_size=2))
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\r\n"]))


def mutate(text: str, rnd: random.Random) -> str:
    """One to three small edits: a character inserted, deleted or
    replaced, or a line dropped, repeated or swapped with another."""
    for _ in range(rnd.randint(1, 3)):
        lines = text.split("\n")
        i, j = rnd.randrange(len(lines)), rnd.randrange(len(lines))
        pos = rnd.randrange(len(text) + 1)
        char = rnd.choice("0123456789 -+_#x\t\r\n")
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
