"""The package's records: named tuples with the equality, hashing and
frozenness of their fields; ``SearchBudget`` is the one mutable object."""

import importlib
import pkgutil

import pytest

import dtiling
from dtiling import (
    AbsorberFamily,
    Certificate,
    DCopy,
    DriverParams,
    DriverResult,
    FourPartite4Graph,
    SearchBudget,
    Tiling,
    Verdict,
    XYZPartition,
    complete_3graph,
    quad_catalog,
)
from dtiling.exact import NODE_LIMIT, TIME_LIMIT, MatchingResult, QuadCatalog, SetSearchResult, TilingSearchResult

K8 = complete_3graph(8)


def copy():
    return DCopy((0, 1, 2, 3), (0, 1, 2), (0, 1, 3))


def tiling():
    return Tiling.from_copies([copy(), DCopy(vertices=(4, 5, 6, 7), edge_a=(4, 5, 6), edge_b=(4, 5, 7))])


# Each maker builds a fresh record from equal fields on every call.
FROZEN = {
    "DCopy": (copy, ("vertices", "edge_a", "edge_b")),
    "Tiling": (tiling, ("copies", "covered")),
    "QuadCatalog": (lambda: quad_catalog(K8), ("quads", "inc", "complete")),
    "FourPartite4Graph": (lambda: FourPartite4Graph(((0,), (1,), (2,), (3,)), (1 << 3,)), ("parts", "links")),
    "XYZPartition": (lambda: XYZPartition(z=(0, 1, 2), x=(3,), y=()), ("z", "x", "y", "diagnostics")),
    "Certificate": (lambda: Certificate("perfect", tiling()), ("kind", "tiling")),
    "AbsorberFamily": (
        lambda: AbsorberFamily((tuple(range(8)),), (tiling(),), frozenset(range(8)), 0.3, 0.1),
        ("members", "tilings", "covered", "alpha", "p", "stats"),
    ),
    "TilingSearchResult": (lambda: TilingSearchResult("found", tiling(), 3), ("status", "tiling", "nodes")),
    "SetSearchResult": (
        lambda: SetSearchResult(status="found", vertices=(0, 1), nodes=2),
        ("status", "vertices", "nodes"),
    ),
    "MatchingResult": (lambda: MatchingResult("infeasible", None, 1), ("status", "matching", "nodes")),
    "DriverParams": (
        lambda: DriverParams(mode="exact", seed=3),
        ("mode", "eps", "alpha", "seed", "node_limit", "time_limit"),
    ),
}

# A family's stats dict makes it unhashable.
HASHABLE = [name for name in FROZEN if name != "AbsorberFamily"]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    make, fields = FROZEN[name]
    record = make()
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", HASHABLE)
def test_frozen_records_are_equal_and_hash_equal_on_equal_fields(name):
    make = FROZEN[name][0]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_frozen_records_keep_their_defaults_and_keywords():
    assert XYZPartition((0,), (1,), (2,)).diagnostics == ()
    assert copy() == DCopy(vertices=(0, 1, 2, 3), edge_a=(0, 1, 2), edge_b=(0, 1, 3))
    assert Certificate(kind="partial", tiling=tiling()).kind == "partial"
    assert AbsorberFamily((), (), frozenset(), 0.3, 0.1).stats == {}


def test_catalog_equality_heeds_completeness():
    cat = quad_catalog(K8)
    assert cat.complete and cat.all_quads == (1 << 70) - 1
    partial = QuadCatalog.of(K8, list(cat.quads))
    assert not partial.complete and (partial.quads, partial.inc) == (cat.quads, cat.inc)
    assert partial != cat
    assert QuadCatalog(cat.quads, cat.inc, True) == cat


def test_family_compares_its_stats_and_is_unhashable():
    make = FROZEN["AbsorberFamily"][0]
    a = make()
    assert a == make() and a != a._replace(stats={"attempts": [1]})
    assert a != AbsorberFamily(a.members, a.tilings, a.covered, a.alpha, 0.2)
    with pytest.raises(TypeError):
        hash(a)


def test_records_are_tuples_of_their_fields():
    assert MatchingResult("infeasible", None, 1) == ("infeasible", None, 1)
    assert TilingSearchResult("exhausted", None, 0) == SetSearchResult("exhausted", None, 0)
    assert DriverParams() == ("auto", 0.25, 0.3, 0, NODE_LIMIT, TIME_LIMIT)


# The budget, and records that hold a list or a dict.
MUTABLE = {
    "SearchBudget": lambda: SearchBudget(node_limit=5, time_limit=600.0),
    "Verdict": lambda: Verdict(["copy 0: missing edge (0, 1, 2)"]),
    "DriverResult": lambda: DriverResult("tiled", tiling(), {"branch": "exact-fallback"}),
}


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_compare_by_fields_and_are_unhashable(name):
    a, b = MUTABLE[name](), MUTABLE[name]()
    assert a is not b and a == b
    with pytest.raises(TypeError):
        hash(a)
    assert a != object()


def test_mutable_records_take_assignment_and_their_defaults():
    result = FROZEN["TilingSearchResult"][0]()
    assert result._replace(nodes=4) != result
    assert Verdict().ok and Verdict().violations == [] and Verdict().violations is not Verdict().violations
    assert DriverResult("tiled", None).report == {}
    params = DriverParams()
    assert (params.mode, params.eps, params.alpha, params.seed) == ("auto", 0.25, 0.3, 0)
    assert (params.node_limit, params.time_limit) == (NODE_LIMIT, TIME_LIMIT) == (10_000_000, 60.0)


def test_budget_equality_ignores_the_nodes_spent():
    spent, fresh = SearchBudget(5, 600.0), SearchBudget(5, 600.0)
    spent.tick()
    assert (spent.nodes, fresh.nodes) == (1, 0) and spent == fresh
    assert SearchBudget() == SearchBudget(NODE_LIMIT, TIME_LIMIT)
    assert SearchBudget(6, 600.0) != fresh


# The classes that are not records: exceptions, the graph, its edge view
# and the budget, whose node count changes as searches spend it.
NOT_RECORDS = {"Hypergraph3", "_EdgeView", "SearchBudget"}


def package_classes():
    for info in pkgutil.iter_modules(dtiling.__path__):
        module = importlib.import_module(f"dtiling.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", value


def test_every_record_is_a_slotted_named_tuple():
    classes = dict(package_classes())
    assert {"dtiling.core.Verdict", "dtiling.exact.SearchBudget", "dtiling.cli.DriverParams"} <= set(classes)
    loose = [
        name
        for name, cls in classes.items()
        if not (issubclass(cls, BaseException) or cls.__name__ in NOT_RECORDS)
        and not (issubclass(cls, tuple) and hasattr(cls, "_fields") and vars(cls).get("__slots__") == ())
    ]
    assert loose == []
