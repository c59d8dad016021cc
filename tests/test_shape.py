"""The JSON shape check, and every JSON entry point under random documents."""

import copy
import functools
import io
import json
import math
import operator
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from megw import harness, sim
from megw.cli import main
from megw.shape import check


class Bad(ValueError):
    pass


SHAPE = {"n": int, "x?": float, "tag?": (int, str), "items?": [str],
         "map?": {str: {"a": str}}}


class TestCheck:
    @pytest.mark.parametrize("doc", [
        {"n": 1}, {"n": 1, "x": 2}, {"n": 1, "x": 2.5, "other": None},
        {"n": 1, "tag": "t"}, {"n": 1, "tag": 3}, {"n": 1, "items": ()},
        {"n": 1, "items": ["a", "b"]}, {"n": 1, "map": {"k": {"a": "v"}}},
        {"n": 10 ** 400},
    ])
    def test_matches(self, doc):
        check(doc, SHAPE, Bad, "doc")

    @pytest.mark.parametrize("doc, message", [
        ([1], "doc: the document must be a JSON object, not [1]"),
        ({}, "doc: the document lacks n"),
        ({"n": True}, "doc: n must be an integer, not True"),
        ({"n": 1.0}, "doc: n must be an integer, not 1.0"),
        ({"n": 1, "x": False}, "doc: x must be a finite number, not False"),
        ({"n": 1, "x": math.nan}, "doc: x must be a finite number, not nan"),
        ({"n": 1, "x": -math.inf}, "doc: x must be a finite number, not -inf"),
        ({"n": 1, "x": 2 ** 1024}, "doc: x must be a finite number, not "),
        ({"n": 1, "tag": None},
         "doc: tag must be an integer or a string, not None"),
        ({"n": 1, "items": "ab"}, "doc: items must be a list, not 'ab'"),
        ({"n": 1, "items": ["a", 2]},
         "doc: items[1] must be a string, not 2"),
        ({"n": 1, "map": {"k": []}},
         "doc: map['k'] must be a JSON object, not []"),
        ({"n": 1, "map": {"k\n": {}}}, "doc: map['k\\n'] lacks a"),
    ])
    def test_one_error_names_the_path(self, doc, message):
        with pytest.raises(Bad) as info:
            check(doc, SHAPE, Bad, "doc")
        assert str(info.value).startswith(message)
        assert "\n" not in str(info.value)


# random JSON: every key and value type megw reads, NaN, infinities and
# integers too large for a float among the numbers
KEYS = ["nodes", "enb_to_megw", "megw_to_region", "vips", "links", "kind",
        "addr", "megw", "weight", "a", "b", "regions_count", "mecs_per_region",
        "capacities", "users_per_capacity", "steps", "migration_rate",
        "policy", "seed", "message_type", "outer_src", "outer_dst", "teid",
        "inner_hex"]
WORDS = ["enb", "megw", "dip", "10.1.0.1", "10.1.0.256", "", "with_regions",
         "gpdu", "end-marker", "0x10", "-1", "4500", "zz"]


def json_values(ints):
    """Mostly numbers, strings and the like; lists and objects of them."""
    scalars = (st.none() | st.booleans() | ints | st.floats()
               | st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308])
               | st.text(max_size=4) | st.sampled_from(KEYS + WORDS))
    return scalars | scalars | st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner,
                          max_size=4)), max_leaves=10)


VALUES = json_values(st.integers(-3, 3) | st.sampled_from(
    [2 ** 64, 10 ** 400, -10 ** 400]))
# counts above 2 only make a sweep longer
COUNTS = json_values(st.integers(-2, 2))


def paths(doc, path=()):
    """The path to every value in a document, the document's own last."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, path + (key,))
    yield path


@st.composite
def edits(draw, valid, values=VALUES):
    """A copy of a valid document with one value replaced or deleted."""
    doc = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(paths(doc))))
    if not path:
        return draw(values)
    holder = functools.reduce(operator.getitem, path[:-1], doc)
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[path[-1]]
    else:
        holder[path[-1]] = draw(values)
    return doc


TOPOLOGY = harness.default_topology_config()
for node in TOPOLOGY["nodes"].values():
    node["weight"] = 1.5
SIM = {"regions_count": 1, "mecs_per_region": 2, "capacities": [1, 2],
       "users_per_capacity": 2, "steps": 1, "migration_rate": 1,
       "policy": "with_regions", "seed": 3}
TINY = sim.SimConfig(regions_count=1, mecs_per_region=1, capacities=(1,),
                     users_per_capacity=2, steps=1, migration_rate=0)
PACKET = {"message_type": "gpdu", "outer_src": "10.1.0.1",
          "outer_dst": "10.2.0.1", "teid": "0x10", "inner_hex": "4500"}


def sweep(args):
    # a deleted argument takes its default
    sim.run_experiment(TINY, **args)


class ErrorLine(Exception):
    """Exit 2 with one `error:` line."""


def encode(doc):
    # "--": a document such as -Infinity is not an option
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["codec", "encode", "--", json.dumps(doc)])
    err = err.getvalue()
    if code == 2 and err.startswith("error: ") and err.count("\n") == 1:
        raise ErrorLine(err)
    assert code == 0 and not err, (code, err)


ENTRY_POINTS = {
    "topology": (harness.build_topology, harness.ConfigError,
                 edits(TOPOLOGY)),
    "sim-config": (sim.SimConfig.from_dict, sim.ConfigError, edits(SIM)),
    "sweep": (sweep, sim.ConfigError, edits(
        {"rates": [0.5, 1], "replications": 2, "steps": 2}, COUNTS).filter(
            lambda args: isinstance(args, dict) and "rates" in args)),
    "codec-encode": (encode, ErrorLine, edits(PACKET)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_document_succeeds_or_is_one_error(entry, data):
    call, error, docs = ENTRY_POINTS[entry]
    try:
        call(data.draw(docs, label="document"))
    except error:
        pass
