import json

import pytest
from hypothesis import given, settings, strategies as st

from flagtuner.flagspace import (
    Configuration,
    Flag,
    FlagSpace,
    FlagSpaceError,
    json_field,
    json_value,
    parse_flag_space,
    render_args,
    toggle,
)
from helpers import space_of


def test_render_empty_space():
    space = space_of(0, levels=("O1", "O2", "O3"), default="O3")
    config = Configuration("O3", ())
    assert render_args(space, config) == ["-O3"]


def test_render_mixed_assignment():
    space = FlagSpace(
        (
            Flag("common", "-fcommon", "-fno-common"),
            Flag("ipa-pta", "-fipa-pta", "-fno-ipa-pta"),
        ),
        ("O3",),
        "O3",
    )
    config = Configuration("O3", (False, True))
    assert render_args(space, config) == ["-O3", "-fno-common", "-fipa-pta"]
    all_on = Configuration("O3", (True, True))
    assert render_args(space, all_on) == ["-O3", "-fcommon", "-fipa-pta"]


def test_render_rejects_mismatched_lengths():
    space = space_of(3)
    with pytest.raises(FlagSpaceError):
        render_args(space, Configuration("O3", (True,)))


def test_render_rejects_unknown_level():
    space = space_of(1)
    with pytest.raises(FlagSpaceError):
        render_args(space, Configuration("O9", (True,)))


def test_toggle_basics():
    config = Configuration("O3", (True, True))
    assert toggle(config, 0).assignment == (False, True)
    assert toggle(Configuration("O3", (False,)), 0).assignment == (True,)
    # input untouched
    assert config.assignment == (True, True)
    with pytest.raises(IndexError):
        toggle(config, 2)


@given(st.integers(1, 16), st.data())
def test_toggle_is_an_involution(n, data):
    assignment = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    i = data.draw(st.integers(0, n - 1))
    config = Configuration("O3", assignment)
    assert toggle(toggle(config, i), i) == config


@given(st.integers(0, 8), st.data())
def test_render_is_injective(n, data):
    space = space_of(n, levels=("O1", "O3"))
    levels = ["O1", "O3"]
    a = Configuration(
        data.draw(st.sampled_from(levels)),
        tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )
    b = Configuration(
        data.draw(st.sampled_from(levels)),
        tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )
    if a != b:
        assert render_args(space, a) != render_args(space, b)


def test_parse_preserves_order(demo_dir):
    space = parse_flag_space((demo_dir / "tradeoff_space.json").read_text())
    assert [f.name for f in space.flags] == ["common", "ipa-pta", "gcse-las", "unroll-all-loops"]
    assert len(space) == 4
    assert space.flags[0].stock and not space.flags[1].stock


def test_parse_rejects_duplicates():
    doc = json.dumps(
        {
            "base_levels": ["O3"],
            "default_baseline": "O3",
            "flags": [
                {"name": "common", "on": "-fcommon", "off": "-fno-common"},
                {"name": "common", "on": "-fcommon", "off": "-fno-common"},
            ],
        }
    )
    with pytest.raises(FlagSpaceError):
        parse_flag_space(doc)


def test_parse_rejects_unknown_default_level():
    doc = json.dumps({"base_levels": ["O2"], "default_baseline": "O3", "flags": []})
    with pytest.raises(FlagSpaceError):
        parse_flag_space(doc)


def test_parse_rejects_garbage():
    with pytest.raises(FlagSpaceError):
        parse_flag_space("not json at all {")


def test_json_kinds():
    number = json_value(5, float, "t")
    assert number == 5.0 and type(number) is float
    for value, kind in ((True, int), (True, float), (float("nan"), float), (2.7, int)):
        with pytest.raises(ValueError, match="^t must be"):
            json_value(value, kind, "t")
    assert json_field({"stock": None}, "stock", bool, True) is True
    assert json_field({}, "stock", bool, True) is True
    with pytest.raises(ValueError, match="missing field flags.name"):
        json_field({"name": None}, "name", str, where="flags")


def test_parse_large_space():
    doc = json.dumps(
        {
            "base_levels": ["O1", "O2", "O3"],
            "default_baseline": "O3",
            "flags": [
                {"name": f"flag-{i}", "on": f"-fflag-{i}", "off": f"-fno-flag-{i}"}
                for i in range(133)
            ],
        }
    )
    assert len(parse_flag_space(doc)) == 133


def test_bitstring_round_trip():
    config = Configuration("O2", (True, False, True))
    assert config.bitstring == "101"
    assert Configuration.from_bitstring("O2", "101") == config
    with pytest.raises(FlagSpaceError):
        Configuration.from_bitstring("O2", "10x")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=8), st.text(st.sampled_from("01١０¹x \n"), max_size=8)))
def test_bitstring_holds_only_ascii_zeros_and_ones(bits):
    """Any other character, a digit of another script too, is refused."""
    if any(c not in "01" for c in bits):
        with pytest.raises(FlagSpaceError, match="^bad bitstring"):
            Configuration.from_bitstring("O3", bits)
    else:
        assert Configuration.from_bitstring("O3", bits).assignment == tuple(c == "1" for c in bits)


@given(st.lists(st.booleans(), max_size=300))
def test_bitstring_spells_the_assignment(bits):
    config = Configuration("O3", tuple(bits))
    assert config.bitstring == "".join("1" if b else "0" for b in bits)
    fresh = Configuration("O3", tuple(bits))  # its bitstring not built yet
    assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)


def test_stock_config_uses_flag_defaults(tradeoff_space):
    stock = tradeoff_space.stock_config()
    assert stock.bitstring == "1000"
    assert tradeoff_space.all_enabled().bitstring == "1111"


def test_flag_forms_must_differ():
    with pytest.raises(FlagSpaceError):
        FlagSpace((Flag("x", "-fx", "-fx"),), ("O3",), "O3")
