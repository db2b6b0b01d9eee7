"""Optimization search space: flags, configurations and argument rendering.

A flag space is the ordered universe of binary compiler flags under search
plus the allowed base optimization levels. A configuration picks one base
level and an explicit on/off state for every flag; rendering always emits
every flag explicitly so the compiled binary is a pure function of the
configuration, never of a level's implicit defaults.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field
from functools import cached_property

# The default cap above which the exhaustive oracle refuses a flag space:
# 2^22 assignments per base level.
DEFAULT_MAX_FLAGS = 22

# False and True as the bytes of a bitstring
_BITS = bytes.maketrans(b"\x00\x01", b"01")


class FlagSpaceError(ValueError):
    """Structural problem with a flag space, configuration or their files."""


# What each JSON kind is called in an error, by the Python type it reads as.
_KIND_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
               list: "a list", dict: "an object"}


def json_value(value, kind: type, what: str):
    """``value`` if it has the JSON kind ``kind`` names, else a ``ValueError``
    naming ``what`` and the value. A number (``float``) may be written as an
    integer, must be finite and comes back as a float; true and false are
    never numbers or integers. Every input file is read through this rule."""
    if kind is not float and type(value) is kind:  # as parsed: a bool is no int
        return value
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # not NaN, which fails every comparison
    raise ValueError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")


def nul_or_surrogate(text: str) -> bool:
    """Whether ``text`` holds a NUL, which no argument of a command can hold,
    or a lone surrogate, which UTF-8 cannot encode for a command or a file."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return True
    return "\0" in text


def json_field(obj: dict, key: str, kind: type, default=MISSING, where: str = ""):
    """``obj[key]`` read by ``json_value``, named ``<where>.<key>``. An absent
    or null field is ``default``, or, with no default, a missing field."""
    what = f"{where}.{key}" if where else key
    value = obj.get(key)
    if value is not None:
        return json_value(value, kind, what)
    if default is MISSING:
        raise ValueError(f"missing field {what}")
    return default


@dataclass(frozen=True)
class Flag:
    """One binary compiler flag with its literal argument spellings.

    The enabled/disabled argument forms are data, not derived by string
    rules, so irregular spellings stay representable. ``stock`` records
    whether the stock baseline level turns the flag on.
    """

    name: str
    on: str
    off: str
    stock: bool = True


@dataclass(frozen=True)
class FlagSpace:
    flags: tuple[Flag, ...]
    base_levels: tuple[str, ...]
    default_baseline: str

    def __post_init__(self) -> None:
        names = [f.name for f in self.flags]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise FlagSpaceError(f"duplicate flag names: {dupes}")
        if any(not n or nul_or_surrogate(n) for n in names):  # they reach trace annotations
            raise FlagSpaceError("flag names must be non-empty and hold no NUL or lone surrogate")
        for f in self.flags:
            if f.on == f.off:
                raise FlagSpaceError(
                    f"flag {f.name!r}: enabled and disabled forms must differ"
                )
            if nul_or_surrogate(f.on + f.off):
                raise FlagSpaceError(f"flag {f.name!r}: a form must hold no NUL or lone surrogate")
        if not self.base_levels:
            raise FlagSpaceError("base_levels must be non-empty")
        if len(set(self.base_levels)) != len(self.base_levels):
            raise FlagSpaceError("base_levels must be unique")
        if any(map(nul_or_surrogate, self.base_levels)):  # rendered as -<level>
            raise FlagSpaceError("base_levels must hold no NUL or lone surrogate")
        if self.default_baseline not in self.base_levels:
            raise FlagSpaceError(
                f"default_baseline {self.default_baseline!r} not in base_levels"
            )

    def __len__(self) -> int:
        return len(self.flags)

    def all_enabled(self) -> Configuration:
        """Configuration with every flag on (the classic elimination start)."""
        return Configuration(self.default_baseline, (True,) * len(self.flags))

    def stock_config(self) -> Configuration:
        """Configuration matching what the stock baseline level enables."""
        return Configuration(self.default_baseline, tuple(f.stock for f in self.flags))


@dataclass(frozen=True)
class Configuration:
    """A base level plus an explicit on/off assignment for every flag.

    ``bitstring`` is built once per configuration, on first use; it is not
    a field, so equality, hashing and ``repr`` do not see it.
    """

    base_level: str
    assignment: tuple[bool, ...] = field(default=())

    @cached_property
    def bitstring(self) -> str:
        return bytes(self.assignment).translate(_BITS).decode("ascii")

    @classmethod
    def from_bitstring(cls, base_level: str, bits: str) -> Configuration:
        if bits.strip("01"):
            raise FlagSpaceError(f"bad bitstring {bits!r}")
        return cls(base_level, tuple(map("1".__eq__, bits)))

    def key(self) -> str:
        """Stable identity string (level + bitstring) used for cache keys."""
        return f"{self.base_level}:{self.bitstring}"


def _check_member(space: FlagSpace, config: Configuration) -> None:
    if len(config.assignment) != len(space.flags):
        raise FlagSpaceError(
            f"configuration has {len(config.assignment)} flags, "
            f"space has {len(space.flags)}"
        )
    if config.base_level not in space.base_levels:
        raise FlagSpaceError(f"unknown base level {config.base_level!r}")


def render_args(space: FlagSpace, config: Configuration) -> list[str]:
    """Render a configuration as compiler arguments, base level first.

    Every flag is emitted explicitly in its enabled or disabled form, in
    flag order, so distinct assignments never render identically.
    """
    _check_member(space, config)
    args = [f"-{config.base_level}"]
    for flag, enabled in zip(space.flags, config.assignment):
        args.append(flag.on if enabled else flag.off)
    return args


def toggle(config: Configuration, flag_index: int) -> Configuration:
    """Return a copy of ``config`` with one flag flipped; the input is untouched."""
    if not 0 <= flag_index < len(config.assignment):
        raise IndexError(
            f"flag index {flag_index} out of range for {len(config.assignment)} flags"
        )
    assignment = list(config.assignment)
    assignment[flag_index] = not assignment[flag_index]
    return Configuration(config.base_level, tuple(assignment))


def parse_flag_space(document: str) -> FlagSpace:
    """Parse the JSON flag-space format into a FlagSpace, preserving file order.

    Expected shape::

        {"base_levels": ["O1", "O2", "O3"],
         "default_baseline": "O3",
         "flags": [{"name": ..., "on": ..., "off": ..., "stock": true}, ...]}

    Other keys, such as a flag's ``note``, are ignored.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise FlagSpaceError(f"malformed flag-space document: {exc}") from exc
    data = json_value(data, dict, "a flag-space document")
    levels = json_field(data, "base_levels", list)
    flags = []
    for i, rec in enumerate(json_field(data, "flags", list, [])):
        rec = json_value(rec, dict, f"flags[{i}]")
        name, on, off = (json_field(rec, key, str, where=f"flags[{i}]")
                         for key in ("name", "on", "off"))
        flags.append(Flag(name, on, off, json_field(rec, "stock", bool, True, f"flags[{i}]")))
    return FlagSpace(
        tuple(flags),
        tuple(json_value(level, str, f"base_levels[{i}]") for i, level in enumerate(levels)),
        json_field(data, "default_baseline", str),
    )


def load_flag_space(path) -> FlagSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_flag_space(fh.read())
