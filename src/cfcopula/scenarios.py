"""Covariate manipulation scenarios.

A scenario is an ordered list of column transforms applied to a copy of the
observed covariates; the untouched copy stays as the actual covariates and
the transformed one becomes the counterfactual covariates.  Supported
transforms:

    set_constant(col, c)            x* = c for every row
    max_with(col, s)                x* = max(x, s)
    conditional_max(col, trig, s')  x* = max(x, floor) where trig <= s',
                                    x* = x elsewhere (default floor 16)

``conditional_max`` targets rows whose trigger column is small, e.g. raise a
child's schooling to 16 years only in families whose parent schooling is at
most s'.

Scenario text is a semicolon-separated list of calls, e.g.

    "max_with(cedu, 16)"
    "set_constant(pwhite, 1); max_with(pedu, 12)"
    "conditional_max(cedu, pedu, 11)"
    "conditional_max(cedu, pedu, 11, floor=14)"
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class ScenarioError(ValueError):
    """Unparseable scenario text or a transform naming a missing column."""


@dataclass(frozen=True)
class Transform:
    """One column manipulation; ``kind`` selects which fields are used."""

    kind: str
    column: str
    value: float = 0.0
    trigger: str = ""
    floor: float = 16.0

    def describe(self):
        if self.kind == "set_constant":
            return f"set_constant({self.column}, {_fmt(self.value)})"
        if self.kind == "max_with":
            return f"max_with({self.column}, {_fmt(self.value)})"
        return (
            f"conditional_max({self.column}, {self.trigger}, "
            f"{_fmt(self.value)}, floor={_fmt(self.floor)})"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """An ordered bundle of transforms; empty means the identity scenario."""

    transforms: tuple = ()

    def describe(self):
        if not self.transforms:
            return "identity"
        return "; ".join(t.describe() for t in self.transforms)


def _fmt(v):
    return str(int(v)) if v == int(v) else repr(v)


_CALL = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


def _split_args(body):
    parts = [p.strip() for p in body.split(",")]
    if parts == [""]:
        return []
    return parts


def _parse_number(text, where):
    try:
        value = float(text)
    except ValueError:
        raise ScenarioError(f"expected a number in {where}, got {text!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"expected a finite number in {where}, got {text!r}")
    return value


def parse_scenario(text):
    """Parse scenario text into a ScenarioSpec.

    Blank or "identity" text yields the empty scenario.  Raises
    ScenarioError on unknown transforms or malformed argument lists.
    """
    text = (text or "").strip()
    if not text or text == "identity":
        return ScenarioSpec()
    transforms = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        match = _CALL.match(piece)
        if match is None:
            raise ScenarioError(f"cannot parse scenario term {piece!r}")
        name, body = match.group(1), match.group(2)
        args = _split_args(body)
        if name in ("set_constant", "max_with"):
            if len(args) != 2:
                raise ScenarioError(f"{name} takes (column, value): {piece!r}")
            transforms.append(
                Transform(kind=name, column=args[0], value=_parse_number(args[1], piece))
            )
        elif name == "conditional_max":
            floor = 16.0
            if args and "=" in args[-1]:
                key, _, raw = args[-1].partition("=")
                if key.strip() != "floor":
                    raise ScenarioError(f"unknown keyword in {piece!r}")
                floor = _parse_number(raw.strip(), piece)
                args = args[:-1]
            if len(args) != 3:
                raise ScenarioError(
                    f"conditional_max takes (column, trigger, cutoff): {piece!r}"
                )
            transforms.append(
                Transform(
                    kind=name,
                    column=args[0],
                    trigger=args[1],
                    value=_parse_number(args[2], piece),
                    floor=floor,
                )
            )
        else:
            raise ScenarioError(
                f"unknown transform {name!r}; have set_constant, max_with, "
                f"conditional_max"
            )
    return ScenarioSpec(transforms=tuple(transforms))


def apply_scenario(table, roles, spec):
    """Apply a scenario to the covariate columns of a table.

    Returns a dict of the manipulated covariate columns: every roles.x
    column, touched or not, as a fresh copy.
    """
    for t in spec.transforms:
        if t.column not in roles.x:
            raise ScenarioError(
                f"scenario touches {t.column!r}, which is not a covariate "
                f"column; have {list(roles.x)}"
            )
        if t.kind == "conditional_max" and t.trigger not in table.names:
            raise ScenarioError(f"trigger column {t.trigger!r} not found")
    out = {c: table.column(c).copy() for c in roles.x}
    for t in spec.transforms:
        col = out[t.column]
        if t.kind == "set_constant":
            col[:] = t.value
        elif t.kind == "max_with":
            np.maximum(col, t.value, out=col)
        else:  # conditional_max
            trig = out.get(t.trigger)
            if trig is None:
                trig = table.column(t.trigger)
            hit = trig <= t.value
            col[hit] = np.maximum(col[hit], t.floor)
    return out
