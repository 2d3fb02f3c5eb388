"""Deterministic JSON helpers for reports and certificates."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction


def fraction_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def fraction_from_json(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


@dataclass(frozen=True)
class Fragment:
    """Canonical JSON text that `canonical_dumps` writes verbatim in place of an object.

    A list built by `of_list` also keeps `items`, the texts of its elements,
    with text = "[" + ",".join(items) + "]": a reader can walk the elements
    without parsing `text`."""

    text: str
    items: tuple = ()

    @classmethod
    def of_list(cls, items) -> "Fragment":
        items = tuple(items)
        return cls(f"[{','.join(items)}]", items)


def canonical_dumps(obj) -> str:
    """Stable serialization: sorted keys, no whitespace drift.

    A `Fragment` met anywhere in obj is written as its text.  The stock
    encoder's `default` hook replaces each one by a marker string drawn at
    random the first time a fragment is met, and the encoded text is split at
    the quoted markers; the number of splice points must equal the number of
    fragments, so an input string equal to the marker cannot go unnoticed.  A
    call that meets no fragment is plain `json.dumps`.
    """
    marker, texts = None, []

    def default(o):
        nonlocal marker
        if not isinstance(o, Fragment):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if marker is None:
            marker = os.urandom(16).hex()
        texts.append(o.text)
        return marker

    out = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                     default=default)
    if marker is None:
        return out
    parts = out.split(f'"{marker}"')
    if len(parts) != len(texts) + 1:
        raise ValueError("a JSON fragment marker occurs in the input")
    texts.append("")
    return "".join(part + text for part, text in zip(parts, texts))


def spec_digest(spec: dict) -> str:
    return hashlib.sha256(canonical_dumps(spec).encode("utf-8")).hexdigest()
