"""Deterministic JSON for profiles.

Output bytes depend only on the values.  Every float is written as its
shortest repr, the shortest decimal that reads back as the same double, so
the round trip is exact and 20.0 stays 20.0 and -0.0 stays -0.0.  Keys keep
insertion order, there is no whitespace, NaN and infinities are refused, and
numpy arrays and scalars are written as the lists and numbers they hold.

A value that goes into several files is encoded once: compose writes a
document with that text (an Encoded) spliced in, byte for byte what dumps
of the whole document would write.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import NuPerturbation, ProblemParams, Profile


def format_float(x: float) -> str:
    """The float spelling of dumps, for CSV cells."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite values are not serialisable")
    return repr(x)


def _numpy_to_python(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj) -> str:
    """Compact JSON of dicts/lists/scalars/numpy values, floats as shortest repr."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False,
                      default=_numpy_to_python)


class Encoded:
    """A value's dumps text, for a document that writes it in several files.

    dumps refuses it; compose writes the text as it stands.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def compose(doc) -> str:
    """dumps(doc) with each Encoded value inside it written as its text.

    Compact JSON is the concatenation of its parts,
    dumps({k: v, ...}) == "{" + dumps(k) + ":" + dumps(v) + ... + "}" and
    likewise for lists, so only the dicts and lists that hold Encoded text
    are taken apart; everything else goes through dumps whole.  Keys are
    strings, as in every document of the package.
    """
    if isinstance(doc, Encoded):
        return doc.text
    if not _holds_encoded(doc):
        return dumps(doc)
    if isinstance(doc, dict):
        return "{" + ",".join(dumps(k) + ":" + compose(v) for k, v in doc.items()) + "}"
    return "[" + ",".join(compose(v) for v in doc) + "]"


def _holds_encoded(doc) -> bool:
    if isinstance(doc, dict):
        doc = doc.values()
    elif not isinstance(doc, (list, tuple)):
        return isinstance(doc, Encoded)
    return any(_holds_encoded(v) for v in doc)


def profile_to_doc(prof: Profile) -> dict:
    """Plain-dict form of a profile.

    nu is stored as its values sampled on the profile grid (null when the
    problem has none); the perturbation is piecewise linear, so reading the
    document back reproduces it exactly at the stored nodes.
    """
    nu = None if prof.params.nu is None else prof.params.nu(prof.grid)
    return {
        "m": prof.params.m,
        "omega": prof.params.omega,
        "nu": nu,
        "grid": prof.grid,
        "h": prof.h,
        "dh": prof.dh,
        "symmetry_class": prof.symmetry_class,
        "residual_norm": prof.residual_norm,
        "zero_count": prof.zero_count,
        "provenance": prof.provenance,
    }


def profile_from_doc(doc: dict) -> Profile:
    grid = np.asarray(doc["grid"], dtype=float)
    nu_values = doc.get("nu")
    nu = None
    if nu_values is not None:
        nu = NuPerturbation(grid, np.asarray(nu_values, dtype=float))
    params = ProblemParams(int(doc["m"]), float(doc["omega"]), nu)
    return Profile(grid,
                   np.asarray(doc["h"], dtype=float),
                   np.asarray(doc["dh"], dtype=float),
                   params,
                   symmetry_class=str(doc["symmetry_class"]),
                   residual_norm=_optional(float, doc["residual_norm"]),
                   zero_count=_optional(int, doc["zero_count"]),
                   provenance=str(doc.get("provenance", "")))


def _optional(kind, value):
    return None if value is None else kind(value)


def write_json(doc, path) -> None:
    """compose(doc) (which is dumps(doc) when doc holds no Encoded text) and
    a newline, as the file at path."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(compose(doc))
        f.write("\n")


def save_profile(prof: Profile, path) -> None:
    write_json(profile_to_doc(prof), path)


def load_profile(path) -> Profile:
    with open(path, "r", encoding="ascii") as f:
        return profile_from_doc(json.load(f))
