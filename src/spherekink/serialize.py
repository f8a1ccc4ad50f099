"""Deterministic JSON for profiles.

Output bytes depend only on the values.  Every float is written as its
shortest repr, the shortest decimal that reads back as the same double, so
the round trip is exact and 20.0 stays 20.0 and -0.0 stays -0.0.  Keys keep
insertion order, there is no whitespace, NaN and infinities are refused, and
numpy arrays and scalars are written as the lists and numbers they hold.

A perturbation nu is written as its own samples, {"grid": ..., "values":
...}, in a profile document and in a sweep report alike, so it reads back
exactly, support radius included.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

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


def nu_to_doc(nu: NuPerturbation | None):
    return None if nu is None else {"grid": nu.grid, "values": nu.values}


def nu_from_doc(doc) -> NuPerturbation | None:
    if doc is None:
        return None
    return NuPerturbation(np.asarray(doc["grid"], dtype=float),
                          np.asarray(doc["values"], dtype=float))


def profile_to_doc(prof: Profile) -> dict:
    """Plain-dict form of a profile; nu is null when the problem has none."""
    return {
        "m": prof.params.m,
        "omega": prof.params.omega,
        "nu": nu_to_doc(prof.params.nu),
        "grid": prof.grid,
        "h": prof.h,
        "dh": prof.dh,
        "symmetry_class": prof.symmetry_class,
        "residual_norm": prof.residual_norm,
        "zero_count": prof.zero_count,
        "provenance": prof.provenance,
    }


@contextmanager
def reading(what: str):
    """Turn a missing key (KeyError) or a value of the wrong shape (TypeError)
    met while reading a document into ValueError, its message prefixed by what."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what}: no {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def profile_from_doc(doc: dict, what: str = "not a profile document") -> Profile:
    """profile_to_doc's profile; ValueError, its message prefixed by what, on
    a missing key or a wrong shape."""
    with reading(what):
        grid = np.asarray(doc["grid"], dtype=float)
        nu_doc = doc.get("nu")
        if isinstance(nu_doc, list):
            # written before nu kept its own grid: samples on the profile grid
            nu_doc = {"grid": grid, "values": nu_doc}
        params = ProblemParams(int(doc["m"]), float(doc["omega"]), nu_from_doc(nu_doc))
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
    """dumps(doc) and a newline, as the file at path."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(dumps(doc))
        f.write("\n")


def read_json(path):
    with open(path, "r", encoding="ascii") as f:
        return json.load(f)


def save_profile(prof: Profile, path) -> None:
    write_json(profile_to_doc(prof), path)


def load_profile(path) -> Profile:
    return profile_from_doc(read_json(path), f"{path} is not a profile document")
