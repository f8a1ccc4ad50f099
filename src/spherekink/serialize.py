"""Deterministic JSON for profiles.

Output bytes depend only on the values.  Every float is written as its
shortest repr, the shortest decimal that reads back as the same double, so
the round trip is exact and 20.0 stays 20.0 and -0.0 stays -0.0.  Keys keep
insertion order, there is no whitespace, NaN and infinities are refused, and
numpy arrays and scalars are written as the lists and numbers they hold.

A profile document holds m, omega, nu, the symmetry class, the solver's
metadata and the samples.  The zero count is written for readers of the
file but not read back: a loaded profile counts the sign changes of its h.
The samples are written compactly when they are exactly what the solver
makes from less: the grid is
symmetric_grid(cutoff, n), h mirrors its values on x >= 0 by the class
(negated for odd), and dh is derivative_samples(h, dx), all bit for bit.
Then the document holds "cutoff", "n" and "half_h", the (n + 1) / 2
values of h at x >= 0, and the reader rebuilds grid, h and dh with those
same functions, so the loaded profile is bitwise the saved one.  Any other
profile (class none, a resampled one, a hand-built dh) is written with
explicit "grid", "h" and "dh" arrays; files written before the compact form
have that shape and still read.

A perturbation nu is written as its own samples, {"grid": ..., "values":
...}, in a profile document and in a sweep report alike, so it reads back
exactly, support radius included.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .core import (
    NuPerturbation,
    ProblemParams,
    Profile,
    derivative_samples,
    symmetric_grid,
)


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


def _derived(cutoff: float, n: int, symmetry_class: str, half_h):
    """(grid, h, dh) that the compact form stands for."""
    grid = symmetric_grid(cutoff, n)
    half_h = np.asarray(half_h, dtype=float)
    left = half_h[:0:-1]
    h = np.concatenate([-left if symmetry_class == "odd" else left, half_h])
    return grid, h, derivative_samples(h, grid[1] - grid[0])


def _half_line(prof: Profile):
    """h at x >= 0 when the compact form rebuilds prof's arrays bit for bit,
    else None."""
    if prof.symmetry_class == "none" or prof.n < 5:
        return None
    half_h = prof.h[prof.n // 2:]
    rebuilt = _derived(prof.cutoff, prof.n, prof.symmetry_class, half_h)
    for a, b in zip(rebuilt, (prof.grid, prof.h, prof.dh)):
        if a.tobytes() != b.tobytes():
            return None
    return half_h


def profile_to_doc(prof: Profile) -> dict:
    """Plain-dict form of a profile, compact when it can be (see the module
    docstring); nu is null when the problem has none."""
    half_h = _half_line(prof)
    if half_h is None:
        samples = {"grid": prof.grid, "h": prof.h, "dh": prof.dh}
    else:
        samples = {"cutoff": prof.cutoff, "n": prof.n, "half_h": half_h}
    return {
        "m": prof.params.m,
        "omega": prof.params.omega,
        "nu": nu_to_doc(prof.params.nu),
        **samples,
        "symmetry_class": prof.symmetry_class,
        "residual_norm": prof.residual_norm,
        "zero_count": prof.zero_count,
        "provenance": prof.provenance,
    }


@contextmanager
def reading(what: str, *, refused_values: bool = False):
    """Turn a missing key (KeyError) or a value of the wrong shape (TypeError)
    met while reading a document into ValueError, its message prefixed by
    what; with refused_values, prefix a ValueError's message too.  Leave that
    off where the body raises ValueErrors that already say what they read."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what}: no {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    except ValueError as exc:
        if not refused_values:
            raise
        raise ValueError(f"{what}: {exc}") from None


def profile_from_doc(doc: dict, what: str = "not a profile document") -> Profile:
    """profile_to_doc's profile, from either form; ValueError, its message
    prefixed by what, on a missing key, a wrong shape or a value that the
    profile's own checks refuse."""
    with reading(what, refused_values=True):
        if "grid" in doc:
            grid, h, dh = (np.asarray(doc[k], dtype=float) for k in ("grid", "h", "dh"))
        else:
            half_h, n, cls = doc["half_h"], int(doc["n"]), str(doc["symmetry_class"])
            if cls not in ("even", "odd"):
                raise ValueError(f"compact samples need class even or odd, not {cls!r}")
            if len(half_h) != (n + 1) // 2:
                raise ValueError(f"{len(half_h)} values in half_h, n = {n}")
            grid, h, dh = _derived(float(doc["cutoff"]), n, cls, half_h)
        params = ProblemParams(int(doc["m"]), float(doc["omega"]), nu_from_doc(doc.get("nu")))
        residual = doc["residual_norm"]
        return Profile(grid, h, dh, params,
                       symmetry_class=str(doc["symmetry_class"]),
                       residual_norm=None if residual is None else float(residual),
                       provenance=str(doc.get("provenance", "")))


def write_json(doc, path) -> None:
    """dumps(doc) and a newline, as the file at path."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(dumps(doc))
        f.write("\n")


def read_json(path):
    """The document in the file at path; ValueError naming path if the file
    is not JSON."""
    with open(path, "r", encoding="ascii") as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None


def save_profile(prof: Profile, path) -> None:
    write_json(profile_to_doc(prof), path)


def load_profile(path) -> Profile:
    return profile_from_doc(read_json(path), f"{path} is not a profile document")
