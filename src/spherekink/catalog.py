"""Built-in catalogue of polynomial eigenmaps usable as construction data.

Each entry is an eigenmap F: S^m -> S^n with |dF|^2 = omega (constant), the
input over which the equivariant reduction is made.  The instability
hypothesis (m-1)^2/4 < omega decides whether the equator map built over F
carries infinitely many negative directions, which is what drives the
existence of the full solution sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemParams


@dataclass(frozen=True)
class EigenmapSpec:
    """name, domain/target dimensions, eigenvalue, Brouwer degree, origin.

    omega is None when the literature value is not pinned down here; such
    entries require a user-supplied eigenvalue before they can be solved
    over, and their hypothesis status is indeterminate.
    """

    name: str
    m: int
    n: int
    omega: float | None
    degree: int | None
    provenance: str

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("sphere dimensions must be >= 1")
        if self.omega is not None and not self.omega > 0:
            raise ValueError("omega must be positive when given")


def _entries():
    for m in range(2, 7):
        yield EigenmapSpec(f"identity-{m}", m, m, float(m), 1,
                           "identity map of S^m, eigenvalue m")
    yield EigenmapSpec("hopf-3-2", 3, 2, 8.0, None, "complex Hopf fibration")
    yield EigenmapSpec("hopf-7-4", 7, 4, 16.0, None, "quaternionic Hopf fibration")
    yield EigenmapSpec("hopf-15-8", 15, 8, 32.0, None, "octonionic Hopf fibration")
    yield EigenmapSpec("eiconal-4", 4, 4, 18.0, 0, "gradient of a cubic harmonic eiconal, self-map of S^4")
    yield EigenmapSpec("eiconal-7", 7, 7, 27.0, 2, "gradient of a cubic harmonic eiconal, self-map of S^7")
    yield EigenmapSpec("eiconal-13", 13, 13, 45.0, 2, "gradient of a cubic harmonic eiconal, self-map of S^13")
    yield EigenmapSpec("eiconal-25", 25, 25, 81.0, 2, "gradient of a cubic harmonic eiconal, self-map of S^25")
    yield EigenmapSpec("hopf-construction-5-4", 5, 4, None, None,
                       "Hopf construction pairing; eigenvalue not stated, supply omega explicitly")
    yield EigenmapSpec("hopf-construction-9-8", 9, 8, None, None,
                       "Hopf construction pairing; eigenvalue not stated, supply omega explicitly")


CATALOG = tuple(_entries())    # the built-in entries, in fixed order


def find_eigenmap(name: str) -> EigenmapSpec:
    for spec in CATALOG:
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in CATALOG)
    raise KeyError(f"unknown eigenmap {name!r}; known: {known}")


def hypothesis_check(spec: EigenmapSpec) -> bool | None:
    """ProblemParams.hypothesis for the entry, or None when the eigenvalue is
    unspecified."""
    if spec.omega is None:
        return None
    return ProblemParams(spec.m, spec.omega).hypothesis()


def hypothesis_label(spec: EigenmapSpec) -> str:
    v = hypothesis_check(spec)
    return "indeterminate" if v is None else ("true" if v else "false")


def catalog_rows() -> list[tuple[str, str, str, str, str, str]]:
    """String rows (name, m, n, omega, degree, hypothesis) for table/CSV output."""
    rows = []
    for s in CATALOG:
        rows.append((
            s.name,
            str(s.m),
            str(s.n),
            "" if s.omega is None else format(s.omega, "g"),
            "" if s.degree is None else str(s.degree),
            hypothesis_label(s),
        ))
    return rows
