"""Point spectrum enumeration with exact multiplicity bookkeeping.

The eigenvalues form three arithmetic families of squared wavenumbers,

    class -1: k = 4m/(1-a),   class +1: k = 4m/(1+a),   class 0: k = 2m,

written once, in param.FAMILIES.  Each record carries its k, and the
eigenfunction constructors build at that k.  Every coincidence between
families happens at exact rational wavenumbers, so members are merged on
their exact Fraction k, never on float equality; at irrational a no two
members coincide.  A merged record with both a -1 and a +1 membership is
an exceptional point: geometric multiplicity two, algebraic multiplicity
three.  These are the squared zeros of the characteristic determinant
-4 sin(k pi (1+a)/4) sin(k pi (1-a)/4) sin(k pi/2), which the tests
locate as an independent oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from jumpspec.param import FAMILIES, ParamA, family_k, is_exceptional

# family members (k <= sqrt(lambda_max)) enumeration accepts: 1e5 take 1.8 s
# and 76 MB peak RSS at a = 1/3, 1.0 s and 94 MB at sqrt(2)-1 (one core)
MAX_MEMBERS = 10 ** 5
# rows (a, class, m, lambda) `curves` accepts: `spectrum --curves` builds
# and writes 1e6 rows in 3.8 s at 150-170 MB peak RSS (one core), with every
# row held until the write
MAX_CURVE_ROWS = 10 ** 6


class SpectralCase(enum.Enum):
    GENERIC = "generic"
    EXCEPTIONAL_PAIR = "exceptional_pair"
    ZERO_EV = "zero_eigenvalue"
    EXCEPTIONAL_ODD = "exceptional_odd"


@dataclass(frozen=True)
class EigRecord:
    """One spectral point with its full class membership set."""

    lam: float
    k: float
    memberships: tuple[tuple[int, int], ...]  # sorted (class, m) pairs
    geom_mult: int
    alg_mult: int
    case: SpectralCase

    def class_index(self, cls: int) -> int | None:
        """The family index m of the given class membership, if present."""
        for c, m in self.memberships:
            if c == cls:
                return m
        return None

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "k": self.k,
                "memberships": [[c, m] for c, m in self.memberships],
                "geom_mult": self.geom_mult, "alg_mult": self.alg_mult,
                "case": self.case.value}


def _raw_wavenumbers(a: ParamA, k_max: float):
    """(class, m, k) for all family members with float(k) <= k_max; k is
    exact when a is rational."""
    out = []
    for cls, family in FAMILIES.items():
        m = family.first_m
        while float(k := family_k(a, cls, m)) <= k_max:
            out.append((cls, m, k))
            m += 1
    return out


def enumerate_spectrum(a: ParamA, lambda_max: float) -> list[EigRecord]:
    """All distinct eigenvalues <= lambda_max, ascending, with multiplicities."""
    if not 0 < lambda_max < math.inf:
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")
    k_max = math.sqrt(lambda_max)
    members = k_max // 2 + 1 + k_max * (1 - a.value) // 4 + k_max * (1 + a.value) // 4
    if members > MAX_MEMBERS:
        raise ValueError(f"lambda_max={lambda_max:g} holds {members:.0f} family members, "
                         f"above the cap of {MAX_MEMBERS} (the work grows with them)")
    groups: dict[object, tuple[float, list[tuple[int, int]]]] = {}
    for cls, m, k in _raw_wavenumbers(a, k_max):
        key = k if a.is_rational else (cls, m)
        groups.setdefault(key, (float(k), []))[1].append((cls, m))

    records: list[EigRecord] = []
    for k_f, members in groups.values():
        classes = {c for c, _ in members}
        memberships = tuple(sorted(members))
        if -1 in classes and +1 in classes:
            # full coincidence; the 0 class is always dragged along
            assert 0 in classes, "exceptional pair must sit in all three families"
            rec = EigRecord(k_f * k_f, k_f, memberships, 2, 3,
                            SpectralCase.EXCEPTIONAL_PAIR)
        elif memberships == ((0, 0),):
            rec = EigRecord(0.0, 0.0, memberships, 1, 1, SpectralCase.ZERO_EV)
        else:
            assert len(members) == 1, f"unexpected partial coincidence {members}"
            cls, m = members[0]
            case = SpectralCase.GENERIC
            # a lone class 0 member at integer turns t = m(1+a) has t odd: at an
            # even t the class +1 index t/2 and the class -1 index m - t/2 meet
            # it at k = 2m, and the group is an exceptional pair
            if cls == 0 and is_exceptional(a, 0, m):
                case = SpectralCase.EXCEPTIONAL_ODD
            rec = EigRecord(k_f * k_f, k_f, memberships, 1, 1, case)
        records.append(rec)
    records.sort(key=lambda r: r.lam)
    return records


# ---------------------------------------------------------------------------
# eigenvalue curves
# ---------------------------------------------------------------------------

def check_curves(points: float, m_max: int) -> None:
    """ValueError unless m_max >= 0 and the points x (3 m_max + 1) rows of
    `curves` stay within MAX_CURVE_ROWS; counted, not built (points >= 1
    may be a float, inf included)."""
    if m_max < 0:
        raise ValueError(f"curves need m_max >= 0, got {m_max}")
    if m_max > MAX_CURVE_ROWS or points * (3 * m_max + 1) > MAX_CURVE_ROWS:
        raise ValueError(f"{points:.3g} grid points x {3 * m_max + 1} rows each exceed the cap "
                         f"of {MAX_CURVE_ROWS} curve rows (the work grows with the rows)")


def curves(a_grid, m_max: int) -> list[tuple[float, int, int, float]]:
    """Rows (a, class, m, lambda) for the three eigenvalue families."""
    check_curves(len(a_grid), m_max)
    rows: list[tuple[float, int, int, float]] = []
    for a_val in a_grid:
        a_val = float(a_val)
        if not -1 < a_val < 1:
            raise ValueError("curve grid must stay inside (-1, 1)")

        def row(cls: int, m: int) -> tuple[float, int, int, float]:
            return a_val, cls, m, float(FAMILIES[cls].k(m, a_val) ** 2)

        for m in range(1, m_max + 1):
            rows += [row(-1, m), row(+1, m)]
        rows += [row(0, m) for m in range(m_max + 1)]
    return rows
