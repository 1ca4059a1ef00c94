"""Exact combinatorics of length vectors.

A length vector r = (r_1, ..., r_n) lists the edge lengths of a closed
spatial polygon.  Everything downstream is controlled by the signs of the
excesses  sum_{i in I} r_i - sum_{i not in I} r_i  over index sets
I in {1..n}: which sets are "short" (negative excess) determines the chamber,
the shape of every moment polytope, and the width formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import CapabilityError, EmptyModuliError, NonGenericError
from .rationals import format_rational, parse_rational

GENERICITY_CAP = 20  # exhaustive 2**n enumeration beyond this is refused


class LengthVector:
    """Immutable tuple of n >= 4 strictly positive rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        values = tuple(Fraction(e) for e in entries)
        if len(values) < 4:
            raise ValueError(f"need at least 4 edges, got {len(values)}")
        if any(v <= 0 for v in values):
            raise ValueError("all edge lengths must be strictly positive")
        object.__setattr__(self, "entries", values)

    @classmethod
    def from_strings(cls, texts: Sequence[str]) -> "LengthVector":
        return cls(parse_rational(t) for t in texts)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int) -> Fraction:
        """1-based access, matching index-set conventions."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key):
        return self.entries[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, LengthVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "LengthVector(%s)" % ", ".join(format_rational(e) for e in self)

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def is_sorted(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))


def index_set(items: Iterable[int], n: int) -> frozenset[int]:
    """Validated index set over {1..n}."""
    s = frozenset(items)
    for i in s:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise IndexError(f"index {i} out of range 1..{n}")
    return s


def excess(r: LengthVector, subset: Iterable[int]) -> Fraction:
    """Sum of the entries indexed by the set minus the sum of the rest."""
    s = index_set(subset, r.n)
    inside = sum((r.entry(i) for i in s), Fraction(0))
    return 2 * inside - r.total()


def is_generic(r: LengthVector, cap: int = GENERICITY_CAP) -> bool:
    """True when no index set balances the vector exactly.

    Exhaustive over all 2**n subsets via a Gray-code walk, so each step
    updates the running excess by a single entry.  It runs in integers:
    scaling the entries by the lcm of their denominators, a positive
    factor, keeps every excess zero exactly where it was.  Refuses n > cap.
    """
    n = r.n
    if n > cap:
        raise CapabilityError(
            f"genericity check is exhaustive over 2^n subsets; n={n} exceeds cap {cap}"
        )
    scale = lcm(*(e.denominator for e in r.entries))
    entries = [e.numerator * (scale // e.denominator) for e in r.entries]
    current = -sum(entries)  # excess of the empty set
    if current == 0:
        return False
    prev_code = 0
    for k in range(1, 1 << n):
        code = k ^ (k >> 1)
        changed = code ^ prev_code  # single bit
        idx = changed.bit_length() - 1
        if code & changed:
            current += 2 * entries[idx]
        else:
            current -= 2 * entries[idx]
        if current == 0:
            return False
        prev_code = code
    return True


def assert_generic(r: LengthVector, cap: int = GENERICITY_CAP) -> None:
    if not is_generic(r, cap=cap):
        raise NonGenericError(f"length vector is on a wall: {r!r}")


def assert_nonempty(r: LengthVector) -> None:
    """The moduli space is nonempty iff no single edge outweighs the rest."""
    longest = max(r.entries)
    if 2 * longest - r.total() > 0:
        raise EmptyModuliError(
            f"edge of length {format_rational(longest)} exceeds the sum of the others"
        )


def is_short(r: LengthVector, subset: Iterable[int]) -> bool:
    e = excess(r, subset)
    if e == 0:
        raise NonGenericError(f"index set {sorted(set(subset))} balances the vector")
    return e < 0


def is_long(r: LengthVector, subset: Iterable[int]) -> bool:
    return not is_short(r, subset)


def short_sets(r: LengthVector, max_size: Optional[int] = None) -> frozenset[frozenset[int]]:
    """All nonempty short index sets (optionally only up to a given size)."""
    n = r.n
    if n > GENERICITY_CAP:
        raise CapabilityError(f"short-set enumeration refused for n={n}")
    out = []
    for mask in range(1, 1 << n):
        members = [i + 1 for i in range(n) if mask >> i & 1]
        if max_size is not None and len(members) > max_size:
            continue
        if is_short(r, members):
            out.append(frozenset(members))
    return frozenset(out)


def maximal_short_sets(r: LengthVector) -> list[frozenset[int]]:
    """Short sets whose every one-element extension is long.

    Long sets are upward closed, so checking single-element extensions
    suffices for maximality.
    """
    shorts = short_sets(r)
    out = []
    for s in shorts:
        if all(frozenset(s | {j}) not in shorts for j in range(1, r.n + 1) if j not in s):
            out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def sort_with_permutation(r: LengthVector) -> tuple[LengthVector, tuple[int, ...]]:
    """Stable sort; returns (sorted vector, perm) with sorted[k] = r[perm[k]].

    The permutation is 1-based so it composes directly with reshuffle
    recipes.
    """
    order = sorted(range(r.n), key=lambda i: r.entries[i])
    return LengthVector(r.entries[i] for i in order), tuple(i + 1 for i in order)


def apply_permutation(r: LengthVector, perm: Sequence[int]) -> LengthVector:
    """Reorder so that result[k] = r[perm[k]] (perm is 1-based)."""
    if sorted(perm) != list(range(1, r.n + 1)):
        raise ValueError(f"not a permutation of 1..{r.n}: {perm}")
    return LengthVector(r.entry(i) for i in perm)


def perimeter_slack(r_sorted: LengthVector) -> Fraction:
    """Sum of all entries but the last minus the last, for a sorted vector."""
    if not r_sorted.is_sorted():
        raise ValueError("perimeter slack is defined on sorted vectors")
    return r_sorted.total() - 2 * r_sorted.entries[-1]


def singleton_maximal_short(r_sorted: LengthVector) -> Optional[int]:
    """Position n when {n} is a maximal short set of a sorted vector.

    {n} short with {1, n} long is exactly the projective chamber.  If {n}
    is long the closing condition fails and the moduli space is empty.
    """
    if not r_sorted.is_sorted():
        raise ValueError("expects a sorted vector")
    assert_generic(r_sorted)
    n = r_sorted.n
    if is_long(r_sorted, {n}):
        raise EmptyModuliError("largest edge outweighs the rest; no closed polygon exists")
    if is_long(r_sorted, {1, n}):
        return n
    return None


def width_formula(r: LengthVector) -> Fraction:
    """Conjectured width in 2*pi units: min over j of 2 r_j and total - 2 r_j.

    For a sorted vector this is min(2 r_1, perimeter slack); the general
    form is evaluated so the function is manifestly permutation invariant.
    """
    assert_generic(r)
    total = r.total()
    return min(min(2 * e, total - 2 * e) for e in r.entries)


@dataclass(frozen=True)
class ChamberSignature:
    """Short-set family of a generic vector; the chamber invariant."""

    n: int
    shorts: frozenset[frozenset[int]]

    def __post_init__(self):
        for s in self.shorts:
            comp = frozenset(range(1, self.n + 1)) - s
            if comp in self.shorts:
                raise ValueError(f"{sorted(s)} and its complement both marked short")

    def shorts_up_to(self, size: int) -> frozenset[frozenset[int]]:
        return frozenset(s for s in self.shorts if len(s) <= size)


def chamber_signature(r: LengthVector) -> ChamberSignature:
    assert_generic(r)
    return ChamberSignature(n=r.n, shorts=short_sets(r))


def _sig(pairs_and_more: Sequence[Sequence[int]]) -> frozenset[frozenset[int]]:
    singles = [frozenset({i}) for i in range(1, 6)]
    return frozenset(singles + [frozenset(s) for s in pairs_and_more])


# Short sets of sizes 1..3 for each chamber of sorted generic 5-vectors.
# Sets of size >= 3 are complements of the listed ones, so sizes 1..3
# determine the chamber completely.
PENTAGON_CHAMBERS: dict[str, frozenset[frozenset[int]]] = {
    "C1": _sig(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
         (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    ),
    "C2": _sig(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4),
         (1, 2, 3), (1, 2, 4), (1, 3, 4)]
    ),
    "C3": _sig(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
         (1, 2, 3), (1, 2, 4), (1, 2, 5)]
    ),
    "C4": _sig(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
         (1, 2, 3), (1, 2, 4)]
    ),
    "C5": _sig(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
         (1, 2, 3)]
    ),
    "C6": _sig(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    ),
}


def classify_5gon_chamber(r_sorted: LengthVector) -> str:
    """Match a sorted generic 5-vector against the six chamber signatures.

    The six signatures are exhaustive for sorted generic vectors with a
    nonempty moduli space; failure to match is an internal error, not a
    user error.
    """
    if r_sorted.n != 5:
        raise ValueError("chamber classification is for 5-vectors")
    if not r_sorted.is_sorted():
        raise ValueError("expects a sorted vector")
    assert_generic(r_sorted)
    assert_nonempty(r_sorted)
    observed = frozenset(s for s in short_sets(r_sorted, max_size=3))
    for name, sig in PENTAGON_CHAMBERS.items():
        if observed == sig:
            return name
    raise AssertionError(
        f"no chamber matches short sets {sorted(map(sorted, observed))} for {r_sorted!r}"
    )


def sixgon_condition(r_sorted: LengthVector) -> Optional[str]:
    """Which certified upper-bound condition a sorted generic 6-vector meets.

    "A": {1,2,3,4} and {1,2,6} short.
    "B": {1,2,6} and {4,6} long.
    "C": {5,6} and {2,3,6} short.
    First match in that order; None when none holds (only the lower bound
    is certified then).  Requires {1,6} short: vectors with {1,6} long are
    the projective chamber and are handled by the exact formula instead.
    """
    if r_sorted.n != 6:
        raise ValueError("condition check is for 6-vectors")
    if not r_sorted.is_sorted():
        raise ValueError("expects a sorted vector")
    assert_generic(r_sorted)
    if is_long(r_sorted, {1, 6}):
        raise ValueError("{1,6} long is the projective case; no condition applies")
    if is_short(r_sorted, {1, 2, 3, 4}) and is_short(r_sorted, {1, 2, 6}):
        return "A"
    if is_long(r_sorted, {1, 2, 6}) and is_long(r_sorted, {4, 6}):
        return "B"
    if is_short(r_sorted, {5, 6}) and is_short(r_sorted, {2, 3, 6}):
        return "C"
    return None
