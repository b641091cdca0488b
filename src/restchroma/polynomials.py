"""Exact dense integer polynomials and elementary symmetric functions.

Coefficients are arbitrary-precision Python ints stored ascending by
degree, with trailing zeros trimmed; the zero polynomial stores an empty
tuple.  Values are immutable and freely shareable.

The only arithmetic is IntPolynomial's - and *, each working on the
coefficient tuples directly: the engine's recursion works on big integers
and wraps its answer once.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable


def _trimmed(out: list[int]) -> tuple[int, ...]:
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPolynomial:
    """Immutable univariate polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = _trimmed([int(c) for c in coeffs])

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...]) -> "IntPolynomial":
        """Wrap a tuple of ints without a trailing zero, unchecked."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    # -- arithmetic -------------------------------------------------------

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        diff = [c - d for c, d in zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        return IntPolynomial._trusted(_trimmed(diff))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        p, q = self.coeffs, other.coeffs
        if not (p and q):
            return IntPolynomial._trusted(())
        out = [0] * (len(p) + len(q) - 1)
        for i, c in enumerate(p):
            if c:
                for j, d in enumerate(q, i):
                    out[j] += c * d
        # the leading product is nonzero, so nothing needs trimming
        return IntPolynomial._trusted(tuple(out))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: int) -> int:
        """Exact evaluation at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        """Human-readable descending form, e.g. 'x^3 - 6x^2 + 11x - 6'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f" {sign} {term}")
        return "".join(parts)

    def vector_str(self) -> str:
        """Coefficient-vector rendering '[c0, c1, ..., cn]' (ascending degree)."""
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

def elementary_symmetric(values: Iterable[int], i: int) -> int:
    """i-th elementary symmetric function of a list (sum of i-subset products).

    S_0 is 1 for any list; raises ValueError when i is outside 0..len(values).
    """
    vals = [int(v) for v in values]
    if i < 0 or i > len(vals):
        raise ValueError(f"symmetric function index {i} out of range 0..{len(vals)}")
    e = [1] + [0] * i
    for v in vals:
        for j in range(min(i, len(e) - 1), 0, -1):
            e[j] += v * e[j - 1]
    return e[i]
