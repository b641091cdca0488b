"""Exact dense integer polynomials and elementary symmetric functions.

Coefficients are arbitrary-precision Python ints stored ascending by
degree, with trailing zeros trimmed; the zero polynomial stores an empty
tuple.  Values are immutable and freely shareable.
"""

from __future__ import annotations

from typing import Iterable


class IntPolynomial:
    """Immutable univariate polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPolynomial":
        """Product of (x - a) over the given integers (1 for an empty list)."""
        cs = [1]
        for a in roots:
            a = int(a)
            cs = [lower - a * c for lower, c in zip([0] + cs, cs + [0])]
        return cls._trusted(tuple(cs))

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
        a, b = self.coeffs, other.coeffs
        out = [c - d for c, d in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else [-d for d in b[len(a):]]
        while out and out[-1] == 0:
            out.pop()
        return IntPolynomial._trusted(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            return IntPolynomial._trusted(())
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b, i):
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
