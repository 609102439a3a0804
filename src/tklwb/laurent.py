"""Exact integer Laurent polynomials in ``v``, with ``q = v**2``.

Values are sparse maps from v-exponent to a nonzero integer coefficient;
Python integers are arbitrary precision, so all arithmetic here is exact.
The text grammar is ``term (("+"|"-") term)*`` with
``term = [coeff]["v"|"q"]["^" int]`` and ``"0"`` for zero.  Terms are
emitted in ascending v-exponent; the emitter uses the ``q`` form exactly
when the support is even and nonnegative (so a polynomial in ``q`` prints
as one), while the parser accepts both forms freely.
"""

from __future__ import annotations

import re


class QFormError(ValueError):
    """A value required to be a polynomial in ``q`` is not one."""


class ParityError(ValueError):
    """A halved sum or difference had an odd coefficient."""


class LaurentPoly:
    """Immutable sparse Laurent polynomial over the integers."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for k, a in items:
                b = c.get(k, 0) + a
                if b:
                    c[k] = b
                else:
                    c.pop(k, None)
        self.c = c

    @classmethod
    def _make(cls, c: dict[int, int]) -> "LaurentPoly":
        # trusted constructor: c already canonical (no zero values)
        p = object.__new__(cls)
        p.c = c
        return p

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, LaurentPoly) and self.c == other.c

    __hash__ = None

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self.c)
        for k, a in other.c.items():
            b = c.get(k, 0) + a
            if b:
                c[k] = b
            else:
                del c[k]
        return LaurentPoly._make(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({k: -a for k, a in self.c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self.c)
        for k, a in other.c.items():
            b = c.get(k, 0) - a
            if b:
                c[k] = b
            else:
                del c[k]
        return LaurentPoly._make(c)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._make({k: a * other for k, a in self.c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for k1, a1 in self.c.items():
            for k2, a2 in other.c.items():
                k = k1 + k2
                b = out.get(k, 0) + a1 * a2
                if b:
                    out[k] = b
                else:
                    del out[k]
        return LaurentPoly._make(out)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The bar involution ``v -> v**-1`` (a ring involution)."""
        return LaurentPoly._make({-k: a for k, a in self.c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``v**k``."""
        if not k:
            return self
        return LaurentPoly._make({e + k: a for e, a in self.c.items()})

    def coefficient(self, k: int) -> int:
        """The coefficient of ``v**k``."""
        return self.c.get(k, 0)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.c.values())

    def min_exp(self) -> int:
        return min(self.c) if self.c else 0

    def max_exp(self) -> int:
        return max(self.c) if self.c else 0

    def negative_part(self) -> "LaurentPoly":
        """The terms with strictly negative v-exponent."""
        return LaurentPoly._make({k: a for k, a in self.c.items() if k < 0})

    def is_q_poly(self) -> bool:
        return all(k >= 0 and k % 2 == 0 for k in self.c)

    def __str__(self) -> str:
        if not self.c:
            return "0"
        ks = sorted(self.c)
        qform = ks[0] >= 0 and all(k % 2 == 0 for k in ks)
        var = "q" if qform else "v"
        parts: list[str] = []
        for k in ks:
            a = self.c[k]
            e = k // 2 if qform else k
            mag = abs(a)
            if e == 0:
                body = str(mag)
            else:
                body = ("" if mag == 1 else str(mag)) + var
                if e != 1:
                    body += f"^{e}"
            if not parts:
                parts.append(("-" if a < 0 else "") + body)
            else:
                parts.append(("-" if a < 0 else "+") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.c!r})"


ZERO = LaurentPoly._make({})
ONE = LaurentPoly._make({0: 1})
V = LaurentPoly._make({1: 1})
Q = LaurentPoly._make({2: 1})


def const(n: int) -> LaurentPoly:
    return LaurentPoly._make({0: n} if n else {})


def v_power(k: int) -> LaurentPoly:
    return LaurentPoly._make({k: 1})


def as_q_poly(p: LaurentPoly) -> LaurentPoly:
    """Check that ``p`` is a polynomial in ``q`` and return it unchanged.

    The canonical value is the same; what changes is the guarantee (and the
    rendering, which already prefers the ``q`` form for such supports).
    """
    if not p.is_q_poly():
        raise QFormError(f"{p} has odd or negative v-exponents")
    return p


def substitute_v_squared(p: LaurentPoly) -> LaurentPoly:
    """Map ``p(v)`` to ``p(v**2)`` by doubling every exponent."""
    return LaurentPoly._make({2 * k: a for k, a in p.c.items()})


def substitute_q_squared(p: LaurentPoly) -> LaurentPoly:
    """Map a polynomial ``P(q)`` to ``P(q**2)`` by doubling every exponent."""
    return substitute_v_squared(as_q_poly(p))


def parity_equal(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Whether ``f - g`` has only even coefficients."""
    d = f - g
    return all(a % 2 == 0 for a in d.c.values())


def halve_sum(f: LaurentPoly, g: LaurentPoly, sign: int = 1) -> LaurentPoly:
    """Exactly halve ``f + g`` (``sign=+1``) or ``f - g`` (``sign=-1``)."""
    h = f + g if sign > 0 else f - g
    if any(a % 2 for a in h.c.values()):
        raise ParityError(f"{f} and {g} are not congruent mod 2")
    return LaurentPoly._make({k: a // 2 for k, a in h.c.items()})


_TERM_RE = re.compile(r"([+-]?)(\d+)?(?:([vq])(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the polynomial grammar; inverse of ``str`` on canonical forms.

    >>> str(parse_poly("1+q^2"))
    '1+q^2'
    >>> parse_poly("v^-1+v") == v_power(-1) + V
    True
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial literal")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        sign, digits, var, exp = m.groups()
        if m.end() == pos or (digits is None and var is None):
            raise ValueError(f"bad polynomial term at {s[pos:]!r}")
        if not first and not sign:
            raise ValueError(f"missing +/- before {s[pos:]!r}")
        a = int(digits) if digits is not None else 1
        if sign == "-":
            a = -a
        if var is None:
            k = 0
        else:
            e = int(exp) if exp is not None else 1
            k = 2 * e if var == "q" else e
        b = coeffs.get(k, 0) + a
        if b:
            coeffs[k] = b
        else:
            coeffs.pop(k, None)
        pos = m.end()
        first = False
    return LaurentPoly._make(coeffs)
