"""Exact integer Laurent polynomials in ``v``, with ``q = v**2``.

A value is packed by Kronecker substitution: ``v**low`` times the Python
integer ``n = sum a_k 2**(64 k)``, read as signed 64-bit digits ``a_k``, the
coefficient of ``v**(low + k)``.  Add is then one shift and one integer
add, subtract adds the negation, multiply is one integer product, and
``==`` compares ``(low, n)``: the form is canonical because the lowest
digit is never zero (zero is ``(0, 0)``) and a digit string with every
digit in ``(-2**63, 2**63)`` is the only one for its integer.  Only the
leaves (``str``, `LaurentPoly.coefficient`, the sign and support tests,
`mirror`, which reverses a digit string for the bar solve of `hecke`, and
`l1_norm` and `spread`, which its packed products read) decode digits;
`low_digits` cuts a value to its lowest digits without decoding them.

Coefficients must have magnitude below ``2**63``.  The constructor and
`parse_poly` reject a larger one with ``ValueError``; arithmetic carries an
upper bound on each value's L1 norm (a sum adds the bounds, a product
multiplies them), and before a result whose bound reaches ``2**63`` it
recomputes the operands' exact norms and, if those still do not fit, the
result's exact coefficients; only when one of those does not fit does it
raise `InternalInconsistencyError` rather than let a digit overflow.  No
wrong value ever comes out silently.

The text grammar is ``term (("+"|"-") term)*`` with
``term = [coeff]["v"|"q"]["^" int]`` and ``"0"`` for zero.  Terms are
emitted in ascending v-exponent; the emitter uses the ``q`` form exactly
when the support is even and nonnegative (so a polynomial in ``q`` prints
as one), while the parser accepts both forms freely.
"""

from __future__ import annotations

import re

_DIGIT = 64
_MASK = (1 << _DIGIT) - 1
_HALF = 1 << (_DIGIT - 1)  # the least coefficient magnitude that does not fit


class QFormError(ValueError):
    """A value required to be a polynomial in ``q`` is not one."""


class ParityError(ValueError):
    """A halved sum or difference had an odd coefficient."""


class InternalInconsistencyError(RuntimeError):
    """A computed value failed its own verification, or a coefficient would
    leave the exact range; indicates a bug or an input past the design."""


def _digits(n: int) -> list[int]:
    """The signed digits of ``n``, lowest first, without trailing zeros."""
    out = []
    while n:
        a = ((n + _HALF) & _MASK) - _HALF
        out.append(a)
        n = (n - a) >> _DIGIT
    return out


def _pack(digits, width: int = _DIGIT) -> int:
    """The integer with the signed ``digits``, lowest first, ``width`` bits apart."""
    n = 0
    for a in reversed(digits):
        n = (n << width) + a
    return n


def low_digits(n: int, t: int) -> int:
    """The integer of the lowest ``t`` signed digits of ``n``: its residue
    mod ``2**(64 t)`` nearest zero, and 0 if ``t <= 0``."""
    if t <= 0:
        return 0
    half = _HALF << (_DIGIT * (t - 1))
    return ((n + half) & ((half << 1) - 1)) - half


def l1_norm(n: int) -> int:
    """The L1 norm of the signed digits of ``n``."""
    return sum(map(abs, _digits(n)))


def spread(n: int) -> int:
    """The integer whose signed digits are those of ``n`` with a zero digit
    after each: ``p(v) -> p(v**2)`` on a digit string at low 0."""
    return _pack(_digits(n), 2 * _DIGIT)


def mirror(n: int, t: int) -> tuple[int, int]:
    """The integer whose signed digits are the lowest ``t`` of ``n`` in
    reverse order, and the L1 norm of those digits."""
    m = norm = 0
    for _ in range(t):
        a = ((n + _HALF) & _MASK) - _HALF
        n = (n - a) >> _DIGIT
        m = (m << _DIGIT) + a
        norm += abs(a)
    return m, norm


_new = object.__new__


def _make(low: int, n: int, bound: int) -> "LaurentPoly":
    # trusted constructor: (low, n) canonical, bound >= the L1 norm
    p = _new(LaurentPoly)
    p.low = low
    p.n = n
    p.bound = bound
    return p


def _from_terms(terms: dict[int, int]) -> "LaurentPoly":
    """The value with the nonzero coefficients ``terms``; each must fit."""
    if not terms:
        return ZERO
    for a in terms.values():
        if not -_HALF < a < _HALF:
            raise ValueError(f"coefficient {a} is out of range: magnitude 2^63 or more")
    low = min(terms)
    n = sum(a << (_DIGIT * (k - low)) for k, a in terms.items())
    return _make(low, n, sum(map(abs, terms.values())))


def _strip(low: int, n: int, bound: int) -> "LaurentPoly":
    """Canonicalise ``(low, n)`` by dropping its zero low digits."""
    if not n:
        return ZERO
    k = ((n & -n).bit_length() - 1) // _DIGIT
    return _make(low + k, n >> (_DIGIT * k), bound)


def _refit(p: "LaurentPoly", r: "LaurentPoly", op: str) -> int:
    """The bound of ``p op r`` from the operands' exact L1 norms, which also
    replace their stale bounds.  If even that reaches ``2**63``, the result's
    own coefficients decide: only one of magnitude ``2**63`` or more raises,
    and the result's exact L1 norm is its bound."""
    p.bound = l1_norm(p.n)
    r.bound = l1_norm(r.n)
    bound = p.bound * r.bound if op == "*" else p.bound + r.bound
    if bound >= _HALF:
        if op == "*":
            pairs = [(i + j, a * b) for i, a in p.c.items() for j, b in r.c.items()]
        else:
            pairs = [*p.c.items(), *r.c.items()]
        try:
            bound = LaurentPoly(pairs).bound
        except ValueError:
            msg = f"coefficient overflow: ({p}) {op} ({r}) reaches 2^63"
            raise InternalInconsistencyError(msg) from None
    return bound


class LaurentPoly:
    """Immutable Laurent polynomial over the integers, packed as ``(low, n)``;
    ``bound`` bounds its L1 norm."""

    __slots__ = ("low", "n", "bound")

    def __init__(self, coeffs=()):
        """From a dict or ``(exponent, coefficient)`` pairs; repeats add up."""
        c: dict[int, int] = {}
        for k, a in coeffs.items() if isinstance(coeffs, dict) else coeffs or ():
            c[k] = c.get(k, 0) + a
        p = _from_terms({k: a for k, a in c.items() if a})
        self.low, self.n, self.bound = p.low, p.n, p.bound

    @property
    def c(self) -> dict[int, int]:
        """The nonzero coefficients by v-exponent (a fresh dict)."""
        low = self.low
        return {low + i: a for i, a in enumerate(_digits(self.n)) if a}

    def __bool__(self) -> bool:
        return self.n != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.n == other.n and self.low == other.low
        if isinstance(other, int):
            return self.low == 0 and self.n == other and -_HALF < other < _HALF
        return False

    __hash__ = None

    # `__add__` and `__mul__` build their result inline rather than by
    # `_make`: they are the hot path, and a call per result would cost more
    # than the integer arithmetic.

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = const(other)
        bound = self.bound + other.bound
        if bound >= _HALF:
            bound = _refit(self, other, "+")
        low = self.low
        d = other.low - low  # a zero has low 0, so it takes no shift
        if d > 0:
            if not self.n:
                return other
            n = self.n + (other.n << (_DIGIT * d))
        elif d < 0:
            if not other.n:
                return self
            low = other.low
            n = other.n + (self.n << (-_DIGIT * d))
        else:
            n = self.n + other.n
            if not n & _MASK:  # the lowest digit cancelled
                return _strip(low, n, bound)
        p = _new(LaurentPoly)
        p.low = low
        p.n = n
        p.bound = bound
        return p

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _make(self.low, -self.n, self.bound)

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = const(other)
        return self + _make(other.low, -other.n, other.bound)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = const(other)
        n = self.n * other.n
        if not n:
            return ZERO
        bound = self.bound * other.bound
        if bound >= _HALF:
            bound = _refit(self, other, "*")
        # the lowest digit is the product of two nonzero ones: canonical
        p = _new(LaurentPoly)
        p.low = self.low + other.low
        p.n = n
        p.bound = bound
        return p

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``v**k``."""
        if not k or not self.n:
            return self
        return _make(self.low + k, self.n, self.bound)

    def coefficient(self, k: int) -> int:
        """The coefficient of ``v**k``."""
        i = k - self.low
        if i < 0:
            return 0
        n = self.n
        if i:  # round, so that the digits below do not borrow
            n = (n + (_HALF << (_DIGIT * (i - 1)))) >> (_DIGIT * i)
        return ((n + _HALF) & _MASK) - _HALF

    def is_nonnegative(self) -> bool:
        n = self.n
        if n < 0:  # the top digit is negative
            return False
        return n < _HALF or all(a >= 0 for a in _digits(n))

    def min_exp(self) -> int:
        return self.low

    def max_exp(self) -> int:
        n = self.n
        return self.low + (n.bit_length() // _DIGIT) if n else 0

    def is_q_poly(self) -> bool:
        low = self.low
        if low < 0 or low & 1:
            return False
        return not any(_digits(self.n)[1::2])

    def __str__(self) -> str:
        digits, low = _digits(self.n), self.low
        if self.is_q_poly():
            var, step, low = "q", 2, low >> 1
        else:
            var, step = "v", 1
        parts = []
        for i in range(0, len(digits), step):
            a = digits[i]
            if a:
                parts.append(_term(a, low + i // step, var, "+" if parts else ""))
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.c!r})"


def _term(a: int, e: int, var: str, plus: str) -> str:
    """One term ``a var**e``, signed with ``plus`` when ``a`` is positive."""
    if a < 0:
        sign, a = "-", -a
    else:
        sign = plus
    if not e:
        return f"{sign}{a}"
    body = var if a == 1 else f"{a}{var}"
    return f"{sign}{body}" if e == 1 else f"{sign}{body}^{e}"


ZERO = _make(0, 0, 0)
ONE = _make(0, 1, 1)
V = _make(1, 1, 1)
Q = _make(2, 1, 1)


def const(n: int) -> LaurentPoly:
    return _from_terms({0: n} if n else {})


def v_power(k: int) -> LaurentPoly:
    return _make(k, 1, 1)


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
    return _make(2 * p.low, spread(p.n), p.bound)


def substitute_q_squared(p: LaurentPoly) -> LaurentPoly:
    """Map a polynomial ``P(q)`` to ``P(q**2)`` by doubling every exponent."""
    return substitute_v_squared(as_q_poly(p))


def parity_equal(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Whether ``f - g`` has only even coefficients."""
    d = f - g
    return not any(a & 1 for a in _digits(d.n))


def halve_sum(f: LaurentPoly, g: LaurentPoly, sign: int = 1) -> LaurentPoly:
    """Exactly halve ``f + g`` (``sign=+1``) or ``f - g`` (``sign=-1``)."""
    h = f + g if sign > 0 else f - g
    if any(a & 1 for a in _digits(h.n)):
        raise ParityError(f"{f} and {g} are not congruent mod 2")
    # every digit is even, so halving n halves each digit without a borrow
    return _make(h.low, h.n >> 1, h.bound >> 1)


_TERM_RE = re.compile(r"([+-]?)(\d+)?(?:([vq])(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the polynomial grammar; inverse of ``str`` on canonical forms.
    A coefficient of magnitude ``2**63`` or more is a ``ValueError``.

    >>> str(parse_poly("1+q^2"))
    '1+q^2'
    >>> parse_poly("v^-1+v") == v_power(-1) + V
    True
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial literal")
    terms = []
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
        terms.append((k, a))
        pos = m.end()
        first = False
    return LaurentPoly(terms)
