"""Words in a universal Coxeter group, twisted involutions, and Bruhat order.

A universal Coxeter system on generators ``0, ..., n-1`` imposes no relation
besides each generator squaring to the identity, so group elements correspond
one-to-one to words with no two equal adjacent letters.  Words are ``bytes``
of generator indices (`ONE_LETTER` holds the one-letter ones); ``b""`` is the
identity and prints as ``"e"``.  For I/O, generators are rendered as the
letters ``a``-``z``, which caps the rank at 26.

On top of the free word arithmetic this module implements the apparatus of a
diagram involution ``*`` (an order <= 2 permutation of the generators): the
set of twisted involutions ``w`` with ``w^-1 == w*``, the twist action
``s # w`` (``sw`` when ``sw == w s*``, else ``s w s*``), twist expressions
and their rank function ``rho``, the companion statistic ``ell_star`` with
``2*rho == ell + ell_star``, and the subword characterisation of Bruhat
order on both the full group and the twisted involutions.  With no braid
relations a twisted involution ends in the star of its first letter, so all
of these are closed forms: ``s # w`` strips both ends of ``w`` when
``s == w[0]`` and wraps it in ``s ... s*`` otherwise (``s`` alone at the
identity when ``s* == s``); the twist expression is the first half
``w[:(len(w)+1)//2]``; the twisted involutions of rank ``<= r`` are the folds
of the reduced words of length ``<= r``, and those below ``w`` the folds of
the subwords of its twist expression.

All functions are pure; words and specs are immutable values, and the
module keeps no caches or other state.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable

Word = bytes

IDENTITY: Word = b""

LETTERS = string.ascii_lowercase
MAX_GENERATORS = len(LETTERS)
ONE_LETTER: tuple[Word, ...] = tuple(bytes((s,)) for s in range(MAX_GENERATORS))
_LETTER_BYTES = LETTERS.encode().ljust(256, b"\xff")  # index -> letter; 0xff decodes to no text

# Enumerations refuse to grow past this many elements unless overridden.
DEFAULT_CAP = 10**6


class GeneratorError(ValueError):
    """A generator index or letter outside the declared range."""


class CapExceeded(RuntimeError):
    """An enumeration grew past the configured element cap."""


class NotTwistedInvolution(ValueError):
    """A word expected to satisfy ``w^-1 == w*`` does not."""


@dataclass(frozen=True)
class CoxeterSpec:
    """A universal Coxeter system: generator count plus diagram involution.

    ``star`` is a permutation of ``range(gen_count)`` with ``star o star = id``.
    The pair fixes everything else in this package.
    """

    gen_count: int
    star: tuple[int, ...]
    star_table: bytes = field(init=False, repr=False, compare=False)  # star for bytes.translate

    def __post_init__(self) -> None:
        if not 1 <= self.gen_count <= MAX_GENERATORS:
            raise GeneratorError(
                f"gen_count must be in 1..{MAX_GENERATORS}, got {self.gen_count}"
            )
        if sorted(self.star) != list(range(self.gen_count)):
            raise GeneratorError(f"star must permute 0..{self.gen_count - 1}")
        table = bytes(self.star) + bytes(range(self.gen_count, 256))  # the rest map to themselves
        if table.translate(table) != bytes(range(256)):
            raise GeneratorError("star must be an involution")
        object.__setattr__(self, "star_table", table)

    @classmethod
    def make(cls, gen_count: int, star: str = "id") -> "CoxeterSpec":
        """Build a spec from a star literal, e.g. ``make(3, "(a b)")``."""
        return cls(gen_count, parse_star(star, gen_count))

    @property
    def star_is_fixed_point_free(self) -> bool:
        return all(self.star[i] != i for i in range(self.gen_count))

    def __str__(self) -> str:
        return f"gens={self.gen_count} star={format_star(self.star)}"


def reduce_word(letters: Iterable[int], gen_count: int) -> Word:
    """Reduce a raw generator sequence by cancelling equal adjacent letters.

    >>> reduce_word([0, 1, 1, 0], 3)
    b''
    >>> reduce_word([0, 1, 0], 3)
    b'\\x00\\x01\\x00'
    >>> reduce_word([0, 1, 1, 0, 2], 3)
    b'\\x02'
    """
    out: list[int] = []
    for s in letters:
        if not 0 <= s < gen_count:
            raise GeneratorError(f"generator {s} out of range 0..{gen_count - 1}")
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return bytes(out)


def multiply(u: Word, w: Word) -> Word:
    """Product of two reduced words; cancellation happens only at the seam.

    >>> multiply(bytes([0, 1]), bytes([1, 0]))
    b''
    >>> format_word(multiply(bytes([0, 1]), bytes([0, 1])))
    'abab'
    >>> format_word(multiply(bytes([0, 1, 0]), bytes([0, 2])))
    'abc'
    """
    i = len(u)
    j = 0
    while i > 0 and j < len(w) and u[i - 1] == w[j]:
        i -= 1
        j += 1
    return u[:i] + w[j:]


def inverse(w: Word) -> Word:
    return w[::-1]


def star_word(spec: CoxeterSpec, w: Word) -> Word:
    """Apply the diagram involution letterwise."""
    return w.translate(spec.star_table)


def dagger(spec: CoxeterSpec, w: Word) -> Word:
    """Reversal composed with the diagram involution: ``dagger(w) = (w*)^-1``."""
    return w[::-1].translate(spec.star_table)


def bruhat_leq(y: Word, w: Word) -> bool:
    """Bruhat order: reduced words are unique here, so the order is the
    (greedy) subsequence test on the reduced words.

    >>> bruhat_leq(bytes([1, 0]), bytes([0, 1, 0]))
    True
    >>> bruhat_leq(bytes([1, 0, 1]), bytes([0, 1, 0]))
    False
    """
    rest = iter(w)  # each ``in`` consumes ``w`` up to the letter it finds
    for s in y:
        if s not in rest:
            return False
    return True


def word_key(w: Word) -> tuple[int, Word]:
    """Canonical sort key: length first, then lexicographic."""
    return (len(w), w)


def is_twisted_involution(spec: CoxeterSpec, w: Word) -> bool:
    return w[::-1] == star_word(spec, w)


def check_twisted_involution(spec: CoxeterSpec, w: Word) -> Word:
    if not is_twisted_involution(spec, w):
        raise NotTwistedInvolution(f"{format_word(w)} does not satisfy w^-1 == w*")
    return w


def twist(spec: CoxeterSpec, s: int, w: Word) -> Word:
    """The twist action of a generator on a twisted involution.

    Returns ``sw`` if ``sw == w s*`` and ``s w s*`` otherwise; the result is
    again a twisted involution, distinct from ``w``, and applying the same
    generator twice returns ``w``.  As ``w`` ends in ``w[0]*``, the action
    strips both ends when ``s`` is a descent and wraps ``w`` otherwise.
    **``w`` must be a twisted involution; on any other word the result is
    undefined.**  The recurrences and the closed-form products twist on
    every step, so the check sits at the start of a chain of twists:
    `twist_word` (so `twisted.twisted_product`) and `TwistedKLTable.p`
    check the words they start from, and neither what they reach nor their
    callers, the command line included, check them again.
    """
    if w and w[0] == s:
        return w[1:-1]
    t = spec.star[s]
    if not w and t == s:
        return ONE_LETTER[s]
    return ONE_LETTER[s] + w + ONE_LETTER[t]


def twist_word(spec: CoxeterSpec, x: Word, w: Word) -> Word:
    """Fold the twist action over the letters of ``x`` (rightmost acts first).

    In the universal case this is a genuine group action, so the result only
    depends on the group element ``x``.  ``w`` must be a twisted involution
    (`NotTwistedInvolution` otherwise); every step keeps it one.
    """
    check_twisted_involution(spec, w)
    for s in reversed(x):
        w = twist(spec, s, w)
    return w


def _fold(spec: CoxeterSpec, x: Word) -> Word:
    """``twist_word(spec, x, IDENTITY)`` for reduced ``x``: ``x + dagger(x)``,
    the middle pair merged when ``x[-1]`` is star-fixed."""
    d = dagger(spec, x)
    return x + d[1:] if x and d[0] == x[-1] else x + d


def twist_expression(spec: CoxeterSpec, w: Word) -> Word:
    """The reduced twist expression ``(s_1, ..., s_k)`` of a twisted
    involution, ``w == s_1 # (... # (s_k # identity))``: the descents peeled
    off in turn, which are the first half of ``w``; its length is ``rho(w)``.
    """
    check_twisted_involution(spec, w)
    return w[: (len(w) + 1) // 2]


def rho(spec: CoxeterSpec, w: Word) -> int:
    """Rank of ``w`` in the Bruhat order on twisted involutions."""
    return len(twist_expression(spec, w))


def ell_star(spec: CoxeterSpec, w: Word) -> int:
    """Number of one-letter steps (``s u == u s*`` for what is left, ``u``)
    when ``w`` is peeled down by its descents, so ``2*rho == ell + ell_star``.
    Every step strips both ends but a star-fixed middle letter."""
    check_twisted_involution(spec, w)
    return len(w) % 2


def bruhat_leq_twisted(spec: CoxeterSpec, y: Word, w: Word) -> bool:
    """Bruhat order restricted to twisted involutions, via twist expressions.

    ``y <= w`` exactly when the reduced twist expression of ``y`` is a
    subsequence of the one of ``w``; this agrees with `bruhat_leq` on pairs
    of twisted involutions.
    """
    return bruhat_leq(twist_expression(spec, y), twist_expression(spec, w))


def enumerate_words(gen_count: int, max_len: int, cap: int = DEFAULT_CAP) -> list[Word]:
    """All reduced words of length <= max_len, in (length, lex) order.

    There are ``n*(n-1)**(L-1)`` words of each length ``L >= 1``.

    >>> [''.join('abc'[s] for s in w) or 'e' for w in enumerate_words(2, 2)]
    ['e', 'a', 'b', 'ab', 'ba']
    """
    out: list[Word] = [IDENTITY]
    level: list[Word] = [IDENTITY]
    for _ in range(max_len):
        nxt = [w + ONE_LETTER[s] for w in level for s in range(gen_count) if not w or w[-1] != s]
        if len(out) + len(nxt) > cap:
            raise CapExceeded(f"enumeration exceeds cap of {cap} elements")
        out.extend(nxt)
        level = nxt
    return out


def enumerate_twisted_involutions(
    spec: CoxeterSpec, max_rho: int, cap: int = DEFAULT_CAP
) -> list[Word]:
    """All twisted involutions of rank <= max_rho, in (length, lex) order.

    They are the folds of the reduced words of length <= max_rho, one per
    word, so the cap counts the same elements.

    >>> spec = CoxeterSpec.make(2, "(a b)")
    >>> [format_word(w) for w in enumerate_twisted_involutions(spec, 1)]
    ['e', 'ab', 'ba']
    """
    folds = [_fold(spec, x) for x in enumerate_words(spec.gen_count, max_rho, cap)]
    return sorted(folds, key=word_key)


def lower_words(w: Word) -> tuple[Word, ...]:
    """All elements below ``w`` in Bruhat order, in (length, lex) order.

    These are exactly the reductions of subsequences of the reduced word.
    """
    out: set[Word] = {IDENTITY}
    for s in w:
        out |= {multiply(u, ONE_LETTER[s]) for u in out}
    return tuple(sorted(out, key=word_key))


def lower_twisted(spec: CoxeterSpec, w: Word) -> tuple[Word, ...]:
    """All twisted involutions below ``w``, in (length, lex) order: the folds
    of the subwords of its twist expression."""
    folds = [_fold(spec, x) for x in lower_words(twist_expression(spec, w))]
    return tuple(sorted(folds, key=word_key))


def format_word(w: Word) -> str:
    """Render a word as letters, or ``"e"`` for the identity."""
    return w.translate(_LETTER_BYTES).decode() or "e"  # in C, no loop per letter


def parse_word(text: str, gen_count: int) -> Word:
    """Parse a word literal (``"e"`` or a letter string) and reduce it."""
    text = text.strip()
    if text == "e":
        return IDENTITY
    if not text:
        raise GeneratorError("empty word literal; use 'e' for the identity")
    letters = []
    for ch in text:
        idx = LETTERS.find(ch)
        if idx < 0:
            raise GeneratorError(f"invalid letter {ch!r} in word literal")
        letters.append(idx)
    return reduce_word(letters, gen_count)


def format_star(star: tuple[int, ...]) -> str:
    """Render an involution as disjoint transpositions, e.g. ``"(a b)"``."""
    parts = [
        f"({LETTERS[i]} {LETTERS[j]})"
        for i, j in enumerate(star)
        if j > i
    ]
    return "".join(parts) or "id"


def parse_star(text: str, gen_count: int) -> tuple[int, ...]:
    """Parse a star literal: ``"id"`` or transpositions like ``"(a b)(c d)"``."""
    text = text.strip()
    star = list(range(gen_count))
    if text == "id":
        return tuple(star)
    pos = 0
    moved: set[int] = set()
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise GeneratorError(f"bad star literal at {text[pos:]!r}")
        close = text.find(")", pos)
        if close < 0:
            raise GeneratorError("unclosed transposition in star literal")
        pair = text[pos + 1 : close].split()
        if len(pair) != 2:
            raise GeneratorError(f"transposition needs two letters: {text[pos:close+1]!r}")
        ij = []
        for ch in pair:
            idx = LETTERS.find(ch) if len(ch) == 1 else -1
            if not 0 <= idx < gen_count:
                raise GeneratorError(f"invalid letter {ch!r} in star literal")
            ij.append(idx)
        i, j = ij
        if i == j or i in moved or j in moved:
            raise GeneratorError("star transpositions must be disjoint")
        moved |= {i, j}
        star[i], star[j] = j, i
        pos = close + 1
    return tuple(star)
