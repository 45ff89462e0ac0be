"""Exact arithmetic in the free group on generators x_i indexed by integers.

The group F is free on generators x_i, i in Z.  The shift automorphism
tau_n sends x_m to x_{m+n}; the semidirect product Z |x F built from it
has elements (shift, word) multiplying by (m, x)(n, y) = (m + n, x * tau_m(y)).
Membership in the normal closure of {x_i : i <= n} is decided by the
retraction that deletes every letter of index <= n: the quotient by that
normal closure is free on the surviving generators, so the normal closure
is exactly the retraction's kernel.
"""

from __future__ import annotations

import re
from itertools import chain, groupby, repeat
from collections.abc import Iterable

from .errors import ResourceLimitError

# Most letters a word literal may expand to (the sum of |exponent| over its
# tokens); parse_word checks it before expanding anything.
MAX_WORD_LETTERS = 1 << 20


class Word:
    """A reduced word in the generators x_i.  Immutable and hashable.

    letters is a tuple of (index, exponent) int pairs, exponent +1 or -1.
    The empty word is the group identity.  The constructor validates its
    input; use reduce() to build a Word from an arbitrary letter sequence.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        letters = _checked(letters)
        for a, b in zip(letters, letters[1:]):
            if a[0] == b[0] and a[1] == -b[1]:
                raise ValueError(f"word is not reduced at x{a[0]}")
        self.letters = letters
        self._hash = hash(letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _checked(letters: Iterable[tuple[int, int]]) -> tuple:
    """Letters as int pairs, each exponent checked to be +1 or -1."""
    letters = tuple((int(i), int(e)) for (i, e) in letters)
    for (_, e) in letters:
        if e not in (-1, 1):
            raise ValueError(f"letter exponent must be +1 or -1, got {e}")
    return letters


def _word(letters: list) -> Word:
    """A Word from int pairs already known to be reduced, unchecked: the
    results of the operations below are reduced by construction."""
    w = Word.__new__(Word)
    w.letters = tuple(letters)
    w._hash = hash(w.letters)
    return w


IDENTITY = Word(())


def _cancel(out: list, letters: Iterable[tuple[int, int]]) -> Word:
    """Push checked letters onto the reduced prefix out, each cancelling
    against the last letter kept; letter tuples are kept by reference, so a
    run of one letter costs a pointer per letter."""
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return _word(out)


def reduce(raw: Iterable[tuple[int, int]]) -> Word:
    """Free-reduce a letter sequence; idempotent on already-reduced input."""
    return _cancel([], _checked(raw))


def w_mul(u: Word, v: Word) -> Word:
    """Product of two reduced words, reduced."""
    return _cancel(list(u.letters), v.letters)


def w_inv(u: Word) -> Word:
    """Inverse of a reduced word (reversal with flipped exponents)."""
    return _word([(i, -e) for (i, e) in reversed(u.letters)])


def shift_word(n: int, u: Word) -> Word:
    """Apply the shift automorphism tau_n: every letter index moves by n."""
    n = int(n)
    return _word([(i + n, e) for (i, e) in u.letters])


class GElement:
    """An element (shift, word) of the semidirect product Z |x F."""

    __slots__ = ("shift", "word", "_hash")

    def __init__(self, shift: int, word: Word):
        if not isinstance(word, Word):
            raise TypeError(f"word must be a Word, got {type(word).__name__}")
        self.shift = int(shift)
        self.word = word
        self._hash = hash((self.shift, word))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GElement)
            and self.shift == other.shift
            and self.word == other.word
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GElement({format_gelement(self)!r})"


G_IDENTITY = GElement(0, IDENTITY)


def g_mul(a: GElement, b: GElement) -> GElement:
    """(m, x)(n, y) = (m + n, x * tau_m(y))."""
    return GElement(a.shift + b.shift, w_mul(a.word, shift_word(a.shift, b.word)))


def g_inv(a: GElement) -> GElement:
    """(n, x)^-1 = (-n, tau_{-n}(x^-1))."""
    return GElement(-a.shift, shift_word(-a.shift, w_inv(a.word)))


def retract(u: Word, n: int) -> Word:
    """Delete every letter of index <= n and free-reduce the remainder.

    This is the homomorphism F -> F killing x_i for i <= n; its kernel is
    the normal closure of those generators.
    """
    return _cancel([], [letter for letter in u.letters if letter[0] > n])


def gamma_member(u: Word, n: int) -> bool:
    """True iff u lies in the normal closure of {x_i : i <= n}."""
    return not retract(u, n)


def minimal_level(u: Word) -> int:
    """The least n with gamma_member(u, n); always one of u's letter indices.

    retract(u, n) only changes as n passes a letter index, and membership is
    monotone in n (true at the max index), so a binary search over the
    sorted distinct indices finds it.  Undefined for the identity (it lies
    in every normal closure), which raises ValueError.
    """
    if not u.letters:
        raise ValueError("minimal level of the identity word is undefined")
    indices = sorted({i for (i, _) in u.letters})
    lo, hi = 0, len(indices) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if gamma_member(u, indices[mid]):
            hi = mid
        else:
            lo = mid + 1
    return indices[lo]


_LETTER_RE = re.compile(r"^x(-?\d+)(?:\^(-?\d+))?$")
_T_RE = re.compile(r"^t(?:\^(-?\d+))?$")
_PAIR_RE = re.compile(r"^\(\s*(-?\d+)\s*;(.*)\)$")


def _check_letters(size: int, what: str) -> None:
    if size > MAX_WORD_LETTERS:
        raise ResourceLimitError(
            f"{what} has {size} letters, above MAX_WORD_LETTERS = {MAX_WORD_LETTERS}"
        )


def _word_tokens(text: str) -> tuple[list, int]:
    """The checked (index, exponent) tokens of a word literal, unexpanded
    (none for `e`), and the number of letters they expand to."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty word literal (use 'e' for the identity)")
    if tokens == ["e"]:
        return [], 0
    parsed = []
    for pos, tok in enumerate(tokens):
        m = _LETTER_RE.match(tok)
        if m is None:
            raise ValueError(f"bad word token {tok!r} at position {pos}")
        parsed.append((int(m.group(1)), 1 if m.group(2) is None else int(m.group(2))))
    return parsed, sum(abs(exp) for _, exp in parsed)


def parse_word(text: str) -> Word:
    """Parse a word literal: whitespace-separated `x<index>` tokens with an
    optional `^<exponent>` suffix, or `e` alone for the identity.

    Each token's run of |exponent| letters is reduced as it is read, never
    expanded into a list.  A literal of more than MAX_WORD_LETTERS letters raises
    ResourceLimitError before any letter is read.
    """
    parsed, size = _word_tokens(text)
    _check_letters(size, "word literal")
    runs = (repeat((idx, 1 if exp >= 0 else -1), abs(exp)) for idx, exp in parsed)
    return _cancel([], chain.from_iterable(runs))


def format_word(u: Word) -> str:
    """Literal form of a word, parseable by parse_word; a run of k > 1 equal
    letters x_i^e is written x_i^(e k), no longer than any literal of it."""
    if not u.letters:
        return "e"
    runs = ((i, e * len(list(run))) for (i, e), run in groupby(u.letters))
    return " ".join(f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in runs)


def _split_gelement(text: str) -> tuple[int, str]:
    """The shift of an element literal and its word literal."""
    s = text.strip()
    m = _T_RE.match(s)
    if m:
        return 1 if m.group(1) is None else int(m.group(1)), "e"
    m = _PAIR_RE.match(s)
    if m:
        return int(m.group(1)), m.group(2).strip() or "e"
    return 0, s


def parse_gelement(text: str) -> GElement:
    """Parse an element literal: `(n; <word>)`, a bare word (shift 0), or
    the shorthand `t` / `t^k` for (k; e)."""
    shift, body = _split_gelement(text)
    return GElement(shift, parse_word(body))


def parse_literals(text: str, what: str, parse) -> list:
    """Parse comma-separated word or element literals with parse, once
    their letters summed over the whole list are known to fit
    MAX_WORD_LETTERS; a bare word literal is an element literal, so both
    are counted by their checked tokens without expanding any."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"{what} literal is empty")
    _check_letters(sum(_word_tokens(_split_gelement(p)[1])[1] for p in parts), f"{what} list")
    return [parse(p) for p in parts]


def format_gelement(a: GElement) -> str:
    """Literal form of a group element, parseable by parse_gelement."""
    return f"({a.shift}; {format_word(a.word)})"
