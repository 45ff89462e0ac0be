"""Shared test utilities.

The main tool is an independent 2x2 integer matrix model for normal-closure
membership: map the generator with index i to B^i A B^-i when i > n and to
the identity when i <= n, where A = [[1,2],[0,1]] and B = [[1,0],[2,1]].
The images of the surviving generators generate a free group (the classical
ping-pong pair for matrices with entries divisible by 2), so a word maps to
the identity matrix exactly when deleting all letters of index <= n reduces
it away, i.e. exactly when the word lies in the normal closure of
{x_i : i <= n}.  This gives an oracle for gamma_member that shares no code
with the retraction-based implementation.
"""

import random
from typing import List, Tuple

from cosetlab.freegroup import (
    GElement,
    Word,
    reduce,
    w_inv,
    w_mul,
)

Mat = Tuple[Tuple[int, int], Tuple[int, int]]

MAT_ID: Mat = ((1, 0), (0, 1))


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def matrix_image(word: Word, n: int) -> Mat:
    """Image of the word under the homomorphism killing indices <= n.

    x_i^e maps to B^i A^e B^-i for i > n, where A^e = [[1, 2e], [0, 1]] and
    B^i = [[1, 0], [2i, 1]] in closed form.
    """
    m = MAT_ID
    for index, exponent in word:
        if index <= n:
            continue
        b_i = ((1, 0), (2 * index, 1))
        b_neg = ((1, 0), (-2 * index, 1))
        a_e = ((1, 2 * exponent), (0, 1))
        m = mat_mul(m, mat_mul(b_i, mat_mul(a_e, b_neg)))
    return m


def random_word(rng: random.Random, max_len: int = 6, lo: int = -5, hi: int = 5) -> Word:
    raw: List[Tuple[int, int]] = []
    for _ in range(rng.randrange(max_len + 1)):
        raw.append((rng.randint(lo, hi), rng.choice((1, -1))))
    return reduce(raw)


def random_nonempty_word(rng: random.Random, max_len: int = 6,
                         lo: int = -5, hi: int = 5) -> Word:
    while True:
        w = random_word(rng, max_len, lo, hi)
        if w.letters:
            return w


def random_closure_member(rng: random.Random, n: int, factors: int = 3) -> Word:
    """Random element of the normal closure of {x_i : i <= n}: a product of
    conjugates u x_i^e u^-1 with i <= n."""
    out = reduce(())
    for _ in range(rng.randrange(1, factors + 1)):
        u = random_word(rng, 4, n - 4, n + 4)
        core = Word(((rng.randint(n - 3, n), rng.choice((1, -1))),))
        out = w_mul(out, w_mul(u, w_mul(core, w_inv(u))))
    return out


def random_gelement(rng: random.Random, max_shift: int = 3, max_len: int = 5) -> GElement:
    return GElement(rng.randint(-max_shift, max_shift), random_word(rng, max_len))
