"""Free-group words, endomorphisms, Magnus expansions, and the Johnson map.

A Magnus expansion sends each free-group generator to a unit of the truncated
tensor algebra with constant term 1 and invertible degree-1 part (the base
matrix).  The total Johnson map of a free-group endomorphism phi with respect
to an expansion theta is the unique filtered automorphism T with
T o theta = theta o phi, the transporter from theta to theta o phi; for
theta_exp the transporter's Pi_theta is the identity.
"""

from __future__ import annotations

import numpy as np

from .automorphisms import matrix_inverse, transporter
from .scalars import (
    EXACT,
    DimensionMismatch,
    DomainError,
)
from .tensor_algebra import (
    TruncatedTensor,
    degree_columns,
    is_grouplike,
    mul,
    tensor_exp,
    tensor_inverse,
)
from .free_lie import omega_tensor


def _free_reduce(letters):
    out = []
    for letter in letters:
        if letter == 0:
            raise DomainError("0 is not a generator index")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class FreeGroupWord:
    """Freely reduced word; negative indices denote inverse letters."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(letters)

    def __mul__(self, other):
        return FreeGroupWord(self.letters + other.letters)

    def inverse(self):
        return FreeGroupWord(tuple(-l for l in reversed(self.letters)))

    def __eq__(self, other):
        return isinstance(other, FreeGroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        return "*".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in self.letters)

    @classmethod
    def generator(cls, i):
        return cls((i,))

    @classmethod
    def commutator(cls, a, b):
        return a * b * a.inverse() * b.inverse()


def boundary_word(g):
    """The boundary class zeta = [x1,x2][x3,x4]...[x_{2g-1},x_{2g}]."""
    word = FreeGroupWord()
    for i in range(1, g + 1):
        word = word * FreeGroupWord.commutator(
            FreeGroupWord.generator(2 * i - 1), FreeGroupWord.generator(2 * i)
        )
    return word


class FreeGroupEndo:
    """Endomorphism of the free group, given by generator images."""

    __slots__ = ("n", "images")

    def __init__(self, n, images):
        if len(images) != n:
            raise DimensionMismatch(f"expected {n} generator images")
        self.n = n
        self.images = [
            img if isinstance(img, FreeGroupWord) else FreeGroupWord(img)
            for img in images
        ]
        for img in self.images:
            for letter in img.letters:
                if abs(letter) > n:
                    raise DomainError(f"letter {letter} outside rank {n}")

    def induced_matrix(self):
        """Exponent-sum matrix on homology; column i is the image of x_{i+1}."""
        mat = np.zeros((self.n, self.n), dtype=int)
        for i, img in enumerate(self.images):
            for letter in img.letters:
                mat[abs(letter) - 1, i] += 1 if letter > 0 else -1
        return mat

    def is_invertible_over_z(self):
        det = round(float(np.linalg.det(self.induced_matrix().astype(float))))
        return det in (1, -1)

    def apply_to_word(self, word):
        out = FreeGroupWord()
        for letter in word.letters:
            img = self.images[abs(letter) - 1]
            out = out * (img if letter > 0 else img.inverse())
        return out

    def compose(self, other):
        """self o other: substitute other's images into self."""
        if self.n != other.n:
            raise DimensionMismatch("rank mismatch")
        return FreeGroupEndo(
            self.n, [self.apply_to_word(img) for img in other.images]
        )

    def __repr__(self):
        return f"FreeGroupEndo({self.images})"


class MagnusExpansion:
    """Generator images in the unit group of the truncated tensor algebra."""

    __slots__ = ("n", "k", "backend", "images")

    def __init__(self, images):
        if not images:
            raise DomainError("expansion needs at least one generator image")
        self.n = images[0].n
        self.k = images[0].k
        self.backend = images[0].backend
        if len(images) != self.n:
            raise DimensionMismatch(f"expected {self.n} generator images")
        for img in images:
            if (img.n, img.k, img.backend) != (self.n, self.k, self.backend):
                raise DimensionMismatch("images disagree on (n, k, backend)")
            if img.constant_term != 1:
                raise DomainError("expansion images must have constant term 1")
        self.images = list(images)
        a = self.base_matrix()
        matrix_inverse(a, self.backend)  # raises if the degree-1 part is singular

    def base_matrix(self):
        """Degree-1 read-off; column i holds the coordinates of theta(x_{i+1})."""
        return degree_columns(self.images, 1)

    def is_grouplike_expansion(self, tol=None):
        """Group-like means every value of theta is group-like; it is enough to
        check the generator images (group-likes are closed under products and
        inverses)."""
        return all(is_grouplike(img, tol) for img in self.images)

    def evaluate(self, word):
        """Image of a free-group word: product of images and tensor inverses."""
        out = TruncatedTensor.unit(self.n, self.k, self.backend)
        for letter in word.letters:
            img = self.images[abs(letter) - 1]
            out = mul(out, img if letter > 0 else tensor_inverse(img))
        return out


def theta_exp(n, k, backend=EXACT):
    """The standard group-like expansion x_i -> exp(X_i), over the identity."""
    images = [
        tensor_exp(TruncatedTensor.generator(n, k, i + 1, backend)) for i in range(n)
    ]
    return MagnusExpansion(images)


def is_symplectic_expansion(theta, g, tol=None):
    """True iff theta sends the boundary word to exp(omega)."""
    if theta.n != 2 * g:
        raise DomainError("symplectic test requires n = 2g")
    if not theta.is_grouplike_expansion(tol):
        raise DomainError("symplectic test requires a group-like expansion")
    lhs = theta.evaluate(boundary_word(g))
    rhs = tensor_exp(omega_tensor(g, theta.k, theta.backend))
    return lhs.close_to(rhs, tol)


def total_johnson(theta, endo):
    """The unique filtered automorphism T with T o theta = theta o endo."""
    if endo.n != theta.n:
        raise DimensionMismatch("endomorphism rank does not match the expansion")
    induced = endo.induced_matrix()
    if abs(np.linalg.det(induced.astype(float))) < 1e-12:
        raise DomainError("endomorphism does not induce an invertible map on H")
    pushed = MagnusExpansion(
        [theta.evaluate(endo.images[i]) for i in range(theta.n)]
    )
    return transporter(theta, pushed)


def dehn_fixtures(genus=1):
    """Named genus-1 mapping classes as free-group endomorphisms.

    The fixtures ship as a data file so that other implementations can share
    them byte for byte.  Twist conventions: t_a sends x2 -> x2 x1 (twist
    along the first handle curve), t_b sends x1 -> x1 x2^-1; inverses ship
    explicitly.  The composite anosov = t_a o t_b_inv induces the trace-3
    cat map [[2,1],[1,1]].
    """
    if genus != 1:
        raise DomainError("only genus-1 fixtures ship with the package")
    import importlib.resources
    import json

    text = (
        importlib.resources.files("lielog").joinpath("data/dehn_genus1.json").read_text()
    )
    payload = json.loads(text)
    return {
        name: FreeGroupEndo(obj["n"], [FreeGroupWord(img) for img in obj["images"]])
        for name, obj in payload["endos"].items()
    }
