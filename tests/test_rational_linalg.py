"""Integer lattices: exact LLL reduction and Fincke-Pohst enumeration."""

import itertools
import random
from fractions import Fraction

import numpy as np

from lielog.rational_linalg import lll_reduce, short_vectors


def _random_basis(rng, n):
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if round(abs(np.linalg.det(np.array(rows, dtype=float)))) >= 1:
            return rows


def _gram_schmidt(rows):
    stars, mu = [], {}
    for i, row in enumerate(rows):
        star = [Fraction(x) for x in row]
        for j in range(i):
            mu[i, j] = sum(Fraction(x) * y for x, y in zip(row, stars[j])) / sum(y * y for y in stars[j])
            star = [s - mu[i, j] * y for s, y in zip(star, stars[j])]
        stars.append(star)
    return [sum(s * s for s in star) for star in stars], mu


def test_lll_reduce_is_a_reduced_basis_of_the_same_lattice():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            rows = _random_basis(rng, n)
            rows[0] = [x * 1000 + 7 for x in rows[0]]
            if round(abs(np.linalg.det(np.array(rows, dtype=float)))) == 0:
                continue
            reduced = lll_reduce(rows)
            # the same lattice: each basis is an integer combination of the other
            change = np.linalg.solve(np.array(rows, dtype=float).T, np.array(reduced, dtype=float).T)
            assert np.allclose(change, np.round(change), atol=1e-6)
            assert round(abs(np.linalg.det(np.round(change)))) == 1
            norms, mu = _gram_schmidt(reduced)
            assert all(abs(m) <= Fraction(1, 2) for m in mu.values())
            for k in range(1, n):
                assert norms[k] >= (Fraction(3, 4) - mu[k, k - 1] ** 2) * norms[k - 1]


def test_short_vectors_finds_every_point_in_the_ball():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(8):
            rows = lll_reduce(_random_basis(rng, n))
            radius_sq = rng.randint(1, 150)
            seen = []
            assert short_vectors(rows, radius_sq, lambda x: seen.append(x), 10**6) is not None
            inverse = np.linalg.inv(np.array(rows, dtype=float))
            reach = int(np.sqrt(radius_sq) * np.max(np.linalg.norm(inverse, axis=0))) + 1
            want = set()
            for x in itertools.product(range(-reach, reach + 1), repeat=n):
                point = [sum(xi * row[j] for xi, row in zip(x, rows)) for j in range(n)]
                if any(x) and sum(p * p for p in point) <= radius_sq:
                    want.add(x)
            assert set(seen) == want and len(seen) == len(want)


def test_short_vectors_budget_and_shrinking_radius():
    rows = [[1, 0], [0, 1]]
    assert short_vectors(rows, 100, lambda x: None, 10) is None
    seen = []

    def visit(x):
        seen.append(x)
        return 1  # from the first point on, only the unit vectors are inside

    short_vectors(rows, 100, visit, 10**6)
    assert all(sum(v * v for v in x) <= 1 for x in seen[1:])
