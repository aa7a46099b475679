"""Truncated tensor algebra: product, coproduct, exp/log, predicates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lielog.scalars import COMPLEX, DimensionMismatch, DomainError
from lielog.free_lie import lie_to_tensor
from lielog.tensor_algebra import (
    TruncatedTensor,
    is_grouplike,
    is_primitive,
    mul,
    tensor_exp,
    tensor_inverse,
    tensor_log,
)

from util import (
    coproduct,
    oracle_is_grouplike,
    oracle_is_primitive,
    random_lie_poly,
    random_tensor,
    seeded,
)


def unit(n=2, k=3):
    return TruncatedTensor.unit(n, k)


def gen(i, n=2, k=3):
    return TruncatedTensor.generator(n, k, i)


def test_unit_law():
    rng = seeded(1)
    for _ in range(10):
        x = random_tensor(rng, 2, 4)
        assert mul(unit(2, 4), x) == x
        assert mul(x, unit(2, 4)) == x


def test_monomial_concatenation():
    assert mul(gen(1), gen(2)) == TruncatedTensor(2, 3, {(1, 2): 1})


def test_truncation_discards_high_degree():
    # with k=3 the degree-3 product X1 * X1X2 is discarded entirely
    a = gen(1) + TruncatedTensor(2, 3, {(1, 2): 1})
    b = TruncatedTensor(2, 3, {(1, 2): 1})
    assert mul(a, b) == TruncatedTensor.zero(2, 3)


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        mul(gen(1, 2, 3), gen(1, 2, 4))
    with pytest.raises(DimensionMismatch):
        mul(gen(1, 2, 3), gen(1, 3, 3))
    with pytest.raises(DimensionMismatch):
        mul(gen(1), TruncatedTensor.generator(2, 3, 1, COMPLEX))


def test_word_validation():
    with pytest.raises(DomainError):
        TruncatedTensor(2, 3, {(1, 2, 1): 1})
    with pytest.raises(DomainError):
        TruncatedTensor(2, 3, {(3,): 1})


def test_associativity_and_unit_random():
    rng = seeded(2)
    for _ in range(20):
        a = random_tensor(rng, 2, 4)
        b = random_tensor(rng, 2, 4)
        c = random_tensor(rng, 2, 4)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_coproduct_generator():
    assert coproduct(gen(1)) == {((), (1,)): 1, ((1,), ()): 1}


def test_coproduct_unit():
    assert coproduct(unit()) == {((), ()): 1}


def test_coproduct_word12():
    assert coproduct(TruncatedTensor(2, 3, {(1, 2): 1})) == {
        ((), (1, 2)): 1,
        ((1,), (2,)): 1,
        ((2,), (1,)): 1,
        ((1, 2), ()): 1,
    }


def test_is_primitive():
    assert is_primitive(gen(1))
    comm = mul(gen(1), gen(2)) - mul(gen(2), gen(1))
    assert is_primitive(comm)
    assert not is_primitive(mul(gen(1), gen(2)))


def test_tensor_exp_basics():
    assert tensor_exp(TruncatedTensor.zero(2, 3)) == unit()
    expected = unit() + gen(1) + TruncatedTensor(2, 3, {(1, 1): Fraction(1, 2)})
    assert tensor_exp(gen(1)) == expected


def test_exp_log_roundtrip_exact():
    rng = seeded(4)
    for _ in range(15):
        a = random_tensor(rng, 2, 4, zero_constant=True)
        assert tensor_log(tensor_exp(a)) == a
        u = unit(2, 4) + random_tensor(rng, 2, 4, zero_constant=True)
        assert tensor_exp(tensor_log(u)) == u


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3 ** 6 - 1), st.integers(0, 1000))
def test_exp_log_roundtrip_hypothesis(mask, seed):
    # hypothesis-driven sparse exact elements with zero constant term
    rng = seeded(seed)
    a = random_tensor(rng, 3, 3, zero_constant=True, density=0.3)
    assert tensor_log(tensor_exp(a)) == a


def test_exp_log_domain_errors():
    with pytest.raises(DomainError):
        tensor_exp(unit())
    with pytest.raises(DomainError):
        tensor_log(gen(1))


def test_is_grouplike():
    assert is_grouplike(unit())
    assert is_grouplike(tensor_exp(gen(1)))
    assert not is_grouplike(unit() + gen(1))  # k >= 3: the X1 (x) X1 term survives
    with pytest.raises(DomainError):
        is_grouplike(gen(1))


def test_grouplike_closure_under_product():
    rng = seeded(5)
    for _ in range(5):
        a = random_tensor(rng, 2, 4, zero_constant=True, density=0.5)
        b = random_tensor(rng, 2, 4, zero_constant=True, density=0.5)
        prim_a = a - _nonprimitive_part(a)
        prim_b = b - _nonprimitive_part(b)
        ua, ub = tensor_exp(prim_a), tensor_exp(prim_b)
        assert is_grouplike(mul(ua, ub))


def _nonprimitive_part(a):
    # crude projection for test purposes: kill everything except degree-1
    out = TruncatedTensor.zero(a.n, a.k, a.backend)
    for w, c in a.coeffs.items():
        if len(w) != 1:
            out = out + TruncatedTensor(a.n, a.k, {w: c}, a.backend)
    return out


def test_tensor_inverse():
    rng = seeded(6)
    for _ in range(10):
        u = unit(2, 4) + random_tensor(rng, 2, 4, zero_constant=True)
        assert mul(u, tensor_inverse(u)) == unit(2, 4)
        assert mul(tensor_inverse(u), u) == unit(2, 4)
    with pytest.raises(DomainError):
        tensor_inverse(gen(1))


def test_scalar_backends_complex_tolerance():
    a = TruncatedTensor(2, 3, {(1,): 1.0 + 0j}, COMPLEX)
    b = TruncatedTensor(2, 3, {(1,): 1.0 + 1e-12j}, COMPLEX)
    assert a.close_to(b, 1e-9)
    assert not a.close_to(b, 1e-15)


def test_degree_components_sum_to_tensor():
    rng = seeded(7)
    a = random_tensor(rng, 2, 4)
    total = TruncatedTensor.zero(2, 4)
    for m in range(4):
        total = total + a.degree_component(m)
    assert total == a


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.integers(3, 6),
    st.booleans(),
)
def test_lie_predicates_match_coproduct_oracle(seed, n, k, add_word):
    # a Lie element, optionally plus one word: the Dynkin-Specht-Wever
    # decisions must equal those of the literal coproduct
    rng = seeded(seed)
    t = lie_to_tensor(random_lie_poly(rng, n, k))
    if add_word:
        m = rng.randint(1, k - 1)
        word = tuple(rng.randint(1, n) for _ in range(m))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        t = t + TruncatedTensor(n, k, {word: c})
    assert is_primitive(t) == oracle_is_primitive(t)
    u = tensor_exp(t)
    assert is_grouplike(u) == oracle_is_grouplike(u)


def test_lie_predicates_complex_tolerance():
    rng = seeded(8)
    lie = lie_to_tensor(random_lie_poly(rng, 2, 5)).to_complex()
    assert is_primitive(lie, 1e-9) and is_grouplike(tensor_exp(lie), 1e-9)
    word = TruncatedTensor(2, 5, {(1, 1, 2): 1}, COMPLEX)
    for eps, expected in ((1e-6, False), (1e-12, True)):
        t = lie + word.scale(eps)
        assert is_primitive(t, 1e-9) is expected
        assert is_grouplike(tensor_exp(t), 1e-9) is expected
