"""
Truncated tensor algebras and free Lie algebras
===============================================

A walk through the basic objects: noncommutative polynomials truncated at a
fixed degree, primitive (Lie) and group-like elements, and the Lyndon bracket
basis of the free Lie algebra sitting inside.
"""

from lielog import (
    LiePoly,
    TruncatedTensor,
    bracket,
    is_grouplike,
    is_primitive,
    lie_to_tensor,
    lyndon_basis,
    mul,
    omega,
    omega_tensor,
    tensor_exp,
    tensor_log,
    tensor_to_lie,
)

# Work with two generators X1, X2 and keep words of length < 4.
n, k = 2, 4
x1 = TruncatedTensor.generator(n, k, 1)
x2 = TruncatedTensor.generator(n, k, 2)

# The product is concatenation of words; degree-4 terms are discarded.
print("X1 * X2 =", mul(x1, x2))
print("X1^3 * X2 =", mul(mul(mul(x1, x1), x1), x2), "(truncated away)")

# Primitive elements are exactly the Lie elements.  A degree-m element P is
# Lie iff left-normed bracketing rho(x_i1 ... x_im) = [..[x_i1, x_i2], ..., x_im]
# gives rho(P) = m P (Dynkin-Specht-Wever): rho(X1X2) = X1X2 - X2X1 is not
# 2 X1X2, but rho([X1, X2]) = 2 [X1, X2].
print("X1 primitive:", is_primitive(x1))
commutator = mul(x1, x2) - mul(x2, x1)
print("[X1, X2] primitive:", is_primitive(commutator))
print("X1 X2 primitive:", is_primitive(mul(x1, x2)))

# exp and log are inverse bijections between the augmentation ideal and the
# group of units with constant term 1; both are finite sums here.  u is
# group-like iff log u is primitive.
u = tensor_exp(x1)
print("exp(X1) =", u)
print("log(exp(X1)) == X1:", tensor_log(u) == x1)
print("exp(X1) group-like:", is_grouplike(u))

# The free Lie algebra in its Lyndon-word bracket basis.  Per-degree counts
# follow the necklace (Witt) formula: 2, 1, 2 for rank 2 up to degree 3.
basis = lyndon_basis(n, k)
for degree, words in basis.items():
    print(f"degree {degree}: {len(words)} Lyndon words {words}")

# Lie elements embed in the tensor algebra as iterated commutators, and the
# embedding inverts exactly on primitives.
ell = bracket(LiePoly.generator(n, k, 1), LiePoly.generator(n, k, 2))
print("[x1, x2] in the Lyndon basis:", ell)
print("tensor image:", lie_to_tensor(ell))
print("round trip:", tensor_to_lie(lie_to_tensor(ell)) == ell)

# The symplectic element for genus 1 and its tensor image.
w = omega(1, k)
print("omega =", w, "->", omega_tensor(1, k))
