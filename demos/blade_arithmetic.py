"""Multivector arithmetic over a few metrics.

Run me with python3; everything prints, nothing plots.
"""

import numpy as np

from gcalc.algebra import (Gram, LinMap, Multivector, dot, dual, gp,
                           pseudoscalar, reverse, trace_rot, tsa_decompose,
                           wedge)

# Start in the plane with the ordinary dot product.
g = Gram([[1.0, 0.0], [0.0, 1.0]])
e1 = Multivector.basis_vector(2, 1)
e2 = Multivector.basis_vector(2, 2)

print("e1 e2           =", gp(e1, e2, g))
print("e2 e1           =", gp(e2, e1, g))
print("(e1 e2)^2       =", gp(gp(e1, e2, g), gp(e1, e2, g), g))

# The product of two vectors splits into a scalar and a bivector part.
a = Multivector.vector([3.0, 1.0])
b = Multivector.vector([-1.0, 2.0])
ab = gp(a, b, g)
print("\na b             =", ab)
print("a . b           =", dot(a, b, g))
print("a ^ b           =", wedge(a, b))
print("split rebuilt   =", dot(a, b, g) + wedge(a, b))

# Same vectors, Minkowski-style metric: the scalar part changes sign
# structure, the bivector part does not care about the metric at all.
h = Gram([[1.0, 0.0], [0.0, -1.0]])
print("\nwith signature (+,-):")
print("a . b           =", dot(a, b, h))
print("a ^ b           =", wedge(a, b))

# Duality swaps dot against wedge.  Work in 3d for a moment.
g3 = Gram(np.eye(3))
u = Multivector.vector([1.0, 2.0, 0.5])
v = Multivector.vector([0.0, 1.0, -1.0])
lhs = dual(wedge(u, v), g3)
rhs = dot(u, dual(v, g3), g3)
print("\nI^-1 (u ^ v)    =", lhs)
print("u . (I^-1 v)    =", rhs)
print("pseudoscalar    =", pseudoscalar(g3))
print("reverse(u^v)    =", reverse(wedge(u, v)))

# Any linear map on vectors splits into trace + symmetric-traceless +
# antisymmetric pieces.  The antisymmetric piece is carried by a bivector.
rng = np.random.default_rng(4)
f = LinMap(rng.normal(size=(3, 3)))
tr, rot_b = trace_rot(f, g3)
_, f_minus, f_plus = tsa_decompose(f, g3)
ident = LinMap(np.asarray(g3.inverse))
print("\ntrace of f      =", tr)
print("rot bivector    =", rot_b)
x = Multivector.vector([1.0, 0.0, 0.0])
rebuilt = ident.apply(x, g3) * (tr / 3.0) \
    + f_minus.apply(x, g3) + f_plus.apply(x, g3)
print("f(e1)           =", f.apply(x, g3))
print("sum of parts    =", rebuilt)
# a . rot recovers twice the antisymmetric action
print("a . rot         =", dot(x, rot_b, g3))
print("2 f-(a)         =", f_minus.apply(x, g3) * 2.0)
