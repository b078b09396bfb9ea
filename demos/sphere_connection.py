"""Connection coefficients and covariant derivatives on the unit sphere."""

import numpy as np

from gcalc.connection import conn_spec, connection_at
from gcalc.manifest import builtin
from gcalc.mdd import gradient, mdd

bundle = builtin("sphere2")
sphere = bundle.chart

# In the theta/phi coordinate frame only three coefficients survive,
# all proportional to sin(theta)cos(theta).
for theta in (0.4, np.pi / 4, 1.2):
    conn = connection_at(sphere, "coord", (theta, 0.3))
    sc = np.sin(theta) * np.cos(theta)
    print(f"theta = {theta:.4f}")
    print(f"  gbar[theta,phi,phi] = {conn.gammabar.value[0, 1, 1]: .6f}"
          f"   (sin cos = {sc: .6f})")
    print(f"  gbar[phi,theta,phi] = {conn.gammabar.value[1, 0, 1]: .6f}")
    print(f"  gbar[phi,phi,theta] = {conn.gammabar.value[1, 1, 0]: .6f}")

# Transporting the phi basis vector along theta tilts it by cot(theta):
# the sphere's meridians converge toward the poles.
spec = conn_spec(sphere, "coord")
e_phi = bundle.field("e_phi")
point = (np.pi / 4, 0.3)
d = mdd(spec, np.array([1.0, 0.0]), e_phi, point)
print("\nD_theta e_phi at theta=pi/4:", d.to_blade_map())
print("cot(pi/4) =", 1.0 / np.tan(np.pi / 4))

# The gradient of the height function z = cos(theta) points straight
# down the meridian with length sin(theta).
from gcalc.manifold import MultivectorField

z = MultivectorField.scalar(sphere, "cos(theta)")
for theta in (0.5, 1.0, 1.5):
    gz = gradient(spec, z, (theta, 0.0))
    comps = gz.to_blade_map()
    print(f"grad z at theta={theta}: {comps}"
          f"   |grad z| should be sin = {np.sin(theta):.6f}")

# A quick torsion check: with no contorsion the antisymmetric part of
# the coefficients reproduces the Lie bracket, which vanishes for
# coordinate frames.
conn = connection_at(sphere, "coord", (0.9, 0.1))
anti = conn.gammabar.value - conn.gammabar.value.transpose(1, 0, 2)
print("\nmax |antisymmetric part| over coord frame:", np.abs(anti).max())
