"""Exterior derivative two ways: multivector fields vs differential forms.

The polar chart keeps everything small enough to read.
"""

import numpy as np

from gcalc.connection import levi_civita
from gcalc.forms import FormField, form_d, form_eval, hat_map, unhat
from gcalc.manifest import builtin
from gcalc.manifold import MultivectorField
from gcalc.mdd import codifferential, ext_d, ext_d_field

polar = builtin("polar2").chart
spec = levi_civita(polar, "coord")
point = (1.3, 0.8)

# A 1-form with a twist in it.
w = FormField.parse(polar, 1, {"1": "r*sin(theta)", "2": "r^2"})
dw = form_d(w)
print("w  at point:", form_eval(w, point))
print("dw at point:", form_eval(dw, point))

# The same object as a multivector field, pushed through the conjugated
# operator: unhat to a field, exterior-derive, hat back to a form.
field = unhat(polar, w)
same = hat_map(polar, ext_d_field(polar, "coord", field))
print("conjugated route:", form_eval(same, point))

# d is nilpotent whichever route you take.
ddw = form_d(dw)
print("\nddw:", form_eval(ddw, point))

# On the multivector side the codifferential lowers grade; on a
# bivector over a 2d chart it lands on vectors.
B = MultivectorField.parse(polar, {"1,2": "r"})
print("\ncodifferential of r e_r^e_theta:",
      codifferential(spec, B, point).to_blade_map())

# On the form side d of a 0-form has plain partial derivatives as its
# dx coefficients, no metric anywhere.  The multivector ext_d of the
# same scalar is the gradient, whose components carry a raised index.
f0 = FormField.parse(polar, 0, {"": "r^2*cos(theta)"})
print("\nd of 0-form:", form_eval(form_d(f0), point))
print("partials:   ",
      {1: float(2 * point[0] * np.cos(point[1])),
       2: float(-point[0] ** 2 * np.sin(point[1]))})

f = MultivectorField.scalar(polar, "r^2*cos(theta)")
print("ext_d of the scalar field (index raised by 1/r^2 on the second "
      "slot):", ext_d(polar, "coord", f, point).to_blade_map())
