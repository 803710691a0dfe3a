"""Cohomological transforms: twists, reflections, isotropic kernels.

Run:  python demos/02_transforms.py
"""

from fractions import Fraction as F

import mukailab as M

# --- The rank-2 product model ------------------------------------------------
# On an abelian surface with NS = Ze + Zf, the Poincare-type kernel (1, 0, 0)
# induces the transform r + c D - a omega  ->  a - c D_hat - r omega, where
# H = e + k f and D = e - k f.
ab = M.abelian_model()
k = 3
cmap = M.cor_ext_map(ab, k)
D = ab.cls((1, -k))
v = ab.vector(2, D.scale(1).coords, -5)           # r=2, c=1, a=5
img = cmap.apply(v)
print("source:", (v.r, v.c.coords, v.t))
print("image :", (img.r, img.c.coords, img.t))
print("squares match:", M.mukai_square(v) == M.mukai_square(img) == 2 * 2 * 5 - 2 * k)

# The transform preserves the twisted-degree-zero condition and the pairing:
# check_isometry proves it exactly over an integer basis of the domain.
print("exact isometry, proved over a domain basis:", M.check_isometry(cmap))

rep = M.fm_preconditions(v, ab.vector(1, (0, 0), 0), ab, ab.cls((1, k)))
print("stability transport applies:", rep.applicable,
      "(deg=%s, l=%s, a=%s)" % (rep.deg_G1, rep.l, rep.a))

# --- Enriques (-1)-reflection --------------------------------------------------
# With the structure-sheaf kernel the reflection swaps rank and the
# omega-coefficient: r + c + (s/2) omega  ->  s + c + (r/2) omega.
enr = M.enriques_model()
refl = M.enriques_reflection_map(enr)          # kernel v0 = v(O_X) by default
x = enr.vector(5, [1, 2, 1, 0, 0, 0, 0, 0, 0, 0], F(9, 2))
y = refl.apply(x)
print("reflection:", (x.r, x.t), "->", (y.r, y.t))
print("involution:", refl.apply(y) == x)

# --- Elliptic surface with a section ---------------------------------------------
# The compactified relative Jacobian acts on classes of relative degree 0:
# (r, l f + D, n = -ch_2)  ->  -(0, r sigma + n f - D, r + l).
ek3 = M.k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"), polarization=(1, 3))
g = M.elliptic_jacobian_fm(1, 0, ek3.ns.zero(), 0, ek3)     # the structure sheaf
print("jacobian transform of O_X:", (g.rank, g.c.coords, g.chi))
back = M.elliptic_jacobian_inverse(-g, ek3)
print("inverse recovers (r, l, D, n):", (back[0], back[1], back[3]))

jac = M.elliptic_jacobian_map(ek3)
print("jacobian is a pairing isometry:", M.check_isometry(jac))
