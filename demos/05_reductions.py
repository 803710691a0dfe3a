"""Reduction chains: every step logged, every invariant checked.

Run:  python demos/05_reductions.py
"""

from fractions import Fraction as F

import mukailab as M

# --- Reduction to rank one on the product model --------------------------------
# A primitive class l(r + c1) + a omega walks down to rank 1 through
# twist / transform / deformation moves that all preserve the Mukai square.
ab = M.abelian_model()
trace = M.reduce_to_rank_one(1, 2, ab.cls((0, 1)), -1, ab)
print("rank-one reduction:")
for step, inv in zip(trace.steps, trace.invariant_log[1:]):
    print("  %-8s %-34s square=%s mult=%d"
          % (step.move, dict(step.params), inv[0], inv[1]))
print("final:", (trace.final.r, trace.final.c.coords, trace.final.t))

# --- Enriques reduction -----------------------------------------------------------
# Odd-rank primitive vectors reduce to rank 1; the emitted n ties the
# moduli space to the n-point Hilbert scheme.
enr = M.enriques_model()
v = enr.vector(5, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], F(-3, 2))
red = M.enriques_reduce(v, enr)
print("\nEnriques reduction: <v^2> =", M.mukai_square(v), "-> n =", red.n)
print("moves:", [s.move for s in red.trace.steps])
print("Euler number of the target Hilbert scheme:", red.hodge.eval_ones())

# --- Euclid on an elliptic surface ---------------------------------------------
print("\nrelative moduli reduction (5, 2):")
tr = M.elliptic_gcd_reduce(5, 2)
print("  states:", [(s.before, s.after) for s in tr.steps])
print("  rank sequence:", M.trace_rank_sequence(tr, 5))

# --- Dimension bookkeeping -------------------------------------------------------
k3 = M.k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"), polarization=(1, 3))
vs = [k3.vector(0, (r, 0), 1) for r in (1, 2)]
out = M.filtration_stack_dim(vs, [-1, -4], k3)
print("\nfiltration stack dims: sum form", out.sum_form,
      "deficit form", out.deficit_form)

v2 = ab.vector(2, (0, 0), -2)
sq, strict = M.pss_bound(v2, ab)
print("properly-semistable bound: <v^2> =", sq, "strict:", strict)

# --- Parabolic Euler characteristic / GIT weight ---------------------------------
print("\nparabolic chi, single weight 1 - 1/n:",
      M.parabolic_euler(3, [2], [F(3, 4)], 5))
# one subspace V' of the global block; semistable means weight >= 0 for every V'
data = M.GitData(h_m=10, h_i_m=(2,), eps_i=(F(1, 4),), a1=2, n=5)
dims = M.GitDims(10, 4, 20, 11, (2,), (1,))
print("GIT weight:", M.git_weight(dims, data))
