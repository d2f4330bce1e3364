"""Watching the Macaulay solver work, degree by degree.

Run:  python demos/solving_walkthrough.py
"""

from solvdeg import buchberger_oracle, solve
from solvdeg.cli import render_poly
from solvdeg.presets import gap_quartic_system

F = gap_quartic_system()
print("System over GF(7), variables x > y:")
for f in F.polys:
    print("   ", render_poly(f, F.ring))
print()

print("The solver builds the degree-d Macaulay matrix, reduces it without")
print("swapping rows, and closes the row space under multiplication by")
print("variables: every row whose leading term fell, and every row that")
print("closure feeds, is multiplied by each variable and re-reduced until")
print("nothing new appears.  Only then does it test the candidate basis by")
print("S-polynomial division.")
print()

report = solve(F)
print("per-degree trace:")
for t in report.trace:
    print(f"  degree {t.degree}: matrix {t.rows} x {t.cols}, "
          f"rank {t.rank}, degree falls {t.degree_falls}")
print()
print(f"solving degree measured: {report.solving_degree}")
print(f"largest basis degree:    {report.max_gb_degree}")
print("reduced basis:")
for g in report.basis:
    print("   ", render_poly(g, F.ring))
print()

print("At degree 4 the matrix reveals nothing new: the candidate fails the")
print("S-polynomial certificate.  At degree 5 one degree fall (y - 1)")
print("cascades and the certified basis appears, so the solving degree is")
print("5 even though the degree of regularity is only 4.")
print()

oracle = buchberger_oracle(F)
print("Buchberger oracle agrees:",
      [render_poly(g, F.ring) for g in oracle])
