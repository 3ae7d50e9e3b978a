"""Every group of a small order, found from scratch.

The enumerator performs orderly generation over Cayley tables: it never
consults a group catalog, yet recovers the full classification of groups
of order up to 12 (and 16, if you are patient).  Canonical forms make
isomorphism questions decidable by simple equality.
"""

from ordersum import (
    Dihedral,
    SemidirectCyclic,
    build_group,
    canonical_form,
    catalog,
    psi_spectrum,
)

print("Isomorphism classes by order, with psi for each class:")
for n in range(1, 13):
    classes = catalog(n)
    summary = ", ".join(f"{c.description} (psi={c.psi})" for c in classes)
    print(f"  order {n:>2}: {len(classes)} class(es): {summary}")

print()
print("The psi spectrum of order 12, descending (the cyclic group on top):")
for entry in psi_spectrum(12):
    print(f"  psi={entry.psi:<4} attained by {', '.join(entry.witnesses)}")

print()
print("Canonical forms decide isomorphism.  The symmetric group on three")
print("letters can be built as C_3 x| C_2 (inversion action) or as the")
print("dihedral group of order 6; both canonicalize to the same table:")
s3 = canonical_form(build_group(SemidirectCyclic(3, 2, 2)))
d6 = canonical_form(build_group(Dihedral(6)))
print(f"  equal canonical forms: {s3 == d6}")
for row in s3.table.tolist():
    print("   ", row)
