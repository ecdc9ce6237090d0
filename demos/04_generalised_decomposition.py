"""Generalised decomposition numbers d^u_{chi,phi}.

For each p-element u, chi(us) = sum_phi d^u_{chi,phi} phi(s) over the
p-regular s in the centralizer of u.  The numbers come from Brauer
reciprocity, on integers, and are checked to reproduce every chi(us); the
u = 1 slice is the ordinary decomposition matrix.
"""

from charcond import load_corpus
from charcond.cyclo import cyclo_to_str

corpus = load_corpus()

for name, p in (("S3", 3), ("A5", 5), ("C4", 2)):
    ds = corpus[name]
    gm = ds.gendec(p)
    print(f"\n{name} at p={p}: columns (u class, phi)")
    header = [f"({ds.table.classes[u].name},{phi})" for u, phi in gm.columns]
    print("        " + "  ".join(f"{h:>10}" for h in header))
    for chi in range(ds.table.num_classes):
        row = [cyclo_to_str(gm.entries[col][chi]) for col in gm.columns]
        print(f"  chi{chi}  " + "  ".join(f"{v:>10}" for v in row))
