"""Conductors of irreducible characters across the corpus.

c(chi) is the smallest n with all values of chi in Q(zeta_n); c(chi)_p is
its p-part, the quantity the verification suites track.
"""

from charcond import char_conductor, load_corpus

corpus = load_corpus()

for name in ("C4", "S3", "A5", "SL(2,3)"):
    ds = corpus[name]
    table = ds.table
    print(f"\n{name} (order {table.group_order}):")
    for chi in range(table.num_classes):
        values = table.irreducibles[chi]
        deg = values[table.identity_class]
        parts = {p: char_conductor(values, p) for p in sorted(ds.primes)}
        print(f"  chi{chi} (degree {deg}): c = {char_conductor(values)}, "
              f"p-parts {parts}")
