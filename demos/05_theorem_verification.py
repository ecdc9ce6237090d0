"""Mechanical verification of the conductor identities on the whole corpus.

The p-part of a virtual character's conductor equals the conductor p-part
of its row of generalised decomposition numbers; it is also attained as a
maximum over single entries, and is invariant under adding projective
characters of the same block.  The suites share the d^u matrix each dataset
holds per prime, so it is computed once per (group, p).
"""

from charcond import load_corpus
from charcond.verify import (cor05_suite, projective_invariance_suite,
                             theorem1_suite)

for ds in load_corpus().values():
    for p in sorted(ds.primes):
        suites = [theorem1_suite(ds, p, samples=10, seed=0),
                  cor05_suite(ds, p),
                  projective_invariance_suite(ds, p)]
        status = "ok" if all(s.passed for s in suites) else "FAILED"
        total = sum(len(s.records) for s in suites)
        print(f"{ds.name:8s} p={p}: {total:4d} checks {status}")
