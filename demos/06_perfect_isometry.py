"""Complete perfect-isometry search between two blocks.

The principal 5-blocks of A5 and of its local subgroup D10 both contain
four irreducible characters, so there are 2^4 * 4! = 384 signed bijections.
The search prunes them by the p-regular Gram form and checks each pair
{m, -m} once, yet finds every perfect one; those preserve conductor p-parts
and map the vanishing lattice L0 into its counterpart.
"""

import json

from charcond import (block_ref, check_perfection, load_corpus,
                      search_perfect_isometries)
from charcond.isometry import check_conductor_preservation, check_l0_preservation

corpus = load_corpus()
src = block_ref(corpus["A5"], 5, "B0")
tgt = block_ref(corpus["D10"], 5, "B0")

found = search_perfect_isometries(src, tgt)
print(f"{len(found)} perfect isometries out of 384 candidates\n")

for cand in found:
    cond_ok, _ = check_conductor_preservation(cand)
    l0_ok = check_l0_preservation(cand)
    print(f"  pi = {cand.permutation}, signs = {cand.signs}, "
          f"conductors preserved: {cond_ok}, L0 preserved: {l0_ok}")

print("\ncertificate of the first one:")
print(json.dumps(found[0].to_json(), indent=2))
