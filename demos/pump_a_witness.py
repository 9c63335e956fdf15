"""Pump the interlaced double-zero of the six-vertex algebra.

The witness factors a double-zero through a band; powering the band
yields a strictly growing family of string modules, every one of which
has projective and injective dimension at least two.  That growth is
exactly what rules out laura-ness.

Run from the repository root:  python3 demos/pump_a_witness.py
"""

from stringalg import find_doze, fixtures, rep
from stringalg.stringhom import conjecture_scan, dozed_string
from stringalg.walks import serialize_walk

p = fixtures.skew6()
w = find_doze(p)
print(w.serialize())
print()

for n in range(4):
    M = rep.dozed_module(p, w, n)
    dims = " ".join(f"{v}:{d}" for v, d in sorted(M.dims.items()) if d)
    print(
        f"power {n}: walk {serialize_walk(dozed_string(w, n))}"
    )
    print(
        f"   dim {M.total_dim:2d}   ({dims})   "
        f"pd>=2: {rep.pd_at_least_2(p, M)}   id>=2: {rep.id_at_least_2(p, M)}"
    )

print()
scan = conjecture_scan(p, 10)
print(
    f"scan up to length 10 finds {scan.count_both_ge2} string modules with "
    "both homological dimensions >= 2; the family above is cofinal in it."
)
