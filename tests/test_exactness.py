"""Exactness gate: a faster path must return bit-identical results.

One sha256 pins two outputs at default parameters: the monic orthogonal
polynomials P_0..P_16 and the recursion pairs (B_n, C_n), n = 0..15, of both
certificate weights of every catalog entry, and every ``verify_entry`` check
(name, ok, detail) at n_max = 8. The digest was recorded by running this file
on commit 3e7294a, before polynomial products moved to the integer kernel.
"""

import hashlib

from mvop.catalog import ENTRY_NAMES, entry, verify_entry
from mvop.weights import sequence_for

DIGEST = "22f7c226ee2f2940fceba777755f847ed45def935b4c7d4cbff4faff952b25de"


def _outputs():
    for name in ENTRY_NAMES:
        e = entry(name)
        for w in (e.weight_W, e.weight_Wt):
            if w is not None:
                seq = sequence_for(w)
                yield from (repr(seq.poly(n)) for n in range(17))
                yield from (repr(m) for n in range(16) for m in seq.recursion_pair(n))
        for c in verify_entry(name, None, 8).checks:
            yield repr((name, c.name, c.ok, c.detail))


def test_outputs_bit_identical_to_recorded_digest():
    assert hashlib.sha256("\n".join(_outputs()).encode()).hexdigest() == DIGEST
