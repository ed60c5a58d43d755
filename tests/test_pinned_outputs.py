"""Byte-for-byte pins of what the builder emits.

Each test hashes the ``format_derivation`` text of a fixed set of
derivations with SHA-256.  A change to the builder, the stock theorems,
the generator or lifting that is meant to keep their output must keep
these digests; one that changes the output on purpose changes a digest
and says why.  The stock theorems' arguments are drawn by
``conftest.stock_derivations``, as the suites draw them, so the pins do
not depend on the suites' helpers.
"""

import hashlib
import random

from conftest import stock_derivations
from fjl.generate import random_derivation
from fjl.lifting import lift
from fjl.logics import LogicConfig
from fjl.proofs import TotalCS, format_derivation
from fjl.syntax import print_term

RPLJ = LogicConfig.from_name("RPLJ")


def test_stock_theorems_on_the_suites_draws_for_seeds_0_to_49():
    digest = hashlib.sha256()
    for seed in range(50):
        for _, d in stock_derivations(seed):
            digest.update(format_derivation(d).encode())
    assert digest.hexdigest() == "6222ed189fdd096de8a5b479d66fe7222e9bc98a19239a62e7455069cef895b6"


def test_fuzzed_derivations_and_their_lifts_for_seeds_0_to_24():
    inputs, lifted = hashlib.sha256(), hashlib.sha256()
    for seed in range(25):
        cs = TotalCS()
        d = random_derivation(random.Random(seed), RPLJ, cs, moves=6)
        inputs.update(format_derivation(d).encode())
        term, out = lift(d, cs, RPLJ)
        lifted.update(print_term(term).encode() + b"\n" + format_derivation(out).encode())
    assert inputs.hexdigest() == "f3d3f2e531fb98f1c8fd99a800e60bed7ac1ee98e309f52047ccf75ceac8c7ca"
    assert lifted.hexdigest() == "03a95d0e98e668715f6dd3ede3014103b2dcd062870a293dce1fdcda4312fdf5"
