"""The proof paths leave no reference cycles behind.

With the cyclic collector off, objects freed only by a collection would
pile up until one runs.  So every object the proof paths drop must be
freed by reference counting: after a run with the collector off, a
collection finds nothing.
"""

import gc
import random

from conftest import stock_derivations
from fjl.generate import random_derivation
from fjl.lifting import lift
from fjl.logics import LogicConfig
from fjl.proofs import TotalCS, check_derivation, format_derivation, parse_derivation

RPLJ = LogicConfig.from_name("RPLJ")


def _proof_paths() -> None:
    for seed in range(10):
        cs = TotalCS()
        d = random_derivation(random.Random(seed), RPLJ, cs)
        _, lifted = lift(d, cs, RPLJ)
        for out in (d, lifted):
            assert check_derivation(out, RPLJ, cs).ok
            text = format_derivation(out)
            assert format_derivation(parse_derivation(text, RPLJ)) == text
    assert stock_derivations(0)


def test_the_proof_paths_make_no_garbage_cycles():
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        _proof_paths()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, [type(obj).__name__ for obj in garbage[:10]]
