"""Pinned orderings: ``nested_dissection`` and ``rcm`` permutations by digest.

Every table in the evaluation starts from the ND permutation, so a change
to the ordering code that moves a single vertex moves every downstream
number.  ``ordering_digests.json`` holds the sha256 of each suite matrix's
permutation (int64, little-endian bytes) as produced by the loop
implementations the fast paths replaced.  The default run covers the
benchmark grid's pool (``rand-dense``, ``chain-pure``, ``ladder-s``), a 3-D
mesh and ``blocks-few``; ``rand-dense`` and ``blocks-few`` are disconnected
(2237 and 64 components).  ``REPRO_DIFF_FULL=1`` sweeps all 34 matrices.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.sparse import nested_dissection, rcm
from repro.suite import SUITE

PINNED = json.loads((Path(__file__).with_name("ordering_digests.json")).read_text())

_SUBSET = ["rand-dense", "chain-pure", "ladder-s", "mesh3d-m", "blocks-few"]

MATRICES = [s.name for s in SUITE] if os.environ.get("REPRO_DIFF_FULL") else _SUBSET

_BY_NAME = {s.name: s for s in SUITE}


def _digest(perm: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(perm, dtype="<i8").tobytes()).hexdigest()


def test_pins_cover_the_suite():
    assert sorted(PINNED) == sorted(_BY_NAME)


@pytest.mark.parametrize("name", MATRICES)
def test_orderings_match_pinned_digests(name):
    a = _BY_NAME[name].build()
    assert a.n_rows == PINNED[name]["n"]
    assert _digest(nested_dissection(a)) == PINNED[name]["nd"], name
    assert _digest(rcm(a)) == PINNED[name]["rcm"], name
