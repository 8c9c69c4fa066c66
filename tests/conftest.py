"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

from thompsonf import plmap, schreier, stabgen

# Every suite the package proves once per process and keeps, and the piece
# maps that word_to_plmap keeps.
PROOF_CACHES = (
    plmap._piece,
    plmap._relator_checks,
    schreier._address_checks,
    stabgen._reduction_checks,
    stabgen._twin_checks,
    stabgen._index_identities,
    stabgen._stabilizer_relators,
)


@pytest.fixture(autouse=True)
def fresh_proofs():
    """Start each test with no proof or piece map kept, so a test that patches the program sees it proved again.

    A cached pass from an earlier test would hide a failure that the patch
    brings about.  The caches are emptied again afterwards, so that nothing
    proved under a patch reaches a later test.
    """
    for proofs in PROOF_CACHES:
        proofs.cache_clear()
    yield
    for proofs in PROOF_CACHES:
        proofs.cache_clear()
