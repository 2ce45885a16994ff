"""Both benchmark chains' outputs at the smoke size against the hashes in
``smoke_hashes.json``, so that a change to any written byte fails here
unless the file is rewritten with it, by
``python tests/chain_hashes.py --smoke tests/smoke_hashes.json``."""

import json
from pathlib import Path

import chain_hashes

GOLDEN = Path(__file__).with_name("smoke_hashes.json")


def test_smoke_outputs_match_the_committed_hashes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # float repr and numpy's and scipy's arithmetic decide the bytes
    assert golden["versions"] == chain_hashes.versions(), (
        f"{GOLDEN.name} was written with {golden['versions']}, and this run "
        f"has {chain_hashes.versions()}")
    assert len(golden["hashes"]) == 18
    assert chain_hashes.smoke_hashes() == golden["hashes"]
