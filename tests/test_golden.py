"""Golden digests: small runs reproduce the recorded outputs bit for bit.

The fixture and the script that rewrites it live in tests/golden/.
"""

import json

import pytest

from golden.regen import FIXTURE, cases, summarize
from relaysim.engine import run

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))
CASES = cases()


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digest(name):
    assert summarize(run(CASES[name])) == GOLDEN[name]
