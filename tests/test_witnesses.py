"""Regression of the catalog's mismatch witnesses.

The golden CLI file pins only PASS/XFAIL labels, so here every sequence the
catalog's store holds reads 1 more than its term at index 7,
and each id's status and witness, ``repr``'d, are compared line by line with
``tests/golden/identity_witnesses.txt`` (one ``id<TAB>status<TAB>witness``
line per id, ``IDENTITY_IDS`` then ``TYPO_IDS``).  A change to the order in
which an id visits its cases, to the sides it compares or to the witness
text shows here.
"""

from pathlib import Path

import pytest

from recpoly import IDENTITY_IDS, TYPO_IDS, check_identity
from recpoly import families

GOLDEN = Path(__file__).parent / "golden" / "identity_witnesses.txt"


def perturbed_witness_lines() -> list[str]:
    lines = []
    for identity_id in (*IDENTITY_IDS, *TYPO_IDS):
        report = check_identity(identity_id, n_max=12, p_max=5, m_max=4)
        lines.append(f"{identity_id}\t{report.status}\t{report.witness!r}\n")
    return lines


@pytest.fixture
def perturbed_sequences(monkeypatch):
    original = families._Seq.__getitem__

    def perturbed(self, n):
        term = original(self, n)
        return term + 1 if n == 7 else term

    monkeypatch.setattr(families._Seq, "__getitem__", perturbed)


def test_witnesses_match_golden_file(perturbed_sequences):
    expected = GOLDEN.read_text().splitlines(keepends=True)
    actual = perturbed_witness_lines()
    assert [line.split("\t", 1)[0] for line in actual] == \
        [line.split("\t", 1)[0] for line in expected]
    for got, want in zip(actual, expected):
        assert got == want
