"""Byte-for-byte pins of `analyze --json` and `derivations --json`.

The digests were recorded before the linear-algebra kernel was merged into
one elimination routine; any change to canonical bases, the order of the
derivation basis, chief factors, maximal subalgebras or normalisers shows
up here as a different digest.
"""

import hashlib
import json

import pytest

from lieform.cli import main

# [e1,e2] = e3, [e1,e3] = -e2, [e1,e4] = e4: a 2-dimensional irreducible
# chief factor over GF(3) (x^2 + 1 has no root mod 3), 13 maximal
# subalgebras and 27 nilpotent normalisers
GF3_ROTATION = {
    "field": "GF(3)",
    "dim": 4,
    "brackets": [
        {"i": 1, "j": 2, "value": ["0", "0", "1", "0"]},
        {"i": 1, "j": 3, "value": ["0", "2", "0", "0"]},
        {"i": 1, "j": 4, "value": ["0", "0", "0", "1"]},
    ],
}

# triangular ad(e1) with fractional eigenvalues: the Fraction path through
# the chief series, nilradical and a derivation basis with entries like 35/18
Q_TRIANGULAR = {
    "field": "Q",
    "dim": 4,
    "brackets": [
        {"i": 1, "j": 2, "value": ["0", "1/2", "0", "0"]},
        {"i": 1, "j": 3, "value": ["0", "1", "2", "0"]},
        {"i": 1, "j": 4, "value": ["0", "0", "1", "-1/3"]},
    ],
}

PINS = [
    (GF3_ROTATION, "analyze", "bd8cea4bbce02da53ab8ea8f787d954426d43e7bb2a16f2d24a760dfd0fb3d53"),
    (GF3_ROTATION, "derivations", "8afed13f68c3ee9fd98c9180cbdd0b1d0bde4898ed9c5885a172321268bd97ed"),
    (Q_TRIANGULAR, "analyze", "e3feb7c8bf17ae2eb7c541da1d6a34e4a64a7ab91f939694df76ac8d1bd2803f"),
    (Q_TRIANGULAR, "derivations", "87bcb4085cba626289718022a308accb1da91f81b4946a9bc7faaa339755d90d"),
]


@pytest.mark.parametrize(
    "data, command, expected",
    PINS,
    ids=["gf3-analyze", "gf3-derivations", "q-analyze", "q-derivations"],
)
def test_json_output_bytes_pinned(tmp_path, capsys, data, command, expected):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
