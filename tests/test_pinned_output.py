"""Byte-for-byte pins of command-line output, JSON and text.

The `analyze`/`derivations` digests were recorded before the linear-algebra
kernel was merged into one elimination routine; the `check-intravariance`
and `normalisers` digests before the extension criterion stopped building
the extension algebra; the `sweep` and `verify-chain` digests before
restrict and quotient returned one kind of subquotient map; the
`q-check-fractions` digest before integral rationals over Q became plain
ints.  Any change to canonical bases, the order of the derivation basis,
chief factors, maximal subalgebras, normalisers, the first failing
derivation or the subspace text format shows up here as a different digest
or exit code.
"""

import hashlib
import json

import pytest

from lieform.cli import main
from support import rotation_plus_centre

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

ABELIAN_GF3_2 = {"field": "GF(3)", "dim": 2, "brackets": []}

# a sweep-style failure record: span{e2 + e4} is not intravariant in
# GF3_ROTATION, and the derivation below breaks the extension criterion
ROTATION_RECORD = {
    "algebra": GF3_ROTATION,
    "subalgebra": [["0", "1", "0", "1"]],
    "derivation": [
        ["0", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "0"],
    ],
}

# a critical chain L > span{e1 + 2e2 + 2e3, e4} > span{e1 + 2e2 + 2e3 + 2e4}
ROTATION_CHAIN = [
    [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    [["1", "2", "2", "0"], ["0", "0", "0", "1"]],
    [["1", "2", "2", "2"]],
]

# (id, input documents, arguments before their files, exit code, sha256 of stdout)
PINS = [
    ("gf3-analyze", (GF3_ROTATION,), ["analyze", "--json"], 0,
     "bd8cea4bbce02da53ab8ea8f787d954426d43e7bb2a16f2d24a760dfd0fb3d53"),
    ("gf3-derivations", (GF3_ROTATION,), ["derivations", "--json"], 0,
     "8afed13f68c3ee9fd98c9180cbdd0b1d0bde4898ed9c5885a172321268bd97ed"),
    ("q-analyze", (Q_TRIANGULAR,), ["analyze", "--json"], 0,
     "e3feb7c8bf17ae2eb7c541da1d6a34e4a64a7ab91f939694df76ac8d1bd2803f"),
    ("q-derivations", (Q_TRIANGULAR,), ["derivations", "--json"], 0,
     "87bcb4085cba626289718022a308accb1da91f81b4946a9bc7faaa339755d90d"),
    # both criteria fail; the first failing basis derivation is printed
    ("abelian-check-fails", (ABELIAN_GF3_2,),
     ["check-intravariance", "--json", "--subalgebra", "1,0"], 3,
     "05088c79f6461bd674af0a8e096aaeecfb8515972e6e6402423eb76dcf22e6af"),
    ("gf3-check-passes", (GF3_ROTATION,),
     ["check-intravariance", "--json", "--subalgebra", "1,0,0,0;0,0,0,1"], 0,
     "889c7042a5b50c455e3812a044dda9e1341ad7defa29551dee0b751cdb49c3e4"),
    ("gf3-check-replay", (ROTATION_RECORD,), ["check-intravariance", "--json"], 3,
     "f9cac878289b404429d6bba3094bd82e6d2a6cbfafb33981c6a175084914d4ae"),
    ("gf3-normalisers-text", (GF3_ROTATION,), ["normalisers", "--formation", "nilpotent"], 0,
     "97c045f2abe0278ab7494b4efe0abcaf146eb5d8baad148b5767b3838e4f913b"),
    ("gf3-check-text", (GF3_ROTATION,), ["check-intravariance", "--subalgebra", "0,1,0,1"], 3,
     "4ac3d71b18c51be96ec9c62262f393c9511028f529927c3415995601df978bf0"),
    # a whole sweep: restrictions, quotients and lifted normaliser chains
    ("gf3-sweep", (), ["sweep", "--field", "GF(3)", "--max-dim", "3", "--json"], 0,
     "df933c0b784fa319c4955e8a588a4b6d9ff52c3be4d79c901cc45476e8d58a3c"),
    # over Q: a line with fractional entries, canonical basis 1, 1/4, -3/10, 3/2,
    # and the first failing derivation printed
    ("q-check-fractions", (rotation_plus_centre().to_dict(),),
     ["check-intravariance", "--json", "--subalgebra", "2,1/2,-3/5,3"], 3,
     "faef41a6775736017e23f6fff871c30b2011c03b3612027381c7f518faf0987a"),
    # chain steps carried into each restricted algebra's coordinates
    ("gf3-verify-chain", (GF3_ROTATION, ROTATION_CHAIN),
     ["verify-chain", "--json", "--formation", "nilpotent"], 0,
     "07f45d856a8ea14028c5e09442b0ec3aef2ed046f5eec1c7712b0f55ea80301a"),
]


@pytest.mark.parametrize(
    "inputs, args, code, expected", [pin[1:] for pin in PINS], ids=[pin[0] for pin in PINS]
)
def test_json_output_bytes_pinned(tmp_path, capsys, inputs, args, code, expected):
    paths = []
    for index, data in enumerate(inputs):
        path = tmp_path / ("input%d.json" % index)
        path.write_text(json.dumps(data), encoding="utf-8")
        paths.append(str(path))
    assert main(args + paths) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
