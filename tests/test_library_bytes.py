"""Pins of the library's answers, as ``test_cli_bytes.py`` pins the CLI's.

For each language of a fixed corpus, a rendering built from sorted values
only is hashed with SHA-256: the swap violations, every prefix in sorted
order with its sorted quotient and its index row, the Myhill-Nerode
automaton as text, its class table as JSON with sorted keys, and the
report of ``verify_mn``.  One short digest is pinned per language, so a
failure names the language.  The corpus is the ``data/*.lang`` files, a
few shapes, and ``random_language`` at seeds 0-299.  The data files and
the shapes run again in a subprocess under another ``PYTHONHASHSEED``.

A change that alters a pinned answer on purpose updates its pin.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hdalib.formats import class_table, hda_to_text, parse_expr, parse_lang
from hdalib.ipomset import sorted_ipomsets
from hdalib.language import (
    is_swap_invariant,
    language,
    prefix_quotient,
    prefix_row,
    prefixes,
)
from hdalib.myhill_nerode import build_mn, verify_mn
from random_gen import random_language

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def named_language(name):
    """A data file by its file name, or the closure of a shape."""
    if name.endswith(".lang"):
        return parse_lang((DATA / name).read_text())
    return language([parse_expr(name)])


def render(lang) -> str:
    lines = [f"violation {p!r} {q!r}" for p, q in is_swap_invariant(lang).violations]
    for p in sorted_ipomsets(prefixes(lang)):
        tgt, removals = prefix_row(lang, p)
        lines.append(f"prefix {p!r} targets {list(tgt)} removals {list(removals)!r}")
        lines += [f"  {q!r}" for q in sorted_ipomsets(prefix_quotient(lang, p))]
    mn = build_mn(lang)
    lines.append(hda_to_text(mn.hda))
    lines.append(json.dumps(class_table(mn), sort_keys=True))
    lines.append(repr(verify_mn(lang, mn)))
    return "\n".join(lines)


def digest(lang) -> str:
    return hashlib.sha256(render(lang).encode()).hexdigest()[:16]


# the data files by file name, then the shapes by expression
NAMED = {
    "double_a.lang": "4f476f494e8e5597",
    "par_ab_aa.lang": "0d47d8887e5128f9",
    "par_ab_abc.lang": "ec4bbccfb04c5fa5",
    "[a|b|c|d]": "934f3f83ad314d15",
    "[ab|c|•d]": "a7288ced87bde1fd",
    "[•a|b•|c|d]": "fa45a44a3a4f2c43",
    "[aa|a•]": "2d148af966e76a59",
    "[a|a|b]": "c819d6d47292437c",
    "[abc|d|e]": "a801beddd67194cb",
}

# random_language(random.Random(seed)) for seed 0, 1, 2, ...
RANDOM = """
    8bdfafdd6d477885 f3564d9a9a9e2221 35bc1247adadb7d8 fd9cc312d954d2c1 2821f386eaa65f92
    3c2ff2738dee827f 4465b2f191793612 2a487bed492923f2 61126969d0c007ba e7b7210581edac31
    f685342a87601fc9 f58ac9dc68688248 2ee9db92c09de426 c0b02c36b7dc3fcb d3bfd6c8f694f5c1
    9317071999f161de 509b04286bbcb2a7 ea8446def0cf8b61 f55d706651e6dd54 2b74e8a792ff1ecd
    9ac2cbc722f44354 006b3f37279a30d5 a5139ca3c5d48997 e091253e5f6c67a4 d6fce0ae97a6a3f3
    c4552503e311c30f f8b8b2fa0087e160 f706825373019db2 bc0630822d99987c 9bdd4844d623a808
    5e2cec0d5a4aef3f 61126969d0c007ba c2cbf5b4877a15d4 2b3783b298591edf a0b03209e2c01503
    282551763f14062e f58cddd85c2cf1b9 99c191dc90d8649e 6b437436cd8fc265 9317071999f161de
    abae1d0d1fe6df1e 999b5f39a3d4852b 2d92aa1b2c20bf43 f629857f2d2e5542 c7aed15d2bcd6fc2
    1cda4e00ec3b2ef8 bc2f6c7f6c52dbc4 7f52fbeb04c86a7d 1d50937f7aa61b81 723c45b91849f8a0
    e41dfee98886df5c b9d74d86cda93177 d6396b16824fe6d0 6b425e5d5b0a8b11 916870e210d548f4
    058a0790b4df7703 d78c764e7df897e6 96de187833504a73 f8050c210da22414 0ebac054700ea539
    986864cebdc77586 290d75859df9f003 39018197d7313840 07c22140a09a6b48 f57d81167dbf46c1
    3b8911d17b445636 73e4e664f92ea62c 00232ac0bac0646b d622ecad99b3d864 b7c831ff77c0ae02
    641d046933a08edc f36ea6abb8dee3be 78f04ecb6531a5f7 eb380a717f6243ab 751d0533caac998e
    12a3c04ad0ceac22 b51b201d563efcd4 940794d3acb16192 5a3811b2a41e8e7c bc2f6c7f6c52dbc4
    006b3f37279a30d5 927b5e2030a1c64f 23ec1bc8738930d6 3c85ef177e9c4465 9447790d5ed7db24
    390ea9b18ca201a6 317d1d8758f78985 80088e49f7dfd1c6 deb83bd03e0aa497 e3d5d0672f487de4
    c5dddb11766811f1 622e332ee6f9ac94 535c4589108269eb 78ff7455b378196c 1e2d45ed6fbbba75
    ea80f918412f8df9 9e78957b3f58a1b2 058a0790b4df7703 cd97498cad496869 5a3434c1234769cc
    73e4e664f92ea62c aa4aead4096b711c 7952af58506b97c1 2a0a65aabe0f6b8f 45fef9a802769dab
    1c3893c35c2843bb 7678249198ab9b77 13950214ce0db7be 723c45b91849f8a0 e2cbdaada1ac11df
    6b1386591cb79445 c03c813a5f3dcdd0 06bd0dfd36d348d8 5ce0fefbe7deaa4a 95d7f33d0bc395e1
    6a7288d04dff3f4f 58f783c4bdcede28 cb88f2cc9d841bc8 6c6ef1c090f31777 98c6a85e663a7cea
    c3f660f8607b97ba 0b8c19f267b25be4 f84011bdcac42308 7492826390ac5a63 f27b900491145994
    a3db18f2adce2def 9455f818412ec824 347fc05c14e22ef9 6b1386591cb79445 1eadf1e45e436ce1
    5de1ca9c1ed3661f 773109cf3d28b681 e6eec11de87b2d7b 2b592e7d81e5745f a434fd8b9c527226
    6c733b17fd7b7d38 529a665afbcbdd10 128f7a6d9e3321c7 6b1386591cb79445 f5f988b86ede3deb
    c74fbe0e68c90a63 55c116b63a9a2f63 c3243c87d5b8028c 299c40ac45d8237c 51bfee08af61c9e3
    299c40ac45d8237c 7678249198ab9b77 62936b1c38df146e ca9703b7bc7e2726 faf5e21f5c82aa0b
    6e1ed9dade6b54d6 9ab81db176b075b6 2c72b741d123630d e47c10c6a7bbeb3f c03c813a5f3dcdd0
    047ac40fdd884483 b6d76d8ac4257753 44bdb151797725ca 9dcf7982f1a1d21c 0175bb538851ead4
    61126969d0c007ba 4bcc37cc85d253f6 cb26c083c874ab7d 15de96d546d14481 2018ea2f18157409
    e23d7e229f6e118b c03c813a5f3dcdd0 43a6f706166765f9 0a733e54ad25e1e1 0bacb0bb67f08f7f
    e1925bb3a4fb1013 dd4e8b18e0700557 3c3404eade88f24b 6ea5f6e186411ca3 1f52cd3a931f94c8
    9a6f1cce880b4c9f df8ee636baa8a429 73e4e664f92ea62c b152015778cd5d34 c74fbe0e68c90a63
    ff6023e47d3ab396 3f01b52acac2f034 91b9681512338a58 ff6023e47d3ab396 0804e8a54ba76569
    599dafefe3d9df42 51be1d4bb1a255d9 d7d4e8fd479cb47d 5e94b4df3a34afa4 b4aed2433d4b8b96
    eb2b49c40ee52878 d8fec26e83ceae23 c0fa6aef4f380407 150d2c134a668f37 fdf7fb50e7cd9689
    63c865d71633a447 10622a54e7be5704 a940b81517e4900a 8985109afc970fff e1919c36dd9415d7
    23f8915e00a3ce93 1582b995270165e7 10e9c5e74a248f0a 541cbfcdb7119b33 e98d978a3f69e0d1
    005c986723b68752 9790a2b15e568d1d 294aa6a0c8bc4e33 c0aa8146f4a4738a 8a8a506ecb1160e0
    c61a18e727392a11 e15632d6c84dc797 89f241ce19db658b 058a0790b4df7703 6723d966621fd647
    edd52f7430135cbb e91f2c8ad1e96d20 e5fa9a65a6799e51 6fa76937e2205a6a d31d876a0019d0d2
    3046730590407b81 006b3f37279a30d5 64b6a554fc10a473 3f1a0b744d304deb dffbab60744b68bd
    334753d3d43bdef4 0c3f1986159dd4b0 fb492e8a3c36c722 0c1b67ccf8ee1d70 169e7dc0ed982992
    779ff4cae7a6195a 5d296d8576a5f062 fbc40a82f1dc7f12 80ba4655ac40e48b 5c28a15804733d85
    52a550e5613e80fa 745d5879a6fd25ed a26a40a5203b4f5a e7ca621edba5bd56 20fbabdf7aec3810
    9317071999f161de ed2650a21d38f888 70270417e8233a1f 1dd5530328628a02 61fdd3013bc6c367
    f3564d9a9a9e2221 058a0790b4df7703 592c558e784dd58f 8a68a0bccff0d74d dde849367e173265
    fe89810f2bc665ff 50c2bf4fd58d58a2 68b6f926b6dba0e2 56b8d7fb4edccebb 92a3257c4450779b
    723c45b91849f8a0 43c89d183212ecd0 6b162f3b7ccbb45d d74c68b54cd751df 7c0210cedfeafc5d
    ecf42b3e4305478c 7b67f66cf098a856 c84e81c1cbe833b8 e84f2a5dd839be00 f77529baf2bde1a3
    02a483007b8388fa 1f52cd3a931f94c8 64b6a554fc10a473 2500517408782fdd ff6023e47d3ab396
    723c45b91849f8a0 a27f19f0dc0a3860 6640ff812a92767e de3b9c91425ecaee fd4b79b72bdbdb24
    24bcbd987c06dbad 5227c29fd8af7849 299c40ac45d8237c 42490b7a6eba1f9c e285dc526e6ce01f
    04ee2d4ba1b6c2b4 1f52cd3a931f94c8 fbe2f5e3b9d621fd 73e4e664f92ea62c b33cb9803d733548
    91e84882c6ab6cc4 b8324f733e7bd961 5121fcbdad432ee0 0bac178720aca9c7 de83c8841e778f5a
    93f631669087c0d6 d64d98317d30e23f 5a1f6c8d83cc25b4 5ea926196827b512 df8ee636baa8a429
    ff6023e47d3ab396 bcd086d7918b25e1 d48c45b83d622afd 9cb545cfdf1364c8 575b6c6edc3fbb1b
""".split()


@pytest.mark.parametrize("name", list(NAMED))
def test_named_language(name):
    assert digest(named_language(name)) == NAMED[name]


def test_random_languages():
    assert len(RANDOM) == 300
    got = [digest(random_language(random.Random(seed))) for seed in range(300)]
    assert [seed for seed in range(300) if got[seed] != RANDOM[seed]] == []


def test_named_languages_under_another_hash_seed():
    code = (
        "import json, test_library_bytes as t; "
        "print(json.dumps({k: t.digest(t.named_language(k)) for k in t.NAMED}))"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "3"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == NAMED
