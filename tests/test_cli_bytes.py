"""Byte pins of the CLI: the exit code, stdout and stderr of every verb in
text and ``--json`` mode, with the usage and parse errors, and the files
``mn build`` writes.

One-line outputs are pinned as literal strings and long ones by SHA-256.
Every command runs from the repository root on relative ``data/`` paths,
so error messages that name a file read the same in every checkout.
"""

import hashlib
from pathlib import Path

import pytest

from hdalib.cli import main

ROOT = Path(__file__).resolve().parent.parent

# a face whose loset is wrong: validate lists it and exits 1
BAD_FACE_HDA = """hda bad {
  cell v: [] ; cell w: [] ;
  cell e: [a] d0(1)=v d1(1)=w ;
  cell f: [b] d0(1)=e d1(1)=w ;
  start: v ; accept: w ;
}
"""
# two start vertices, and two essential a-edges out of one vertex
NONDET_HDA = """hda nondet {
  cell u: [] ; cell v: [] ; cell w: [] ; cell x: [] ;
  cell e: [a] d0(1)=u d1(1)=w ;
  cell f: [a] d0(1)=u d1(1)=v ;
  start: u x ; accept: v w x ;
}
"""
TMP_FILES = {"bad.hda": BAD_FACE_HDA, "nondet.hda": NONDET_HDA}
ABC = "data/par_ab_abc.lang"

# name -> (argv, environment); "{tmp}" stands for a fresh temporary directory
CASES = {
    "canon_file": (["ipo", "canon", "data/n_shape.ipo"], {}),
    "canon_expr_name": (["ipo", "canon", "[a|b•]", "--name", "Q"], {}),
    "canon_axiom": (["ipo", "canon", "ipomset x { events: p:a, q:b }"], {}),
    "canon_dir": (["ipo", "canon", "data"], {}),
    "glue": (["ipo", "glue", "a•", "•ab"], {}),
    "glue_mismatch": (["ipo", "glue", "a•", "•c"], {}),
    "subsume_yes": (["ipo", "subsume", "ab•", "[a|b•]"], {}),
    "subsume_no": (["ipo", "subsume", "[a|b]", "ab"], {}),
    "subsume_eps": (["ipo", "subsume", "", ""], {}),
    "decompose_file": (["ipo", "decompose", "data/n_shape.ipo"], {}),
    "decompose_eps": (["ipo", "decompose", ""], {}),
    "refine": (["ipo", "refine", "[a|b|c]"], {}),
    "divide": (["ipo", "divide", "abc"], {}),
    "divide_parse_error": (["ipo", "divide", "a("], {}),
    "validate_chain": (["hda", "validate", "data/chain3squares.hda"], {}),
    "validate_bad": (["hda", "validate", "{tmp}/bad.hda"], {}),
    "lang_loop": (["hda", "lang", "data/loop_ab.hda", "--max-steps", "10"], {}),
    "lang_default": (["hda", "lang", "data/square2d.hda"], {}),
    "lang_env": (["hda", "lang", "data/loop_ab.hda"], {"HDALIB_MAX_STEPS": "4"}),
    "lang_env_bad": (["hda", "lang", "data/loop_ab.hda"], {"HDALIB_MAX_STEPS": "x"}),
    "lang_zero": (["hda", "lang", "data/loop_ab.hda", "--max-steps", "0"], {}),
    "lang_missing": (["hda", "lang", "data/missing.hda"], {}),
    "member_yes": (["hda", "member", "data/square2d.hda", "[a|b•]"], {}),
    "member_expr_no": (["hda", "member", "data/square2d.hda", "--expr", "aa"], {}),
    "member_loop": (["hda", "member", "data/loop_ab.hda", "--expr", "•aba•"], {}),
    "member_neither": (["hda", "member", "data/square2d.hda"], {}),
    "member_both": (["hda", "member", "data/square2d.hda", "ab", "--expr", "ab"], {}),
    "ess": (["hda", "ess", "data/chain3squares.hda"], {}),
    "det_square": (["hda", "det", "data/square2d.hda"], {}),
    "det_loop": (["hda", "det", "data/loop_ab.hda"], {}),
    "det_nondet": (["hda", "det", "{tmp}/nondet.hda"], {}),
    "quotient_prefix": (["lang", "quotient", ABC, "--prefix", "a"], {}),
    "quotient_suffix": (["lang", "quotient", ABC, "--suffix", "c"], {}),
    "quotient_neither": (["lang", "quotient", ABC], {}),
    "quotient_both": (
        ["lang", "quotient", ABC, "--prefix", "a", "--suffix", "c"],
        {},
    ),
    "swapinv_abc": (["lang", "swapinv", ABC], {}),
    "swapinv_aa": (["lang", "swapinv", "data/par_ab_aa.lang"], {}),
    "swapinv_double_a": (["lang", "swapinv", "data/double_a.lang"], {}),
    "suff_aa": (["lang", "suff", "data/par_ab_aa.lang"], {}),
    "suff_abc": (["lang", "suff", ABC], {}),
    "build_files": (
        [
            "mn", "build", ABC, "-o", "{tmp}/mn.hda",
            "--classes", "{tmp}/mn.json", "--dot", "{tmp}/mn.dot",
        ],
        {},
    ),
    "build_double_a": (["mn", "build", "data/double_a.lang"], {}),
    "verify_double_a": (["mn", "verify", "data/double_a.lang"], {}),
    "verify_aa": (["mn", "verify", "data/par_ab_aa.lang"], {}),
    "ingest_begin": (["ingest", "data/n_shape_intervals.csv"], {}),
    "ingest_input": (["ingest", "data/n_shape_intervals.csv", "--order", "input"], {}),
    "bad_group": (["bogus"], {}),
    "no_command": (["ipo"], {}),
    "bad_int": (["hda", "lang", "data/loop_ab.hda", "--max-steps", "x"], {}),
    "bad_choice": (["ingest", "data/n_shape_intervals.csv", "--order", "end"], {}),
}

# (name, mode) -> (exit code, stdout pin, stderr pin, {written file: pin})
EXPECTED = {
    ("bad_choice", "text"): (
        2,
        "",
        "sha256:dc6cb07a3df2bf74b05177a5fd5ed2a907c2170494ddffe48ef494f78ddccfc4",
        {},
    ),
    ("bad_choice", "json"): (
        2,
        "",
        "sha256:dc6cb07a3df2bf74b05177a5fd5ed2a907c2170494ddffe48ef494f78ddccfc4",
        {},
    ),
    ("bad_group", "text"): (
        2,
        "",
        "sha256:4851a004f33ed6800f1b8265e6738ce72960e314f0525971165b318383596ff4",
        {},
    ),
    ("bad_group", "json"): (
        2,
        "",
        "sha256:4851a004f33ed6800f1b8265e6738ce72960e314f0525971165b318383596ff4",
        {},
    ),
    ("bad_int", "text"): (
        2,
        "",
        "sha256:d1e4e489f2daea2140434bfc4d03d72a32a4eab5eaaf4b739b35f940bc2800bc",
        {},
    ),
    ("bad_int", "json"): (
        2,
        "",
        "sha256:d1e4e489f2daea2140434bfc4d03d72a32a4eab5eaaf4b739b35f940bc2800bc",
        {},
    ),
    ("build_double_a", "text"): (
        0,
        "8 cells, 3 essential (dim 1: 1, dim 2: 2), 2 subsidiary\n",
        "",
        {},
    ),
    ("build_double_a", "json"): (
        0,
        "sha256:f28573aa9bd22f2e86f0efc7adce8d224e4cd4061f75811856bdb202bd842cc3",
        "",
        {},
    ),
    ("build_files", "text"): (
        0,
        "12 cells, 12 essential (dim 0: 5, dim 1: 6, dim 2: 1), 0 subsidiary\n",
        "",
        {
            "mn.dot": (
                "sha256:3b4c14d226c0e25ec4c9fe08f039d1c4da5eacf8e82f0eba2319da597cf67914"
            ),
            "mn.hda": (
                "sha256:c17c474a1888042c7179a8bae12854c2c7aeca39f02b591c01dcf78cf523dfcc"
            ),
            "mn.json": (
                "sha256:469c027903500c422a195f27f86ea70f0470c898d8d2e2ae65ad5b2deb7f8e9b"
            ),
        },
    ),
    ("build_files", "json"): (
        0,
        "sha256:d043a593b8ef8c41e7f73f893eb219173b2c73115d6717ff16073784fbff2482",
        "",
        {
            "mn.dot": (
                "sha256:3b4c14d226c0e25ec4c9fe08f039d1c4da5eacf8e82f0eba2319da597cf67914"
            ),
            "mn.hda": (
                "sha256:c17c474a1888042c7179a8bae12854c2c7aeca39f02b591c01dcf78cf523dfcc"
            ),
            "mn.json": (
                "sha256:469c027903500c422a195f27f86ea70f0470c898d8d2e2ae65ad5b2deb7f8e9b"
            ),
        },
    ),
    ("canon_axiom", "text"): (
        2,
        "",
        "sha256:9f21ea124906cc43172e539e27030ff78fcffd620fcfeb5c098cc17cad94263c",
        {},
    ),
    ("canon_axiom", "json"): (
        2,
        "",
        "sha256:9f21ea124906cc43172e539e27030ff78fcffd620fcfeb5c098cc17cad94263c",
        {},
    ),
    ("canon_dir", "text"): (
        2,
        "",
        "error: ParseError: data is not a regular file\n",
        {},
    ),
    ("canon_dir", "json"): (
        2,
        "",
        "error: ParseError: data is not a regular file\n",
        {},
    ),
    ("canon_expr_name", "text"): (
        0,
        "sha256:c216826ee7972bf68bcb7546861c1a1b522e9641a51cdfa3d935c42aacedde35",
        "",
        {},
    ),
    ("canon_expr_name", "json"): (
        0,
        "sha256:589399285c0dfe9d8de17b9788b500ab5c8a2d708edcb7ab2e1c3a5a122e4eb2",
        "",
        {},
    ),
    ("canon_file", "text"): (
        0,
        "sha256:42179def472c4523c4eb8d9b5a294d8ecf2b1c0e68e7b985ed9e385b9b35d645",
        "",
        {},
    ),
    ("canon_file", "json"): (
        0,
        "sha256:d6a81bdb401556cc9bb74be38e443c2abae70dbfc26274c492e3166d523d06bd",
        "",
        {},
    ),
    ("decompose_eps", "text"): (
        0,
        "initial: (empty)\n",
        "",
        {},
    ),
    ("decompose_eps", "json"): (
        0,
        "{\"initial\": [], \"steps\": []}\n",
        "",
        {},
    ),
    ("decompose_file", "text"): (
        0,
        "sha256:f13efd401d563ab28a9e7a78eab47417530082d37c00f5f448a80131b4f64cb1",
        "",
        {},
    ),
    ("decompose_file", "json"): (
        0,
        "sha256:bcb53145f1df1b022e1362c0ad558645e6c4c063259ad1261447d034158aceb9",
        "",
        {},
    ),
    ("det_loop", "text"): (
        0,
        "deterministic\n",
        "",
        {},
    ),
    ("det_loop", "json"): (
        0,
        "sha256:bfe1b39dc32728745a01cd261660354c7d528a081b02ed2f5c874dba09b2a5bf",
        "",
        {},
    ),
    ("det_nondet", "text"): (
        1,
        "sha256:e091df761536a4b01a56e70c9ba851c97ef8bada405c6d9ebeee662c2a48caaf",
        "",
        {},
    ),
    ("det_nondet", "json"): (
        1,
        "sha256:5a185950082d32a07666ca10378a05a55c4cdc776970266f735d90f97160c636",
        "",
        {},
    ),
    ("det_square", "text"): (
        0,
        "deterministic\n",
        "",
        {},
    ),
    ("det_square", "json"): (
        0,
        "sha256:bfe1b39dc32728745a01cd261660354c7d528a081b02ed2f5c874dba09b2a5bf",
        "",
        {},
    ),
    ("divide", "text"): (
        0,
        "sha256:4c0ea9483cfca37e1741768be16eeb381e438e6e7193de7dd843ce2c1a2e4a4c",
        "",
        {},
    ),
    ("divide", "json"): (
        0,
        "sha256:51cbe46cc9b0376a1dcf3167222dbb040f8ee67e174ec9a21832e4327337958e",
        "",
        {},
    ),
    ("divide_parse_error", "text"): (
        2,
        "",
        "error: ParseError: bad expression 'a(': expected a label in 'a('\n",
        {},
    ),
    ("divide_parse_error", "json"): (
        2,
        "",
        "error: ParseError: bad expression 'a(': expected a label in 'a('\n",
        {},
    ),
    ("ess", "text"): (
        0,
        "sha256:a857e9205298689b67eea114079eaae3a1be13e5bf10ee8d7634d537529236f6",
        "",
        {},
    ),
    ("ess", "json"): (
        0,
        "sha256:4cdcadebfd5b45df98e296ff37c96038393b0689f8bb9ce5a317364ac48e85ea",
        "",
        {},
    ),
    ("glue", "text"): (
        0,
        "ab\n",
        "",
        {},
    ),
    ("glue", "json"): (
        0,
        "sha256:885bd6abe36bf1b7fee17aa2575d72894297785a9e8d5510b03b878f79515873",
        "",
        {},
    ),
    ("glue_mismatch", "text"): (
        2,
        "",
        "sha256:76f90f62f188ebb0f528eec445e9dd6490687c464f936bde681180f04e4f5fd0",
        {},
    ),
    ("glue_mismatch", "json"): (
        2,
        "",
        "sha256:76f90f62f188ebb0f528eec445e9dd6490687c464f936bde681180f04e4f5fd0",
        {},
    ),
    ("ingest_begin", "text"): (
        0,
        "sha256:3c370f0b728d55e765259d5f0af0dcd1a8a536a426c1af9949c29194f8cd7fb7",
        "",
        {},
    ),
    ("ingest_begin", "json"): (
        0,
        "sha256:12f1b7446d6c35e915910346373d569c91504e5c955c3178e41dbe59f801faba",
        "",
        {},
    ),
    ("ingest_input", "text"): (
        0,
        "sha256:02ecb6a13ca021fea9a7726c2f55f8c41e9576c4a6816fa1b64612f3900fbad4",
        "",
        {},
    ),
    ("ingest_input", "json"): (
        0,
        "sha256:d6a81bdb401556cc9bb74be38e443c2abae70dbfc26274c492e3166d523d06bd",
        "",
        {},
    ),
    ("lang_default", "text"): (
        0,
        "sha256:450c6723c61b7f1227fc958e2b258549d3173bddc0a43df4487f603c7b9d6f03",
        "",
        {},
    ),
    ("lang_default", "json"): (
        0,
        "sha256:d9a828d3d7a449c716d7f729e6bdda620ef50f5446b18cd5b70b93ca58b3fa20",
        "",
        {},
    ),
    ("lang_env", "text"): (
        0,
        "sha256:9d7fceb06e6adcc5c44fce8dee3d94a20ad2a3a427357a8c90dd7ac06c579aee",
        "",
        {},
    ),
    ("lang_env", "json"): (
        0,
        "sha256:c33e8d4f7cb497d549e250939ba0ac66428341d32268047ba8d7ac62e5a376cf",
        "",
        {},
    ),
    ("lang_env_bad", "text"): (
        2,
        "",
        "sha256:c9ebde246c1a26b63c4f1783cfbe4088dddf6424ef189a8fac9e0a35bd7220fb",
        {},
    ),
    ("lang_env_bad", "json"): (
        2,
        "",
        "sha256:c9ebde246c1a26b63c4f1783cfbe4088dddf6424ef189a8fac9e0a35bd7220fb",
        {},
    ),
    ("lang_loop", "text"): (
        0,
        "sha256:959789f29609a62b37d66c8c356b58c90c7040fc9ac1f61a0a7219eaeb89d67b",
        "",
        {},
    ),
    ("lang_loop", "json"): (
        0,
        "sha256:7e7b95a09daf516948b0ebf35fcfebcd6f004544cab202526a008fbbb2584fad",
        "",
        {},
    ),
    ("lang_missing", "text"): (
        2,
        "",
        "error: [Errno 2] No such file or directory: 'data/missing.hda'\n",
        {},
    ),
    ("lang_missing", "json"): (
        2,
        "",
        "error: [Errno 2] No such file or directory: 'data/missing.hda'\n",
        {},
    ),
    ("lang_zero", "text"): (
        2,
        "",
        "error: ParseError: --max-steps must be a positive integer, got 0\n",
        {},
    ),
    ("lang_zero", "json"): (
        2,
        "",
        "error: ParseError: --max-steps must be a positive integer, got 0\n",
        {},
    ),
    ("member_both", "text"): (
        2,
        "",
        "error: give an ipomset file or --expr\n",
        {},
    ),
    ("member_both", "json"): (
        2,
        "",
        "error: give an ipomset file or --expr\n",
        {},
    ),
    ("member_expr_no", "text"): (
        1,
        "no accepting path\n",
        "",
        {},
    ),
    ("member_expr_no", "json"): (
        1,
        "{\"member\": false, \"path\": null}\n",
        "",
        {},
    ),
    ("member_loop", "text"): (
        0,
        "witness: (e ↘{0} V2 ↗{0} b2 ↘{0} V1 ↗{0} e)\n",
        "",
        {},
    ),
    ("member_loop", "json"): (
        0,
        "sha256:2d884c7d2d3cd91e483218a31f391c186c69ac62d03b1b442e1abd26cd9ff4ed",
        "",
        {},
    ),
    ("member_neither", "text"): (
        2,
        "",
        "error: give an ipomset file or --expr\n",
        {},
    ),
    ("member_neither", "json"): (
        2,
        "",
        "error: give an ipomset file or --expr\n",
        {},
    ),
    ("member_yes", "text"): (
        0,
        "witness: (v ↗{0,1} q ↘{0} h)\n",
        "",
        {},
    ),
    ("member_yes", "json"): (
        0,
        "sha256:dcbc9f4165b641cdc0c7789df322d2dede476b00e14f80ed22d500340a5b46c4",
        "",
        {},
    ),
    ("no_command", "text"): (
        2,
        "",
        "sha256:e145f7facc6c586dc615f2d6c79b4dd782734c34fa13a9645ce866b2da23e0d2",
        {},
    ),
    ("no_command", "json"): (
        2,
        "",
        "sha256:e145f7facc6c586dc615f2d6c79b4dd782734c34fa13a9645ce866b2da23e0d2",
        {},
    ),
    ("quotient_both", "text"): (
        2,
        "",
        "error: give exactly one of --prefix or --suffix\n",
        {},
    ),
    ("quotient_both", "json"): (
        2,
        "",
        "error: give exactly one of --prefix or --suffix\n",
        {},
    ),
    ("quotient_neither", "text"): (
        2,
        "",
        "error: give exactly one of --prefix or --suffix\n",
        {},
    ),
    ("quotient_neither", "json"): (
        2,
        "",
        "error: give exactly one of --prefix or --suffix\n",
        {},
    ),
    ("quotient_prefix", "text"): (
        0,
        "{b, bc}\n",
        "",
        {},
    ),
    ("quotient_prefix", "json"): (
        0,
        "sha256:59ba34971935a0d2227c5ea4e31422c77a49e88db9fea7c6d2bd9ed529a18cce",
        "",
        {},
    ),
    ("quotient_suffix", "text"): (
        0,
        "{ab}\n",
        "",
        {},
    ),
    ("quotient_suffix", "json"): (
        0,
        "sha256:587fd5e573f79801565b084c464b0a52ce86c0c9431fe63e26a6c3098b1119c2",
        "",
        {},
    ),
    ("refine", "text"): (
        0,
        "sha256:196204334b1b32c3c34645bc2f8ab9824065bf647f2ad627c9b68220e22a971a",
        "",
        {},
    ),
    ("refine", "json"): (
        0,
        "sha256:606841c5ecdbc54c7d156a1043a77d0a08fe1c4f94710de24c4eee0738954df2",
        "",
        {},
    ),
    ("subsume_eps", "text"): (
        0,
        "subsumes via the empty bijection\n",
        "",
        {},
    ),
    ("subsume_eps", "json"): (
        0,
        "{\"subsumes\": true, \"bijection\": []}\n",
        "",
        {},
    ),
    ("subsume_no", "text"): (
        1,
        "no subsumption\n",
        "",
        {},
    ),
    ("subsume_no", "json"): (
        1,
        "{\"subsumes\": false, \"bijection\": null}\n",
        "",
        {},
    ),
    ("subsume_yes", "text"): (
        0,
        "subsumes via 0->0 1->1\n",
        "",
        {},
    ),
    ("subsume_yes", "json"): (
        0,
        "{\"subsumes\": true, \"bijection\": [0, 1]}\n",
        "",
        {},
    ),
    ("suff_aa", "text"): (
        0,
        "sha256:674620ffe3a17d2a6e96a292421fe40ed2ff32fb97f0d1df443a3291111a9518",
        "",
        {},
    ),
    ("suff_aa", "json"): (
        0,
        "sha256:5a0ca99435c21a45c2bdc8c1310048e644f528812571ec90a9b2f5a8326244ea",
        "",
        {},
    ),
    ("suff_abc", "text"): (
        0,
        "sha256:ec3db1b9e5439b3155044dd93ff8cfb173555d51acb0c39f79cd7f90fe8e55c2",
        "",
        {},
    ),
    ("suff_abc", "json"): (
        0,
        "sha256:2bbb651d445ea7406370a99297c3cd271f8dafd8db26cd4e158eb0f56eb06285",
        "",
        {},
    ),
    ("swapinv_aa", "text"): (
        0,
        "swap-invariant\n",
        "",
        {},
    ),
    ("swapinv_aa", "json"): (
        0,
        "{\"swap_invariant\": true, \"violations\": []}\n",
        "",
        {},
    ),
    ("swapinv_abc", "text"): (
        1,
        "sha256:f989311a9c330d601f2660ac387f4144fb0a31183f351c8ba88168843942d068",
        "",
        {},
    ),
    ("swapinv_abc", "json"): (
        1,
        "sha256:edbe1ff8fbfc51f08418d7d420b4db1722749b8566883ad9312afd1de4a91583",
        "",
        {},
    ),
    ("swapinv_double_a", "text"): (
        0,
        "swap-invariant\n",
        "",
        {},
    ),
    ("swapinv_double_a", "json"): (
        0,
        "{\"swap_invariant\": true, \"violations\": []}\n",
        "",
        {},
    ),
    ("validate_bad", "text"): (
        1,
        "cell f: d0(1) has loset ('a',), expected ()\n",
        "",
        {},
    ),
    ("validate_bad", "json"): (
        1,
        "sha256:ee12327776a667f548a2d901f16372ae70728714361d6d24f87062c1e9686d5a",
        "",
        {},
    ),
    ("validate_chain", "text"): (
        0,
        "valid\n",
        "",
        {},
    ),
    ("validate_chain", "json"): (
        0,
        "sha256:c69b9ffdc716dcb2e653a5c83e9eb626020c8ecafcc0d378960256709e2e8d0a",
        "",
        {},
    ),
    ("verify_aa", "text"): (
        0,
        "sha256:bb8519b4942f72380a55dd464691d3f449a730a067119782e001ceedc060657c",
        "",
        {},
    ),
    ("verify_aa", "json"): (
        0,
        "sha256:738bba2bb37ebbe68219e7bedce5bd0fc81a06c083efc75335339289885fa7f5",
        "",
        {},
    ),
    ("verify_double_a", "text"): (
        0,
        "sha256:bb8519b4942f72380a55dd464691d3f449a730a067119782e001ceedc060657c",
        "",
        {},
    ),
    ("verify_double_a", "json"): (
        0,
        "sha256:738bba2bb37ebbe68219e7bedce5bd0fc81a06c083efc75335339289885fa7f5",
        "",
        {},
    ),
}


def pin(text: str) -> str:
    """``text`` itself when it is one short line, else its SHA-256."""
    if text.count("\n") <= 1 and len(text) <= 70:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def run_case(name, mode, tmp_path, monkeypatch, capsys):
    """Run one case; return its code, pinned output and pinned files."""
    argv, env = CASES[name]
    for file, text in TMP_FILES.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.delenv("HDALIB_MAX_STEPS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    before = set(tmp_path.iterdir())
    try:
        code = main(argv + (["--json"] if mode == "json" else []))
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out = capsys.readouterr()
    files = {
        p.name: pin(p.read_text()) for p in sorted(set(tmp_path.iterdir()) - before)
    }
    return code, pin(out.out), pin(out.err), files, out


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, mode, tmp_path, monkeypatch, capsys):
    code, out_pin, err_pin, files, out = run_case(
        name, mode, tmp_path, monkeypatch, capsys
    )
    assert (code, out_pin, err_pin, files) == EXPECTED[name, mode], (
        f"exit code {code}\n--- stdout ---\n{out.out}--- stderr ---\n{out.err}"
    )
