"""Frozen expected values shared across the test modules.

Derived values were computed by hand from the definitions and cross-
checked by the brute-force oracles before being frozen here.
"""

from crossnest import Arc

EX1 = "4,-6,3,5,1,-2"
EX1_VALUES = (4, -6, 3, 5, 1, -2)
EX1_UPPER = frozenset({
    Arc(-6, 2), Arc(-5, -1), Arc(-2, 6), Arc(1, 4), Arc(3, 3), Arc(4, 5),
})
EX1_STATS = {"cro": 4, "nes": 5, "wex": 3, "neg": 2}

EX2 = "4,5,6,2,-3,-1"
EX2_VALUES = (4, 5, 6, 2, -3, -1)
EX2_UPPER = frozenset({
    Arc(-6, 1), Arc(-5, 3), Arc(-4, -2), Arc(1, 4), Arc(2, 5), Arc(3, 6),
})
EX2_DEGREE = "(0,1)(0,1)(0,1)(0,0)(1,0)(0,0)(1,1)(0,1)(1,1)(1,0)(1,0)(1,0)"
EX2_CHAINS = (4, 2)   # (cro_star, nes_star)

# image of EX1 under the pair-count involution
EX1_IMAGE = "2,-5,4,6,1,-3"
EX1_IMAGE_UPPER = frozenset({
    Arc(-6, 3), Arc(-5, -1), Arc(-2, 5), Arc(1, 2), Arc(3, 4), Arc(4, 6),
})

# sha256 of the pair-involution images, one line each, of every signed
# permutation of ranks 1-5 in enumerate_bn order (4,282 lines), frozen
# from the split/rerouting/unsplit map that the rank-mirror scan replaced
PAIR_IMAGES_SHA256 = "86f847fa0550f4396d03c4c5191e039d25c068700cafc2194d8fa08bbb0b1c1c"

# chain-swapped companion of EX2: same degree sequence, chains (2, 4)
THETA_UPPER = frozenset({
    Arc(-6, 1), Arc(-5, -2), Arc(-4, 6), Arc(1, 5), Arc(2, 4), Arc(3, 3),
})
THETA_VALUES = (5, 4, 3, -6, 2, -1)

# image of EX2 under the growth-diagram chain involution
EX2_THETA_IMAGE = "1,4,3,-5,2,-6"

# sha256 of the chain-involution images, one line each, of every signed
# permutation of ranks 1-4 in enumerate_bn order (442 lines), frozen from
# the scalar growth-diagram map
THETA_IMAGES_SHA256 = "839633d58fa6ec1e1a99df768ea41c4e77390ec6dd91c7582183e7c89b076b4c"

EX2_SHAPE = (6, 6, 6, 6, 4, 3)
EX2_OPENERS = (-6, -5, -4, 1, 2, 3)
EX2_CLOSERS = (-2, 1, 3, 4, 5, 6)
EX2_CELLS = frozenset({(1, 6), (2, 5), (3, 4), (4, 2), (5, 1), (6, 3)})

# `crossnest ARGV...` as written before the output options were shared:
# sha256 of stdout, exit code and the first stderr line ("" if none)
CLI_GOLDENS = {
    ("stats", EX1): (
        "762c5eb0adf69e594e5fe39a500eeddbc3dfa1bc9f013e9007050a1c6ea52aa2", 0, ""),
    ("stats", EX1, "--json"): (
        "a78f2b623f789e66f743b809bf7550721153d09c9bd616e9efaf0fb7fb37e167", 0, ""),
    ("stats", "-1,2"): (
        "fe0bc357880e9ba605f234f0c4254e1f7e7b75f87023d264f09cc85dd491ab4f", 0, ""),
    ("involute", EX1): (
        "b273ae5d588a5f83fb92def4528ffbad95198684a0a540f0e0c0bbd853ba3621", 0, ""),
    ("involute", EX2, "--map", "theta"): (
        "71ba32f2554632e1b46fdc912da14d312f05dfd0148e201eb9eac8fabf77ccd8", 0, ""),
    ("involute", EX2, "--map", "theta", "--json"): (
        "33ffcea9f88634abe5474f7d667a80aaa0525c429b67ba3d272007ea4672e586", 0, ""),
    ("theta", EX2): (
        "29f1cd04ee5accb229cc81ef310052a4e19be20801e3c3b1b4c3272320ed1fcf", 0, ""),
    ("theta", EX2, "--json"): (
        "c6dbb8dd0e16c96a956961f36f89244ef54030da4c61c6090e021fa6f1083c9f", 0, ""),
    ("fill", EX2): (
        "4461340478680c19092a4ee8c06217ec1caf59a706f9a97bc2da1905ddb1fbfb", 0, ""),
    ("verify", "involutions"): (
        "8039bada3b9e2bc141272076146f10ca2343fc761a795470e5c3ac3e72c28ac2", 0, ""),
    ("verify", "involutions", "--n", "2"): (
        "938748a9524228501d497e553bfba1646cb5d6e61eb21a3ac8faf4708b65cb36", 0, ""),
    ("verify", "lemma41"): (
        "5e44130c7e52044bcf4960baa78a896cbce00e8d274e6f49f65ab3e230b92fc2", 0, ""),
    ("verify", "lemma41", "--n", "3"): (
        "b93dc94594c048edb0c6c3eb2c2dc49ac78e42870e731eefc901cda68e780af8", 0, ""),
    ("stats", "2,2"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2,
        "error: magnitudes must be 1..2 exactly once, got (2, 2)"),
    ("theta",): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2,
        "error: give either a permutation or --from-filling PATH"),
}
# sha256 of the file that `crossnest stats EX1 --json --out FILE` writes
STATS_EX1_JSON_FILE_SHA256 = "a78f2b623f789e66f743b809bf7550721153d09c9bd616e9efaf0fb7fb37e167"
