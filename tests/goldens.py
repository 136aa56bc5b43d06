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
