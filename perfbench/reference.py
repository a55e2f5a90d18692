"""Reference values the benchmark checks the program's outputs against.

Published values are copied from the acceptance gate (tests/test_acceptance.py)
rather than imported, so the benchmark does not depend on the test tree.
Unpublished rows were recorded from the program at the commit that added
the benchmark (CSV output, 12 significant digits).
"""

TABLE_TOL = 5e-4
SPOT_TOL = 1e-8
RECORDED_TOL = 1e-8

# published 4-decimal interval constants: N -> (mult, add)
INTERVAL_PUBLISHED = {
    1: (1.1818, 0.8750),
    2: (1.8298, 1.1436),
    3: (2.1527, 1.1507),
    4: (2.3410, 1.1353),
    5: (2.4594, 1.1199),
    10: (2.7219, 1.0826),
    15: (2.8221, 1.0685),
    20: (2.8740, 1.0611),
    25: (2.9051, 1.0565),
    30: (2.9254, 1.0534),
    35: (2.9394, 1.0512),
    40: (2.9497, 1.0495),
    45: (2.9574, 1.0481),
    50: (2.9633, 1.0471),
}

# extended-precision spot values: (N, kind) -> value
INTERVAL_SPOT = {
    (1, "mult"): 1.18184916854199,
    (1, "add_h1_denominator"): 0.875,
    (120, "mult"): 2.99018284042270,
}

# recorded interval rows without a published value: N -> (mult, add)
INTERVAL_RECORDED = {
    55: (2.96809547801, 1.04624257964),
    60: (2.97190920471, 1.04551089085),
    65: (2.97503926132, 1.04489004319),
    70: (2.97764417211, 1.04435662477),
    75: (2.97983833781, 1.04389338318),
    80: (2.981706138, 1.04348732491),
    85: (2.98331100622, 1.04312847761),
    90: (2.98470143645, 1.04280906028),
    95: (2.98591505801, 1.04252291273),
    100: (2.98698146108, 1.04226509441),
    105: (2.98792419449, 1.04203159688),
    110: (2.98876220322, 1.04181913381),
    115: (2.98951087919, 1.04162498545),
    120: (2.99018284042, 1.04144688156),
}

# published triangle constants: N -> (mult, add, h1 stability)
TRIANGLE_PUBLISHED = {
    8: (3.4701, 1.6508, 0.43835),
    20: (3.7681, 1.6165, 0.43421),
}

# recorded triangle rows without a published value: N -> (mult, add, h1)
TRIANGLE_RECORDED = {
    12: (3.62705540312, 1.63226130835, 0.435795222777),
    16: (3.71351437915, 1.6225241141, 0.434833152302),
    24: (3.80542709845, 1.61251750591, 0.433788350209),
}

POLY_RATE_TOL = 1e-11
ANALYTIC_SLOPE_MAX = -3.0
