"""The benchmark's workloads: which registered suites each one runs.

Every suite runs at its acceptance (default) parameters; only the seed
varies.  Together the three workloads cover all twelve registered suites.
Why each workload was chosen is recorded in README.md next to this file.
"""

WORKLOADS = {
    "seeded-instances": ("thm15-n2", "jvdk", "centralizer", "maubach",
                         "fixed-point", "gauss"),
    "rank3": ("rank3",),
    "gallery-axioms": ("axioms", "nonexp-family", "ex-triangular",
                       "f-and-fh", "rank-r"),
}

# Suites whose case list does not read the seed: their canonical output is
# the same at every seed, so the seed-7 golden checks them at any seed.
# selftest.py confirms this against the goldens of both committed seeds.
SEED_FREE = frozenset({"rank3", "nonexp-family", "ex-triangular", "rank-r"})

# Seeds whose canonical output of every suite is committed under golden/.
GOLDEN_SEEDS = (7, 4242)
