"""Workload definitions: input sizes, seeded parameter ranges, and golden cases.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  A run repeats whole cycles until
``--seconds`` have passed (or, when traced, a fixed number of cycles), so
each run sees the same mix of operation kinds.  The seed only chooses
values inside the ranges below; ``random.Random(f"{workload}:{seed}")``
draws them, so a seed gives the same inputs on every commit.
"""

# cold-cli: one fresh `python -m c4distill.cli` process per request.  A
# cycle issues each planner-only command once, in a seeded order, plus
# CLI_FLOOR_PER_CYCLE `dump-circuit` requests, which import the package but
# compute nothing and so give the interpreter+import floor.
CLI_COMMANDS = ("polynomials", "threshold", "table1", "plan", "curve")
CLI_FLOOR_PER_CYCLE = 4
CLI_TABLE1_P0 = (0.005, 0.01, 0.02, 0.04)
CLI_PLAN_P0 = (0.002, 0.05)  # uniform
CLI_PLAN_LOG10_EG = (-30.0, -4.0)  # log-uniform; default 6 rounds

# plan-sweep: one process; per cycle one best_sequence goal at each
# max_rounds, then the three figure exports below.
PLAN_P0 = (0.005, 0.01, 0.02)
PLAN_LOG10_EG = (-30.0, -4.0)
PLAN_MAX_ROUNDS = (6, 7, 8)

# mc-sample: one process; per cycle one sample_routine + report() of
# MC_TRIALS trials, then one run_blocked_pipeline + pipeline_report at
# PIPELINE_K0 for each sequence, with grouping="instance".
MC_P = (0.005, 0.1)
MC_TRIALS = 1_000_000
PIPELINE_SEQUENCES = ("AA", "BA", "A")
PIPELINE_P0 = (0.005, 0.05)
PIPELINE_K0 = 4_000_000

# two-engine: one process; per cycle a fresh FrameClassifier and a fresh
# DenseClassifier classify all patterns in a seeded order, the engines are
# compared, identities.verify_all() runs and the polynomials are derived.
N_PATTERNS = 1024
GATE_CHUNK = 128  # patterns per timed step (see refwork.py)
AGREEMENT_TOL = 1e-10

# The reference work each workload's costs are measured in (see refwork.py).
REFERENCE = {"cold-cli": "interpreter", "plan-sweep": "interpreter", "mc-sample": "arrays",
             "two-engine": "interpreter"}

# Commands with fixed arguments, compared byte for byte with tests/golden.
GOLDEN = {
    "polynomials": ("polynomials.json", ["polynomials"]),
    "threshold-A": ("threshold_a.json", ["threshold", "--routine", "A"]),
    "threshold-B": ("threshold_b.json", ["threshold", "--routine", "B"]),
    "table1-0.01": ("table1.csv", ["table1", "--p0", "0.01"]),
    "both-thresh": ("curve_both_thresh.csv",
                    ["curve", "--figure", "both-thresh", "--pmin", "0.01", "--pmax", "0.05",
                     "--points", "5"]),
    "regionplot": ("curve_regionplot.csv",
                   ["curve", "--figure", "regionplot", "--pmin", "0.002", "--pmax", "0.08",
                    "--points", "5", "--boundaries"]),
    "distplot": ("curve_distplot.csv",
                 ["curve", "--figure", "distplot", "--eg-min", "1e-8", "--eg-max", "1e-4",
                  "--points", "5", "--max-rounds", "4"]),
    "dump-circuit": ("dump_circuit.txt", ["dump-circuit"]),
}
FIGURES = [GOLDEN[k] for k in ("distplot", "regionplot", "both-thresh")]

# Fixed cycle counts of a traced run, so call and byte counts repeat exactly.
TRACED_CYCLES = {"cold-cli": 1, "plan-sweep": 2, "mc-sample": 3, "two-engine": 2}
