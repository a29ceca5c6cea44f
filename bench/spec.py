"""What the benchmark runs and checks: workloads, acceptance bands, metrics.

This is the one place the benchmark keeps its data. `run.py` measures from
it, `selftest.py` holds BENCHMARK.json to it and `baseline.py` copies the
layer expectations into the committed baseline.
"""

from __future__ import annotations

# Headline values and their README bands, keyed by the name a spectral sum
# carries in a report ("kappa1_discrete", or "kappa1_discrete_200" in the
# verify report) and in the library sweep.
BANDS = {
    "kappa1_discrete": (0.21, 0.005),
    "kappa2_discrete": (0.0796, 0.0005),
    "bethe_sum": (0.336, 0.002),
    "polarizability_discrete": (3.663, 0.001),
    "oscillator_strength_sum": (0.5650, 0.001),
}

# The banded values each subcommand's report must carry; a report that lacks
# one fails, so a dropped or renamed headline value cannot pass unchecked.
REQUIRED_BANDS = {
    "kappas": ("kappa1_discrete", "kappa2_discrete"),
    "bethe": ("bethe_sum",),
    "polarizability": ("polarizability_discrete", "oscillator_strength_sum"),
    "verify": ("kappa1_discrete_200", "kappa2_discrete_200", "bethe_sum_200",
               "polarizability_discrete_400", "oscillator_strength_sum_400"),
}

# The CLI workloads: one fresh `python -m casimir_momentum` per argv, every
# argv once per round, in an order drawn from the seed.
CLI_WORKLOADS = {
    "cli-light": [
        ["budget"],
        ["renorm"],
        ["rho-c"],
        ["continuum", "--which", "both", "--ymin-grid", "0,0.5,1,2"],
    ],
    "cli-compute": [
        ["kappas", "--n-max", "200"],
        ["bethe", "--n-max", "200"],
        ["polarizability", "--n-max", "400"],
        ["verify"],
    ],
}

# The library workload: one fresh worker per round runs this convergence
# study through the package-root exports, in an order drawn from the seed.
SWEEP_WORKLOAD = "lib-sweep"
SWEEP_FUNCTIONS = ("kappa1_discrete", "kappa2_discrete", "bethe_sum",
                   "polarizability_discrete", "oscillator_strength_sum")
SWEEP_N_MAX = tuple(range(100, 451, 50))
SWEEP_YMIN_GRID = tuple(0.05 * k for k in range(64))

WORKLOADS = (*CLI_WORKLOADS, SWEEP_WORKLOAD)

# Bands of n over which the traced replay fills the radial table, with the
# arguments after n it passes to radial_record. The closed-form bands read
# the records the spectral sums read, which take the closed-form route up to
# hydrogen.EXACT_ROUTE_MAX_N = 400.
FILL_BANDS = {
    "hydrogen.closed_form_s.n2-200": (2, 200, ()),
    "hydrogen.closed_form_s.n201-400": (201, 400, ()),
    "hydrogen.default_route_s.n401-450": (401, 450, ()),
}
QUADRATURE_BAND = ("hydrogen.quadrature_s.n2-200", (2, 200, ("quadrature",)))

# The host's speed drifts by up to a third over minutes on a shared machine,
# and every process slows alike. So after every timed child the run also
# times this reference, which does not touch the package, in a fresh
# interpreter (a median of four or five per run proved too noisy), and the
# end-to-end times are reported in seconds of a host on which it takes
# REFERENCE_S: measured time * REFERENCE_S / median reference time.
REFERENCE_CODE = """
import numpy as np
s = 0
for k in range(150000):
    s += k * k
x = 3**30000 * 7**20000 // (5**12000 + 1)
a = np.random.default_rng(0).random(300000)
for _ in range(5):
    a = np.sort(a * 1.0001)
"""
REFERENCE_S = 0.25

# End-to-end metrics, reported with tracing off.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, reported by the traced run: unit, which way is better,
# and the end-to-end metric and workload each should move. Times are self
# times summed over the invocations of one round; counts are exact.
LAYERS = {
    "import.total_s": ("s", "lower",
                       "setup_s on every workload and wall_s on cli-light; "
                       "not wall_s on lib-sweep"),
    "import.numpy_s": ("s", "lower", "as import.total_s"),
    "import.scipy_s": ("s", "lower", "as import.total_s"),
    "import.casimir_momentum_self_s": ("s", "lower", "as import.total_s"),
    "hydrogen.closed_form_s.n2-200": ("s", "lower",
                                      "wall_s on cli-compute and "
                                      "lib-sweep; not cli-light"),
    "hydrogen.closed_form_s.n201-400": ("s", "lower",
                                        "wall_s on cli-compute and "
                                        "lib-sweep; not cli-light"),
    "hydrogen.quadrature_s.n2-200": ("s", "lower", "wall_s on cli-compute"),
    "hydrogen.default_route_s.n401-450": ("s", "lower", "wall_s on lib-sweep"),
    "hydrogen.records_filled": ("count", "lower", "wall_s on lib-sweep"),
    "hydrogen.cache_hits": ("count", "higher", "wall_s on lib-sweep"),
    "hydrogen.cache_hit_ratio": ("ratio", "higher", "wall_s on lib-sweep"),
    "sums.self_s": ("s", "lower", "wall_s on cli-compute and lib-sweep"),
    "sums.warm_s.n400": ("s", "lower",
                         "a small share of cli.compute_s on cli-compute"),
    "quadrature.continuum_s": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "quadrature.neval": ("count", "lower", "wall_s on cli-light and cli-compute"),
    "quadrature.subdivisions": ("count", "lower",
                                "wall_s on cli-light and cli-compute"),
    "renorm.delta_mass_s": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "renorm.rho_c_s": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "budget.assemble_s": ("s", "lower", "wall_s on cli-light"),
    "cli.parse_s": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "cli.serialize_s.json": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "cli.serialize_s.csv": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "cli.serialize_s.text": ("s", "lower", "wall_s on cli-light and cli-compute"),
    "cli.report_bytes": ("bytes", "lower", "wall_s on cli-light and cli-compute"),
    "cli.compute_s": ("s", "lower", "wall_s on every workload"),
    "verify.run_checks_s.cold": ("s", "lower", "wall_s on cli-compute"),
    "verify.run_checks_s.warm": ("s", "lower",
                                 "wall_s on cli-compute (cold minus warm is "
                                 "its table fill)"),
    "trace.overhead_frac": ("ratio", "lower", "none; the cost of the replay"),
    "trace.unaccounted_frac": ("ratio", "lower",
                               "none; drift between replay and handler"),
}
