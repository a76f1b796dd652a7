"""Metric names, units and directions; BENCHMARK.json lists the same."""

# end-to-end metrics: untraced runs only.  batch_ref is the sum, over
# the kinds of op in a batch, of the median time of that kind in probe
# units (worker.SpeedSampler).  The raw seconds, medians, tail and
# throughput are printed but not bounded (see BASELINE.md).
END_TO_END = (
    ("batch_ref", "probe", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

VERIFY_CHECKS = (
    "boundary-squared-zero", "coboundary-squared-zero", "betti-numbers", "homotopy-invariance",
    "exterior-calculus", "pullback-functorial", "integration-oracle", "bernstein-containment",
    "stokes-commutation", "whitney-extension",
    "invariant-polynomials", "polarize-roundtrip", "reznikov-pullback", "ad-exp-series",
    "clutch-winding", "bundle-validation", "connection-construction", "concordance-ends",
    "horn-filling", "bundle-pullback-functorial",
    "clutch-integrality", "connection-independence", "naturality", "classical-agreement",
    "calibration-stability", "gauge-independence",
)

# per-layer metrics: traced runs only.  Values are per traced batch,
# except linalg.PrecomputedSolver.build.*, which sum over the traced
# worker's warm-up and traced batches (the solver cache fills in
# warm-up).  *.self_s and the kernel call counts come from the profiler
# pass; self times are seconds under cProfile.
PER_LAYER = (
    ("scalars.self_s", "s/batch", "lower"),
    ("scalars.Scalar.mul.calls", "count/batch", "lower"),
    ("scalars.Scalar.add.calls", "count/batch", "lower"),
    ("scalars.fraction_new.calls", "count/batch", "lower"),
    ("scalars.fractions_self_s", "s/batch", "lower"),
    ("poly.self_s", "s/batch", "lower"),
    ("poly.Poly.mul.calls", "count/batch", "lower"),
    ("poly.Poly.mul.term_pairs", "count/batch", "lower"),
    ("poly.Poly.compose.calls", "count/batch", "lower"),
    ("linalg.self_s", "s/batch", "lower"),
    ("linalg.PrecomputedSolver.build.calls", "count", "lower"),
    ("linalg.PrecomputedSolver.build.s", "s", "lower"),
    ("linalg.PrecomputedSolver.build.rows", "count", "lower"),
    ("linalg.PrecomputedSolver.solve.calls", "count/batch", "lower"),
    ("linalg.PrecomputedSolver.solve.s", "s/batch", "lower"),
    ("linalg.solve_or_certify.calls", "count/batch", "lower"),
    ("linalg.solve_or_certify.s", "s/batch", "lower"),
    ("linalg.rank.calls", "count/batch", "lower"),
    ("simplicial.self_s", "s/batch", "lower"),
    ("simplicial.is_coboundary.calls", "count/batch", "lower"),
    ("simplicial.is_coboundary.s", "s/batch", "lower"),
    ("simplicial.is_coboundary.cells", "count/batch", "lower"),
    ("simplicial.betti_numbers.s", "s/batch", "lower"),
    ("forms.self_s", "s/batch", "lower"),
    ("forms.whitney_extend.calls", "count/batch", "lower"),
    ("forms.whitney_extend.s", "s/batch", "lower"),
    ("forms.whitney_extend.solves_per_call", "ratio", "lower"),
    ("forms.PolyForm.pullback.calls", "count/batch", "lower"),
    ("forms.PolyForm.pullback.s", "s/batch", "lower"),
    ("forms.PolyForm.wedge.calls", "count/batch", "lower"),
    ("forms.integrate_to_cochain.s", "s/batch", "lower"),
    ("liealg.self_s", "s/batch", "lower"),
    ("liealg.InvariantPolynomial.eval.calls", "count/batch", "lower"),
    ("liealg.InvariantPolynomial.eval.s", "s/batch", "lower"),
    ("bundles.self_s", "s/batch", "lower"),
    ("bundles.construct_connection.calls", "count/batch", "lower"),
    ("bundles.construct_connection.s", "s/batch", "lower"),
    ("bundles.validate_connection.s", "s/batch", "lower"),
    ("bundles.validate_bundle.s", "s/batch", "lower"),
    ("bundles.concordance.s", "s/batch", "lower"),
    ("cw.self_s", "s/batch", "lower"),
    ("cw.curvature.s", "s/batch", "lower"),
    ("cw.cw_form.calls", "count/batch", "lower"),
    ("cw.cw_form.s", "s/batch", "lower"),
    ("cw.cw_cochain.calls", "count/batch", "lower"),
    ("cw.connection_independence.s", "s/batch", "lower"),
    ("cw.calibrate_cw_constant.s", "s/batch", "lower"),
    ("io.self_s", "s/batch", "lower"),
    ("io.parse.bytes", "B/batch", "lower"),
    ("io.parse.s", "s/batch", "lower"),
    ("io.serialize.bytes", "B/batch", "lower"),
    ("io.serialize.s", "s/batch", "lower"),
    ("cli.main.calls", "count/batch", "lower"),
    ("cli.main.s", "s/batch", "lower"),
    ("cli.exit_nonconforming", "count/batch", "lower"),
) + tuple((f"verify.{c}.s", "s/batch", "lower") for c in VERIFY_CHECKS) + (
    ("verify.span_coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
