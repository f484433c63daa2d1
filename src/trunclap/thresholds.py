"""Acceptance thresholds, centralized so tolerance changes never touch
test or harness code.

The sampling tolerances are sized from binomial error propagation at the
stated draw counts; the exact-arithmetic tolerances are pure float64
headroom.
"""

THRESHOLDS = {
    # analytic reproduction of the reference accuracy table
    "table1_theory_abs": 0.01,
    "table1_empirical_n": 500_000,
    "table1_mean_abs": 0.5,
    "table1_mse_rel": 0.02,
    # distribution overlay.  A faithful n-draw histogram on the 769-point
    # p=2 support has expected TV 0.0119 at 500k and 0.0060 at 2M; 2M
    # leaves room for the McDiarmid term sqrt(ln(1e9) / 2n) = 0.0023
    # (failure probability 1e-9) under the bound, while a law shifted by
    # one grid step still reads about 0.016.
    "overlay_n": 2_000_000,
    "overlay_tv": 0.01,
    # calibration reference point
    "calibration_sigma_lo": 49.2,
    "calibration_sigma_hi": 49.3,
    # exact certificates
    "ratio_tol": 1e-10,
    "enum_pointwise_tol": 1e-12,
    "lambda_rel_tol": 1e-10,
    "normalization_tol": 1e-12,
    "moment_oracle_rel_tol": 1e-9,
    # sampler statistics
    "sampler_tv_1e6": 0.003,
    "clap_tv_1e6": 0.01,
    # secure-protocol statistics.  A8's session counts are sized like
    # overlay_n: a faithful histogram's expected TV, plus the McDiarmid
    # term, plus (TCL) the TV of the gamma=8 lattice law from the exact one
    # stays below the bound: TDL 0.0013 + 0.0032 at 1M (0.0142 at 100k),
    # TCL 0.0023 + 0.0059 + 0.0006 at 300k (0.0147 at 100k).
    "mpc_equiv_sessions": 10_000,
    "mpc_tv_sessions_d": 1_000_000,
    "mpc_tv_sessions_c": 300_000,
    "mpc_tv_d": 0.005,
    "mpc_tv_c": 0.01,
    "dp_cert_sessions": 1_000_000,
    "dp_cert_min_count": 100,
    "dp_cert_rel_se": 3.0,
}
