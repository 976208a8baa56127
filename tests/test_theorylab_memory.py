"""The theory battery's memory, draw sequence and check list stay put.

`variance_decomposition` releases the simulated arrays it no longer reads,
fits the k-NN neighbourhoods in query pieces and, in one dimension, reads them
as windows of sorted copies of the fit's inputs; these tests bound its traced
allocation peak, pin the random stream it leaves behind and pin the stock
battery's check list.
"""

import tracemalloc

import numpy as np
import pytest

from gaugeflow import theorylab as lab

MIB = 2 ** 20

# tracemalloc peaks of one call on the stated sizes (numpy reports its buffers
# to tracemalloc): before the arrays were released and the fits chunked,
# 31.2 MiB (signflip, n = 2e5) and 39.0 MiB (c4, n = 1e5); after, 22.9 and
# 19.1 MiB. Reading the 1-D windows from sorted copies, with no index matrix
# or sentinel copy, and simulating without keeping the endpoints took the
# sign flip to 14.4 MiB (the c4 fits run the unchanged k-d path). Each bound
# sits between the last two peaks of its system.
PEAK_BOUNDS = [(lab.signflip_system, 200_000, 18 * MIB),
               (lab.c4_system, 100_000, 29 * MIB)]


@pytest.mark.parametrize("make, n, bound", PEAK_BOUNDS, ids=["signflip", "c4"])
def test_variance_decomposition_peak_memory(make, n, bound):
    system = make()
    lab.variance_decomposition(system, 2000, np.random.default_rng(1))  # first-use imports
    tracemalloc.start()
    try:
        lab.variance_decomposition(system, n, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / MIB:.1f} MiB"


# the next rng.integers(0, 2**62) after variance_decomposition(make(), 5000,
# default_rng(23)), as the implementation that held every array drew it
NEXT_DRAW = [(lab.signflip_system, 4599912920935323649),
             (lab.c4_system, 1392267097552973666)]


@pytest.mark.parametrize("make, next_draw", NEXT_DRAW, ids=["signflip", "c4"])
def test_variance_decomposition_leaves_the_stream_where_it_was(make, next_draw):
    system = make()
    rng = np.random.default_rng(23)
    lab.variance_decomposition(system, 5000, rng)
    # the same draws, made directly: the simulation, then per k-NN fit the
    # query subsample and the bootstrap indices
    replay = np.random.default_rng(23)
    lab.simulate(system, 5000, replay)
    for _ in range(2):
        replay.choice(5000, size=2000, replace=False)
        replay.integers(0, 2000, size=(200, 2000))
    assert rng.bit_generator.state == replay.bit_generator.state
    assert rng.integers(0, 2 ** 62) == next_draw


STOCK_CHECKS = [
    "gaussian_condvar_unit",
    "score_matches_fd_signflip",
    "score_matches_fd_c4",
    "score_matches_fd_s3",
    "signflip_decomposition_residual",
    "signflip_within_zero",
    "signflip_quadrature_match",
    "collision_bound_below_ambiguity_signflip",
    "collision_bound_tight_two_copies",
    "decomposition_inequality_c4",
    "decomposition_inequality_s3",
    "lift_independence_isotropic",
    "lift_dependence_flagged_anisotropic",
    "bayes_equivariance_c4",
    "broken_coupling_detected",
]


def test_default_suite_runs_the_fifteen_stock_checks_in_order():
    report = lab.run_default_suite(seed=0, n_mc=20_000)
    assert [c.name for c in report.checks] == STOCK_CHECKS
