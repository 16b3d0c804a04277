"""Figure 9 bench: accuracy under co-located kernel-build noise."""

import numpy as np

LEVELS = (0, 2, 8)


def test_fig9_noise_degradation(run_driver):
    result = run_driver(
        "fig9", seed=0, bits=100, noise_levels=LEVELS, trials=2,
    )
    curves = result["curves"]
    assert len(curves) == 6
    for name, points in curves.items():
        acc = dict(points)
        # clean baseline
        assert acc[0] >= 0.97, name
        # monotone-ish degradation: the 8-thread point never beats clean
        assert acc[8] <= acc[0] + 1e-9, name
    # Aggregate: heavy noise visibly degrades the average channel.
    mean_clean = np.mean([dict(p)[0] for p in curves.values()])
    mean_heavy = np.mean([dict(p)[8] for p in curves.values()])
    assert mean_heavy < mean_clean - 0.01
    # Even under heavy noise the channel remains usable (paper: >=77%).
    assert mean_heavy >= 0.77
