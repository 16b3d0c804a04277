"""Figure 8 bench: raw-bit accuracy vs transmission rate."""

import numpy as np

RATES = (200, 500, 800, 1000)


def test_fig8_accuracy_vs_rate(run_driver):
    result = run_driver("fig8", seed=0, bits=100, rates=RATES)
    curves = result["curves"]
    assert len(curves) == 6
    for name, points in curves.items():
        acc = dict(points)
        # near-perfect at low rate...
        assert acc[200.0] >= 0.97, name
        # ...and no better at the 1 Mbps extreme than at 200 Kbps.
        assert acc[1000.0] <= acc[200.0] + 1e-9, name
    # Aggregate rolloff: mean accuracy at 1 Mbps clearly below low-rate.
    mean_low = np.mean([dict(p)[200.0] for p in curves.values()])
    mean_high = np.mean([dict(p)[1000.0] for p in curves.values()])
    assert mean_high < mean_low
    # The paper's headline band: high accuracy is sustained at 700-800
    # Kbps (its binary peak), e.g. RExclc-LSharedb at ~96% @ 800.
    exception = dict(curves["RExclc-LSharedb"])
    assert exception[800.0] >= 0.9
