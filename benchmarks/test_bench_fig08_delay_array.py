"""Bench: Fig. 7/8 — delay phased array band response."""

import numpy as np

from repro.experiments import fig08_delay_array


def test_fig08_band_responses(capsys):
    result = fig08_delay_array.run_band_responses()
    # Paper shape: delay-optimized response flat; uncompensated notches.
    for spread in ("5ns", "10ns"):
        compensated = result.ripple_db(f"mmreliable-delay-optimized-{spread}")
        uncompensated = result.ripple_db(f"multibeam-uncompensated-{spread}")
        single = result.ripple_db(f"single-beam-{spread}")
        assert compensated < 1.0
        assert single < 1.0
        assert uncompensated > 15.0
    # Notch spacing halves when the delay spread doubles: more notches
    # fall below the mean for 10 ns than for 5 ns across the same band.
    def notch_count(label):
        response = result.responses_db[label]
        threshold = np.median(response) - 6.0
        below = response < threshold
        return int(np.sum(np.diff(below.astype(int)) == 1) + below[0])

    assert notch_count("multibeam-uncompensated-10ns") > notch_count(
        "multibeam-uncompensated-5ns"
    )
    with capsys.disabled():
        print()
        print(fig08_delay_array.render({"responses": result}))
