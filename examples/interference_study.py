#!/usr/bin/env python3
"""Coexistence study: how far apart do a WiGig link and a WiHD link
need to be?

Runs the aligned half of the paper's Figure 22 sweep (two D5000
docking links plus a blindly-transmitting WiHD pair on the same
channel) through the ``interference`` campaign, and derives a
minimum-separation recommendation from the measured link utilization
and retransmission counts.

Run:  python examples/interference_study.py            (quick)
      python examples/interference_study.py --full     (all 7 offsets)
"""

import os
import sys

from repro.campaign import CampaignSpec, get_campaign, run_campaign
from repro.core.interference import high_interference_regime_m
from repro.experiments.interference import campaign_points


def main() -> None:
    full = "--full" in sys.argv
    duration = 0.3 if full else 0.2
    # The Figure 22 campaign's aligned cells (offset seeds 10+i, the
    # baseline at 99); the quick run keeps the whole-meter offsets.
    spec = get_campaign("interference").with_overrides(
        {"rotated": False, "duration_s": duration}
    )
    if not full:
        spec = CampaignSpec(spec.name, tuple(
            c for c in spec.cells if c.param_dict()["wihd_offset_m"] % 1 == 0
        ))
    print(f"Running {len(spec.cells)} cells (baseline included)...")
    result = run_campaign(spec, workers=min(len(spec.cells), os.cpu_count() or 1))
    points = campaign_points(result.outcomes)
    (base,) = points[False, False]
    sweep = points[True, False]
    print(f"Interference-free baseline: utilization {base.utilization * 100:.0f}%, "
          f"link rate {base.link_rate_bps / 1e9:.2f} Gbps")
    print()
    print("WiHD separation sweep (blind transmitter, same channel):")
    print(f"{'d (m)':>6} {'util %':>7} {'rate Gbps':>10} {'retx':>6}")
    for p in sweep:
        print(f"{p.distance_m:6.1f} {p.utilization * 100:7.1f} "
              f"{p.link_rate_bps / 1e9:10.2f} {p.retransmissions:6d}")

    regime = high_interference_regime_m(sweep, base.utilization, margin=0.10)
    print()
    if regime > 0:
        print(f"High-interference regime extends to ~{regime:.1f} m.")
        print(f"Recommendation: keep uncoordinated 60 GHz systems at least "
              f"{regime + 1.0:.0f} m apart, or force them onto different "
              f"channels - side lobes make 'directional' links collide.")
    else:
        print("No significant interference detected in this sweep.")


if __name__ == "__main__":
    main()
