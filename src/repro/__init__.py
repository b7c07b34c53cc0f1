"""repro — a reproduction of "Boon and Bane of 60 GHz Networks"
(Nitsche et al., CoNEXT 2015).

The package provides:

* a full 60 GHz simulation substrate — phased antenna arrays with
  consumer-grade imperfections (:mod:`repro.phy.antenna`), beam
  codebooks (:mod:`repro.phy.codebook`), a 60 GHz link budget
  (:mod:`repro.phy.channel`), an image-method indoor ray tracer
  (:mod:`repro.phy.raytracing`), the 802.11ad MCS table
  (:mod:`repro.phy.mcs`), and oscilloscope-style amplitude-trace
  synthesis (:mod:`repro.phy.signal`);
* discrete-event MAC models of the two systems the paper measures —
  WiGig/D5000 (:mod:`repro.mac.wigig`) and WiHD/Air-3c
  (:mod:`repro.mac.wihd`) — sharing one channel with SINR-based
  collisions (:mod:`repro.mac.simulator`), plus Iperf-style TCP
  (:mod:`repro.mac.tcp`);
* device models including the Vubiq measurement receiver
  (:mod:`repro.devices`);
* the paper's analysis pipeline (:mod:`repro.core`): frame extraction
  from traces, aggregation statistics, medium-usage estimation, beam
  pattern and angular-profile measurement, interference metrics;
* ready-made experiment harnesses for every figure and table
  (:mod:`repro.experiments`).

Quick start::

    from repro.devices import make_d5000_dock
    dock = make_d5000_dock()
    beam = dock.active_beam.pattern
    print(beam.half_power_beam_width_deg(), beam.side_lobe_level_db())
"""

from repro import analysis, core, devices, geometry, mac, phy

__version__ = "1.0.0"

__all__ = ["analysis", "core", "devices", "geometry", "mac", "phy", "__version__"]
