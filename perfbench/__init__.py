"""perfbench: host-time and simulated-latency benchmark of the federation simulator.

See ``perfbench/README.md``.
"""
