"""Set-up probe: import ``cicdec.cli`` and build one workload's objects, then exit.

``run.py`` times this whole process from outside, so ``setup_s`` includes the
interpreter start and the numpy import that ``cicdec`` pulls in.

    setup_probe.py SRC config|state|chip N,R,M,B[,RMAX] ...

``config`` builds only each ``CicConfig``, ``state`` a ``DecimatorState`` and
``chip`` a ``ChipModel`` programmable over rates 1..RMAX.
"""

import sys

sys.path.insert(0, sys.argv[1])

import cicdec.cli  # noqa: E402,F401
from cicdec import ChipModel, CicConfig, DecimatorState  # noqa: E402

for spec in sys.argv[3:]:
    n, r, m, b, *rmax = (int(v) for v in spec.split(","))
    config = CicConfig(n, r, m, b)
    if sys.argv[2] == "state":
        DecimatorState(config)
    elif sys.argv[2] == "chip":
        ChipModel(config, rate_range=(1, rmax[0]))
