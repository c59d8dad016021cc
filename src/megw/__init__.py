"""megw: mobile-edge gateway toolkit.

Modules:

- ``megw.gtp``       GTPv1-U wire codec and frame classification
- ``megw.s1ap``      compact control-message wire format
- ``megw.hrw``       weighted rendezvous hashing, for steering and the sim
- ``megw.steering``  two-stage consistent-hash steering data plane
- ``megw.control``   control-plane processor (TEID reconstruction, handovers)
- ``megw.harness``   in-process virtual fabric replaying attach/handover flows
- ``megw.sim``       flow-level regional mobility simulator
- ``megw.shape``     one shape check for every JSON document read
- ``megw.cli``       command-line front end
"""

__version__ = "0.1.0"
