"""Exact-arithmetic toolkit for Fibonacci/Lucas polynomial identities.

Polynomial identities P(F_0(x), ..., F_n(x)) = const (and the Lucas
analogue) correspond to kernel elements of certain locally nilpotent
derivations of the generator ring Q[x_0, ..., x_n].  This package
builds those derivations, constructs kernel elements two independent
ways, builds the Appell-to-Lucas and Appell-to-Fibonacci intertwining
maps three independent ways, and machine-verifies everything with
exact rational arithmetic end to end.
"""

__version__ = "0.1.0"
