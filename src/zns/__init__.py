"""Pseudo-spectral 2D Navier-Stokes solver on the periodic beta-plane.

The package simulates the vorticity equation

    dw/dt + B(w, w) + (1/eps) L w + mu A w = f

on a doubly periodic rectangle with the odd-in-y symmetry, and ships a
verification harness for the two headline phenomena of the strongly
rotating regime: attenuation of the non-zonal flow component as eps -> 0,
and collapse of the long-time dynamics onto a single steady state.
"""

__version__ = "0.1.0"
