"""Reflection presentations, affine matrix models, braid isomorphisms
and Hecke-algebra deformations for the infinite families of
crystallographic complex reflection groups.

Each name has one home, in a submodule such as ``crysref.presentations``,
``crysref.affine``, ``crysref.prover``, ``crysref.isomorphisms`` or
``crysref.hecke``; import it from there."""

__version__ = "0.1.0"
