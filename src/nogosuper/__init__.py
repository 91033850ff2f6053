"""Superposition no-go toolkit: dependent states in, independent states out,
forbidden tasks unlocked. The package root re-exports nothing: each name is
imported from the module that defines it, so importing one module loads only
the modules under it."""

__version__ = "0.1.0"
