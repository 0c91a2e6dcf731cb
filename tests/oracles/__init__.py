"""Reference implementations that pin optimised kernels in tests.

Each module here keeps a retired, straightforward implementation of a
hot kernel verbatim, so differential tests can assert the optimised
replacement is bitwise equal to it.  Nothing under ``src/`` imports
these modules.
"""
