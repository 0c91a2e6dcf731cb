"""Reference implementations that pin optimised code paths in tests.

Each module here keeps a retired, straightforward implementation — the
Weighted Update NumPy kernel, the per-cell and per-combination
answering loops, the per-user and per-view collection loops, and the
per-query closure assembler — so differential tests can assert the
production replacement is equal to it, bitwise or within a stated
tolerance.  Nothing under ``src/`` imports these modules.
"""
