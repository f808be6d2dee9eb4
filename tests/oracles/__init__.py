"""Reference implementations the property suites compare production code to.

Each oracle is the plain, step-by-step form of an operation whose
production implementation in ``src/`` takes a faster route to the same
result.  They live here, not beside the code they check, so ``src/`` holds
one implementation per operation.
"""
