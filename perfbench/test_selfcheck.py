"""The benchmark's own test: every workload at a small size, both run modes.

Run with ``python -m pytest perfbench`` from the root of the checkout.  It
asserts that every declared metric is present with a well-formed name, that
every known-answer check ran and passed, and that the cli known-defect
probes ran.
"""

import run


def test_selfcheck():
    assert run.main(["--selfcheck"]) == 0
