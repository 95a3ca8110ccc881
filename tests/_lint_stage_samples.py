"""Stage-function specimens for the purity checker tests.

These live in a real module (not a test body or REPL) because
:func:`repro.lint.purity.check_stage_purity` needs ``inspect`` to find
their source.  Each function exhibits exactly one hazard class — or
none — so the tests can assert rule ids precisely.
"""

import os
import random
import time

import numpy as np

_SCRATCH: dict = {}


def draws_random(ctx):
    """PURE-002: unseeded module-level randomness."""
    return random.random()


def reads_clock(ctx):
    """PURE-001: wall-clock read folds time into the result."""
    return time.time()


def reads_env(ctx):
    """PURE-003: environment read invisible to the cache key."""
    return os.environ.get("HOME", "")


def mutates_global(ctx):
    """PURE-004: writes into captured module state."""
    _SCRATCH["last"] = ctx
    return len(_SCRATCH)


def seeded_rng(ctx):
    """Clean: explicitly seeded generators are reproducible."""
    rng = np.random.default_rng(ctx["options"].seed)
    return float(rng.random())
