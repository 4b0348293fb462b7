"""Shared generators for the test suite (independent of package internals)."""

from __future__ import annotations

import numpy as np

from enscribe import make_text
from enscribe.errors import EnscribeError

MAX_DRAWS = 1000


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_text(rng, n, d):
    """Random text of n states in C^d; re-draws rejected texts, re-raising after MAX_DRAWS."""
    for draw in range(MAX_DRAWS):
        try:
            return make_text(d, [random_state(rng, d) for _ in range(n)])
        except EnscribeError:
            if draw == MAX_DRAWS - 1:
                raise


def random_classical_text(rng, n, d):
    u = random_unitary(rng, d)
    return make_text(d, [u[:, i] for i in range(n)])
