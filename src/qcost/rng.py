"""Counter-based deterministic sampling.

Every random draw in the package is addressed by a (seed, index, purpose)
triple, so sample i can be produced without generating samples 0..i-1 and
independent streams never collide.  Streams are backed by the Philox
counter-based bit generator; normal variates use Box-Muller on the uniform
stream.  Determinism is per-build: the same interpreter and numpy version
reproduce bits exactly, other builds reproduce distributions only.
"""

from __future__ import annotations

import numpy as np

# Stream namespaces.  Keeping them disjoint means e.g. optimizer restarts
# never reuse the bits that generated the state under test.
PURPOSE_HAAR = 0
PURPOSE_GINIBRE = 1
PURPOSE_OPTIM = 2
PURPOSE_UNITARY = 3
PURPOSE_SCRIPT = 4
PURPOSE_SEEDED_ROWS = 5


def stream(seed: int, index: int, purpose: int) -> np.random.Generator:
    """Return the Philox stream addressed by (seed, index, purpose)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    counter = np.array([np.uint64(purpose), 0, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def normals(seed: int, index: int, n: int, purpose: int) -> np.ndarray:
    """n standard normal variates via Box-Muller on the uniform stream."""
    gen = stream(seed, index, purpose)
    pairs = (n + 1) // 2
    u = gen.random((2, pairs))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u in (0,1], avoids log(0)
    theta = 2.0 * np.pi * u[1]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:n]


def complex_normals(seed: int, index: int, n: int, purpose: int) -> np.ndarray:
    """n standard complex normal variates (unit total variance per entry)."""
    z = normals(seed, index, 2 * n, purpose)
    return (z[:n] + 1j * z[n:]) / np.sqrt(2.0)
