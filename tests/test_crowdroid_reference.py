"""The stdlib Crowdroid monitor against the numpy formulation it replaced.

numpy is a test-only dependency: this reference check is skipped where it
is not installed.
"""

import random

import pytest

from repro.baselines.crowdroid import VECTOR_FIELDS, CrowdroidMonitor, SyscallVector

np = pytest.importorskip("numpy")


def _vector(rng, index):
    return SyscallVector(f"app{index}", *(rng.randrange(0, 40) for _ in VECTOR_FIELDS))


def test_distances_and_cutoff_match_numpy():
    rng = random.Random(3)
    benign = [_vector(rng, i) for i in range(25)]
    probes = [_vector(rng, 100 + i) for i in range(25)]
    monitor = CrowdroidMonitor(threshold_sigmas=2.0)
    monitor.fit(benign)

    matrix = np.array([v.as_array() for v in benign], dtype=float)
    centroid = matrix.mean(axis=0)
    scale = matrix.std(axis=0)
    scale[scale == 0.0] = 1.0
    distances = np.linalg.norm((matrix - centroid) / scale, axis=1)
    cutoff = distances.mean() + 2.0 * max(distances.std(), 1e-9)

    assert monitor._cutoff == pytest.approx(cutoff, rel=1e-12)
    for vector in benign + probes:
        expected = np.linalg.norm((np.array(vector.as_array()) - centroid) / scale)
        assert monitor.distance(vector) == pytest.approx(float(expected), rel=1e-12)
