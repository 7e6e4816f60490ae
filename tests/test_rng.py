"""Random streams: the array Philox against numpy's, replication batches."""

from types import SimpleNamespace

import numpy as np
import pytest

from densel import harness
from densel.densities import PowerLaw
from densel.rng import RngStream, uniforms


def _numpy_draws(stream, n):
    return np.random.Generator(np.random.Philox(key=stream._key())).random(n)


def _streams():
    """211 (seed, rep, tag) triples: random ones, the largest and a
    negative seed, and the tags the package draws with."""
    gen = np.random.default_rng(2024)
    tags = ("data", "conc-p", "conc-u", "x", "")
    out = [RngStream(int(gen.integers(-2 ** 63, 2 ** 63)) * 3,
                     int(gen.integers(0, 2 ** 40)), tags[i % len(tags)])
           for i in range(205)]
    return out + [RngStream(2 ** 64 - 1, 0, "data"),
                  RngStream(2 ** 64 - 1, 7, "conc-p"),
                  RngStream(-1, 0, "data"), RngStream(-12345, 3, "conc-p"),
                  RngStream(0, 2 ** 64 - 1, "data"), RngStream(0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 99, 100, 101, 1000])
def test_uniforms_equal_numpy_philox(n):
    """Every row equals numpy's Philox stream on the same key, bit for
    bit, in batches of 64 streams whose last piece is short."""
    streams = _streams()
    for a in range(0, len(streams), 64):
        piece = streams[a:a + 64]
        got = uniforms(piece, n)
        assert got.shape == (len(piece), n) and got.dtype == np.float64
        assert np.array_equal(got, [_numpy_draws(s, n) for s in piece])


def test_sample_draws_numpy_philox_stream():
    stream = RngStream(9, 4, "data")
    want = np.sort(PowerLaw().quantile(_numpy_draws(stream, 37)))
    assert np.array_equal(PowerLaw().sample(37, stream).points, want)


def test_replication_batches_keep_every_stream(monkeypatch):
    """Batches of 7 replications over 20, the last one short, give every
    replication the sample of its own stream."""
    n, seed = 13, 5
    monkeypatch.setattr(harness, "CHUNK_BYTES", 8 * n * 7 + 1)
    sizes = []
    monkeypatch.setattr(harness, "uniforms", lambda streams, m: (
        sizes.append(len(streams)) or uniforms(streams, m)))
    lab = SimpleNamespace(n=n, density=PowerLaw(),
                          evaluate=lambda sample: sample.points)
    got = harness._run_reps(lab, lambda points: points, seed, 20, 1)
    assert sizes == [7, 7, 6]
    for rep, points in enumerate(got):
        want = np.sort(PowerLaw().quantile(
            _numpy_draws(RngStream(seed, rep, "data"), n)))
        assert np.array_equal(points, want), rep
