"""Random streams: the array Philox against numpy's, replication batches."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from densel import conclab, harness, rng
from densel.densities import PowerLaw
from densel.models import fourier_model, regular_histogram
from densel.rng import RngStream, uniforms
from oracles import generator


def _numpy_draws(stream, n, start=0):
    """Uniforms start .. start + n - 1 of numpy's Philox on the stream."""
    return generator(stream).random(start + n)[start:]


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


_PIECE = 4 * rng.PIECE_BLOCKS                   # uniforms in a full piece


@pytest.mark.parametrize("start", [0, 1, 2, 3, 5, _PIECE - 1, _PIECE + 6])
@pytest.mark.parametrize("n", [1, 3, 4, 7, _PIECE + 5])
def test_uniforms_run_from_any_start(start, n):
    """A run may start at any uniform, not only at a block's first; the
    runs that cross the boundary between two pieces keep every bit."""
    streams = [RngStream(3, 1, "conc-p"), RngStream(-7, 0, "data")]
    got = uniforms(streams, n, start)
    assert np.array_equal(got, [_numpy_draws(s, n, start) for s in streams])


@pytest.mark.parametrize("piece", [1, 2, 3, 5, 64])
def test_uniforms_in_small_pieces(monkeypatch, piece):
    """Pieces of a few (stream, block) pairs, cut across streams and
    across blocks, change no bit of any run or batch."""
    monkeypatch.setattr(rng, "PIECE_BLOCKS", piece)
    streams = _streams()[:11]
    for start, n in ((0, 1), (2, 9), (3, 40), (8, 25), (13, 2)):
        got = uniforms(streams, n, start)
        assert np.array_equal(got,
                              [_numpy_draws(s, n, start) for s in streams])


def test_uniforms_memory_of_a_million_draws():
    """One call of 10^6 uniforms holds its output and a fixed scratch of
    PIECE_BLOCKS (stream, block) pairs (twelve words each, and a piece's
    counters), never a per-draw word array."""
    stream = RngStream(11, 0, "conc-u")
    uniforms([stream], 10)                      # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        uniforms([stream], 10 ** 6, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10 ** 6 + 13 * 8 * rng.PIECE_BLOCKS + 64 * 1024


@pytest.mark.parametrize("model", [regular_histogram(5), fourier_model(2)],
                         ids=["reg-hist:d=5", "fourier:j=2"])
def test_conclab_draws_equal_numpy_stream(monkeypatch, model):
    """The chunks of a concentration run draw, in order, the one stream
    of numpy's generator on the check's key; chunks of 7 replications of
    n = 13 start at uniforms that are not multiples of 4."""
    n, reps = 13, 40
    monkeypatch.setattr(conclab, "CHUNK_BYTES", 8 * (8 * n + 4 * model.dim) * 7)
    drawn = []
    monkeypatch.setattr(conclab, "uniforms", lambda streams, m, start: (
        drawn.append(uniforms(streams, m, start)) or drawn[-1]))
    stream = RngStream(21, 3, "conc-p")
    conclab.simulate_model_statistics(model, PowerLaw(), n, reps, stream)
    assert [d.size for d in drawn] == [7 * n] * 5 + [5 * n]
    assert np.array_equal(np.concatenate(drawn, axis=1)[0],
                          _numpy_draws(stream, reps * n))
