"""Positional encodings and structural features."""

import numpy as np
import pytest

from repro.datasets.features import laplacian_pe
from repro.errors import GraphError
from repro.graph.generators import circular_skip_link, ring_graph


class TestLaplacianPE:
    def test_shape(self, ring12):
        pe = laplacian_pe(ring12, 4)
        assert pe.shape == (12, 4)

    def test_pads_when_k_exceeds_n(self):
        g = ring_graph(3)
        pe = laplacian_pe(g, 8)
        assert pe.shape == (3, 8)
        assert np.allclose(pe[:, 2:], 0.0)

    def test_separates_csl_classes(self):
        """PEs must carry the information WL cannot: the skip length."""
        a = laplacian_pe(circular_skip_link(41, 2), 8)
        b = laplacian_pe(circular_skip_link(41, 3), 8)
        # Compare spectra through column norms of |PE| sorted.
        sig_a = np.sort(np.abs(a).sum(axis=0))
        sig_b = np.sort(np.abs(b).sum(axis=0))
        assert not np.allclose(sig_a, sig_b, atol=1e-3)

    def test_sign_randomisation(self, ring12):
        a = laplacian_pe(ring12, 4, rng=np.random.default_rng(0))
        b = laplacian_pe(ring12, 4, rng=np.random.default_rng(1))
        assert not np.allclose(a, b)
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-9)

    def test_invalid_k(self, ring12):
        with pytest.raises(GraphError):
            laplacian_pe(ring12, 0)

