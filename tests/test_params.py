import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgflow import Architecture, ParamVector
from mgflow.manifold import _unit_rows


class TestParamCount:
    def test_examples(self):
        assert Architecture((1, 1, 1)).param_count == 4
        assert Architecture((1, 8, 1)).param_count == 25
        assert Architecture((2, 3, 3, 1)).param_count == 25

    def test_rejects_short_and_empty_layers(self):
        with pytest.raises(ValueError):
            Architecture((1, 1))
        with pytest.raises(ValueError):
            Architecture((1, 0, 1))

    def test_rejects_non_integral_widths(self):
        # floats were truncated (8.7 -> 8), booleans and numeric text read as widths
        for dims in ((1, 8.7, 1), (1, 8.0, 1), (1, True, 1), (1, np.True_, 1), ("1", "8", "1"), "181"):
            with pytest.raises(ValueError, match="integers"):
                Architecture(dims)
        arch = Architecture((np.int64(1), np.int32(8), np.uint8(1)))
        assert arch.layer_dims == (1, 8, 1) and all(type(d) is int for d in arch.layer_dims)


class TestIndexMaps:
    # the 0-based flat positions of `subvector_rows` (and of its range-checked
    # copy `neuron_indices(k, i)`): row i - 1 of layer k holds neuron (k, i)'s
    # weights j = 1..l_{k-1}, then its bias
    def test_tiny_network_layout(self):
        arch = Architecture((1, 1, 1))
        np.testing.assert_array_equal(arch.subvector_rows[0], [[0, 1]])
        np.testing.assert_array_equal(arch.subvector_rows[1], [[2, 3]])

    def test_bias_offset_includes_weight_block(self):
        arch = Architecture((1, 2, 1))
        np.testing.assert_array_equal(arch.subvector_rows[0][1], [1, 3])
        np.testing.assert_array_equal(arch.neuron_indices(1, 2), [1, 3])

    def test_flat_position_matches_enumeration(self):
        # brute force: walk layer blocks in storage order and compare
        arch = Architecture((2, 3, 1))
        pos = 0
        for k in range(1, arch.depth + 1):
            n_in = arch.layer_dims[k - 1]
            for i in range(1, arch.layer_dims[k] + 1):
                for j in range(1, n_in + 1):
                    assert arch.subvector_rows[k - 1][i - 1, j - 1] == pos
                    pos += 1
            for i in range(1, arch.layer_dims[k] + 1):
                assert arch.subvector_rows[k - 1][i - 1, n_in] == pos
                pos += 1
        assert arch.subvector_rows[1][0, 1] == 10

    def test_out_of_range_rejected(self):
        arch = Architecture((1, 2, 1))
        for k, i in ((0, 1), (3, 1), (2, 2)):
            with pytest.raises(ValueError):
                arch.neuron_indices(k, i)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_index_maps_are_a_bijection(self, dims):
        arch = Architecture(tuple(dims))
        seen = np.concatenate([rows.ravel() for rows in arch.subvector_rows])
        np.testing.assert_array_equal(np.sort(seen), np.arange(arch.param_count))


class TestSubvectors:
    def test_reads_match_layout(self):
        arch = Architecture((1, 1, 1))
        theta = ParamVector(arch, np.array([3.0, 4.0, 2.0, 5.0]))
        np.testing.assert_array_equal(theta.values[arch.subvector_rows[0][0]], [3.0, 4.0])
        np.testing.assert_array_equal(theta.values[arch.subvector_rows[1][0]], [2.0, 5.0])

    def test_second_hidden_neuron(self):
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch, np.array([1.0, 0.0, 0.0, 1.0, 5.0, 6.0, 7.0]))
        np.testing.assert_array_equal(theta.values[arch.subvector_rows[0][1]], [0.0, 1.0])

    def test_set_get_round_trip(self):
        rng = np.random.default_rng(0)
        arch = Architecture((2, 3, 2, 1))
        theta = ParamVector(arch, rng.standard_normal(arch.param_count))
        # every hidden neuron (k, i), then the output neuron (L, 1)
        keys = [(k, i) for k in range(1, arch.depth) for i in range(1, arch.layer_dims[k] + 1)]
        for k, i in keys + [(arch.depth, 1)]:
            sub = rng.standard_normal(arch.layer_dims[k - 1] + 1)
            theta.values[arch.neuron_indices(k, i)] = sub
            np.testing.assert_array_equal(theta.values[arch.subvector_rows[k - 1][i - 1]], sub)

    def test_psi_touches_exactly_fan_in_plus_one_coordinates(self):
        rng = np.random.default_rng(1)
        arch = Architecture((3, 4, 2))
        theta = ParamVector(arch, rng.standard_normal(arch.param_count))
        for k, rows in enumerate(arch.subvector_rows[:-1], start=1):
            psi = _unit_rows(theta.values[rows])[2]  # |V|^2 per hidden row
            for idx, value in zip(rows, psi, strict=True):
                assert idx.size == arch.layer_dims[k - 1] + 1
                assert np.isclose(value, np.sum(theta.values[idx] ** 2))

    def test_out_of_range_neuron_rejected(self):
        arch = Architecture((1, 2, 1))
        for k, i in ((1, 3), (1, 0)):
            with pytest.raises(ValueError):
                arch.neuron_indices(k, i)

    def test_wrong_length_vector_rejected(self):
        with pytest.raises(ValueError):
            ParamVector(Architecture((1, 1, 1)), np.zeros(5))


class TestLayerTable:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_layer_views_alias_values_at_the_block_offsets(self, dims, seed):
        arch = Architecture(tuple(dims))
        blocks = [dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims))]
        assert arch.depth == len(dims) - 1 and arch.param_count == sum(blocks)
        theta = ParamVector(arch, np.random.default_rng(seed).standard_normal(arch.param_count))
        for k in range(1, arch.depth + 1):
            off, n_out, n_in = sum(blocks[: k - 1]), dims[k], dims[k - 1]
            W, b = theta.weights(k), theta.biases(k)
            assert arch.layer(k)[0].start == off
            assert W.shape == (n_out, n_in) and b.shape == (n_out,)
            np.testing.assert_array_equal(W.ravel(), theta.values[off : off + n_out * n_in])
            np.testing.assert_array_equal(b, theta.values[off + n_out * n_in : off + n_out * (n_in + 1)])
            W[...], b[...] = k, -k  # writable views: the writes land in `values`
            rows = np.column_stack((off + np.arange(n_out * n_in).reshape(n_out, n_in),
                                    off + n_out * n_in + np.arange(n_out)))
            np.testing.assert_array_equal(arch.subvector_rows[k - 1], rows)
        expected = np.concatenate([np.r_[np.full(dims[k] * dims[k - 1], k), np.full(dims[k], -k)]
                                   for k in range(1, arch.depth + 1)])
        np.testing.assert_array_equal(theta.values, expected)

    def test_out_of_range_layers_and_wrong_lengths_rejected(self):
        arch = Architecture((2, 3, 1))
        theta = ParamVector(arch)
        for k in (0, arch.depth + 1):
            for accessor in (theta.weights, theta.biases, arch.layer):
                with pytest.raises(ValueError):
                    accessor(k)
        for n in (arch.param_count - 1, arch.param_count + 1):
            with pytest.raises(ValueError):
                ParamVector(arch, np.zeros(n))
