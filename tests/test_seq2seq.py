"""Encoder-decoder model: composition against nn primitives, beam search
against exhaustive enumeration, greedy equivalence, checkpoint persistence."""

import json
import os
import re
import threading
from dataclasses import asdict
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast import nn, seq2seq
from gridcast.ogm import GridSpec
from gridcast.seq2seq import (
    CheckpointError,
    ModelConfig,
    beam_search_decode,
    decode_step,
    decoder_initial_state,
    encode,
    greedy_decode,
    init_model_params,
    load_checkpoint,
    predict_scene,
    save_checkpoint,
)


def tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=3, seed=0, beam_width=4, randomize=True):
    config = ModelConfig(
        cell_dim=cell_dim, grid=GridSpec.custom(q_w, q_l), obs_len=obs_len, horizon=horizon, beam_width=beam_width
    )
    params = init_model_params(config, seed=seed)
    if randomize:
        # break the zero-bias init symmetry so tiny models have no dead layers
        rng = np.random.default_rng(seed + 7777)
        for _, a in params.param_items():
            a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    return config, params


def replay_log_prob(params, summary, sequence):
    """Teacher-forced replay of a token sequence through the inference
    product, accumulating that path's per-step log probabilities in decode
    order."""
    state = decoder_initial_state(params, summary)
    u = seq2seq.start_input(params, 1)
    log_prob = 0.0
    for q in sequence:
        logits, state, _ = seq2seq.decode_core(params, state, u, False, row_exact=True)
        log_prob += float(nn.log_softmax(logits)[0, q - 1])
        u = seq2seq.embed_tokens(params, np.array([q]))
    return log_prob


class TestModelConfig:
    def test_default_matches_published_architecture(self):
        c = ModelConfig()
        assert c.num_classes == 757
        assert c.embed_dim_per_axis == 128
        assert c.embed_cols_w == 37
        assert c.embed_cols_l == 22
        assert (c.cell_dim, c.fc_depth, c.lstm_stack_depth) == (256, 3, 2)
        assert (c.obs_len, c.horizon, c.beam_width) == (30, 10, 10)

    def test_embedding_halves_must_tile_cell(self):
        with pytest.raises(ValueError):
            ModelConfig(cell_dim=5)

    def test_param_shapes(self):
        config, params = tiny_model(cell_dim=6, q_w=5, q_l=2)
        assert params.enc_fc[0].weight.shape == (6, 6)
        assert params.enc_fc[2].weight.shape == (6, 6)
        assert params.dec_fc[-1].weight.shape == (config.num_classes, 6)
        assert params.embed_w.shape == (3, 6)
        assert params.embed_l.shape == (3, 3)
        for cell in params.enc_lstm + params.dec_lstm:
            assert cell.w_u.shape == (24, 6)
            assert cell.w_h.shape == (24, 6)


    def test_init_keeps_its_random_stream(self):
        config = ModelConfig(cell_dim=4, fc_depth=2, grid=GridSpec.custom(4, 3), obs_len=3, horizon=2)
        params = init_model_params(config, seed=17)
        # today's draw order: encoder dense, encoder LSTMs, decoder LSTMs,
        # decoder dense, then the two embedding matrices
        rng = np.random.default_rng(17)
        enc_fc = [nn.init_dense(rng, 4, 6), nn.init_dense(rng, 4, 4)]
        lstms = [nn.init_lstm(rng, 4, 4) for _ in range(4)]
        dec_fc = [nn.init_dense(rng, 4, 4), nn.init_dense(rng, config.num_classes, 4)]
        embed = [nn.glorot_uniform(rng, 2, 5), nn.glorot_uniform(rng, 2, 4)]
        expected = [a for p in enc_fc for a in (p.weight, p.bias)]
        expected += [a for p in lstms for a in (p.w_u, p.w_h, p.b)]
        expected += [a for p in dec_fc for a in (p.weight, p.bias)] + embed
        got = [a for _, a in params.param_items()]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestEncode:
    def test_zero_params_zero_summary(self):
        config, params = tiny_model(randomize=False)
        for _, a in params.param_items():
            a[...] = 0.0
        summary = encode(params, np.random.default_rng(0).standard_normal((3, 6)))
        for st in summary.states:
            assert np.all(st.c == 0) and np.all(st.h == 0)

    def test_matches_hand_chained_primitives(self):
        config, params = tiny_model(obs_len=2, seed=3)
        rng = np.random.default_rng(5)
        obs = rng.standard_normal((2, 6))
        summary = encode(params, obs)

        states = [nn.LstmState.zeros(1, config.cell_dim) for _ in range(2)]
        for t in range(2):
            u = (obs[t : t + 1] - params.feat_mean) / params.feat_std
            for fc in params.enc_fc:
                u, _ = nn.dense_forward_cached(fc, u, "relu", row_exact=True)
            for k, cell in enumerate(params.enc_lstm):
                states[k], _ = nn.lstm_forward(cell, u, states[k], row_exact=True)
                u = states[k].h
        for got, ref in zip(summary.states, states):
            assert np.array_equal(got.c, ref.c)
            assert np.array_equal(got.h, ref.h)

    def test_summary_is_one_row(self):
        config, params = tiny_model(obs_len=2, seed=3)
        summary = encode(params, np.random.default_rng(5).standard_normal((2, 6)))
        assert [(st.c.shape, st.h.shape) for st in summary.states] == [((1, 4), (1, 4))] * 2

    def test_order_sensitivity(self):
        config, params = tiny_model(obs_len=4, seed=9)
        rng = np.random.default_rng(9)
        obs = rng.standard_normal((4, 6))
        a = encode(params, obs)
        b = encode(params, obs[::-1].copy())
        assert not np.allclose(a.states[-1].h, b.states[-1].h)

    def test_wrong_length_rejected(self):
        config, params = tiny_model(obs_len=3)
        with pytest.raises(ValueError):
            encode(params, np.zeros((4, 6)))


def step_major_summary(params, windows):
    """The encoder one time step at a time through every layer, from the nn
    primitives with row-exact products: the reference the block encoder
    must reproduce bit for bit."""
    states = [nn.LstmState.zeros(len(windows), params.config.cell_dim) for _ in params.enc_lstm]
    for t in range(windows.shape[1]):
        u = (windows[:, t] - params.feat_mean) / params.feat_std
        for fc in params.enc_fc:
            u, _ = nn.dense_forward_cached(fc, u, "relu", row_exact=True)
        for k, cell in enumerate(params.enc_lstm):
            states[k], _ = nn.lstm_forward(cell, u, states[k], row_exact=True)
            u = states[k].h
    return states


def block_model(cell_dim, obs_len, seed):
    config = ModelConfig(cell_dim=cell_dim, grid=GridSpec.custom(4, 3), obs_len=obs_len, horizon=2)
    params = init_model_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    params.feat_mean[...] = rng.standard_normal(6)
    params.feat_std[...] = rng.uniform(0.5, 2.0, size=6)
    for cell in params.enc_lstm:
        cell.b[...] = rng.uniform(-0.5, 0.5, size=cell.b.shape)
    return params


class TestBlockEncoder:
    """The row-exact encoder runs layer by layer over blocks of at most
    ENCODE_BLOCK_ROWS rows. 9 windows give blocks of 28 steps (the last of
    2 at obs_len 30), 257 windows blocks of one step, 1 window one block."""

    def test_block_bound(self):
        assert seq2seq.ENCODE_BLOCK_ROWS == 256

    @pytest.mark.parametrize("windows", [1, 9, 10, 35, 257])
    @pytest.mark.parametrize("obs_len", [30, 1])
    @pytest.mark.parametrize("cell_dim", [128, 16])
    def test_summary_equals_step_major_reference(self, windows, obs_len, cell_dim):
        params = block_model(cell_dim, obs_len, seed=windows + obs_len + cell_dim)
        obs = np.random.default_rng(windows).standard_normal((windows, obs_len, 6)) * 3
        summary, tapes = seq2seq.encode_core(params, obs, with_tapes=False, row_exact=True)
        assert tapes is None
        for got, ref in zip(summary.states, step_major_summary(params, obs), strict=True):
            assert got.c.shape == (windows, cell_dim)
            assert np.array_equal(got.c, ref.c) and np.array_equal(got.h, ref.h)

    def test_one_window_equals_its_row_of_a_batch(self):
        params = block_model(128, 30, seed=35)
        windows = np.random.default_rng(35).standard_normal((35, 30, 6)) * 3
        (chunk,) = seq2seq._chunks(params, windows)
        for v in (0, 17, 34):
            alone = decoder_initial_state(params, encode(params, windows[v]))
            for a, b in zip(alone, chunk, strict=True):
                assert np.array_equal(a.c, b.c[v : v + 1]) and np.array_equal(a.h, b.h[v : v + 1])

    def test_tapes_need_the_training_product(self):
        params = block_model(16, 3, seed=1)
        with pytest.raises(ValueError, match="no tapes"):
            seq2seq.encode_core(params, np.zeros((2, 3, 6)), with_tapes=True, row_exact=True)


class TestDecodeStep:
    def test_probability_contract(self):
        config, params = tiny_model(seed=2)
        summary = encode(params, np.random.default_rng(2).standard_normal((3, 6)))
        state = decoder_initial_state(params, summary)
        probs, state = decode_step(params, state, None)
        assert probs.shape == (config.num_classes,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0)

    def test_out_of_map_selects_last_embedding_columns(self):
        config, params = tiny_model(seed=4)
        u = seq2seq.embed_tokens(params, np.array([config.out_of_map_class]))
        half = config.embed_dim_per_axis
        assert np.array_equal(u[0, :half], params.embed_w[:, config.grid.q_w])
        assert np.array_equal(u[0, half:], params.embed_l[:, config.grid.q_l])

    def test_token_column_mapping(self):
        config, _ = tiny_model(q_w=4, q_l=3)
        wc, lc = seq2seq.token_embed_columns(np.array([1, 3, 4, 12, 13]), config)
        # q=(w-1)*q_l + l: q=1 -> (1,1); q=3 -> (1,3); q=4 -> (2,1); q=12 -> (4,3)
        assert list(wc) == [0, 0, 1, 3, 4]
        assert list(lc) == [0, 2, 0, 2, 3]

    def test_invalid_token_rejected(self):
        config, params = tiny_model()
        with pytest.raises(ValueError):
            seq2seq.embed_tokens(params, np.array([config.num_classes + 1]))

    def test_matches_recomposition_of_primitives(self):
        config, params = tiny_model(seed=6)
        summary = encode(params, np.random.default_rng(6).standard_normal((3, 6)))
        state = decoder_initial_state(params, summary)
        probs, _ = decode_step(params, state, 5)

        u = np.concatenate([params.embed_w[:, (5 - 1) // config.grid.q_l], params.embed_l[:, (5 - 1) % config.grid.q_l]])[None]
        st = list(state)
        for k, cell in enumerate(params.dec_lstm):
            st[k], _ = nn.lstm_forward(cell, u, st[k])
            u = st[k].h
        for k, fc in enumerate(params.dec_fc):
            u, _ = nn.dense_forward_cached(fc, u, "none" if k == len(params.dec_fc) - 1 else "relu")
        assert np.array_equal(probs, nn.softmax(u)[0])

    def test_decoder_initial_state_copies_cells(self):
        config, params = tiny_model(seed=8)
        summary = encode(params, np.random.default_rng(8).standard_normal((3, 6)))
        init = decoder_initial_state(params, summary)
        for k in range(len(init)):
            assert np.array_equal(init[k].c, summary.states[k].c)
            assert np.array_equal(init[k].h, summary.states[k].h)  # copy_hidden_state default

    def test_zero_hidden_variant(self):
        config = ModelConfig(cell_dim=4, grid=GridSpec.custom(4, 3), obs_len=3, horizon=3, copy_hidden_state=False)
        params = init_model_params(config, seed=0)
        summary = encode(params, np.random.default_rng(1).standard_normal((3, 6)))
        init = decoder_initial_state(params, summary)
        for k in range(len(init)):
            assert np.array_equal(init[k].c, summary.states[k].c)
            assert np.all(init[k].h == 0)


class TestBeamSearch:
    def test_greedy_equals_beam_one_over_random_models(self):
        for seed in range(100):
            config, params = tiny_model(cell_dim=4, obs_len=2, horizon=3, seed=seed)
            obs = np.random.default_rng(seed).standard_normal((2, 6))
            summary = encode(params, obs)
            g = greedy_decode(params, summary)
            b = beam_search_decode(params, summary, beam_width=1).hypotheses[0]
            assert g.sequence == b.sequence
            assert g.log_prob == b.log_prob  # bit-identical

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_non_positive_horizon_rejected(self, horizon):
        config, params = tiny_model(obs_len=2)
        summary = encode(params, np.zeros((2, 6)))
        for decode in (greedy_decode, beam_search_decode):
            with pytest.raises(ValueError, match="beam width and horizon must be >= 1"):
                decode(params, summary, horizon=horizon)

    def test_constant_distribution_hand_example(self):
        # constant logits ln(0.6, 0.3, 0.1): P(1,1)=0.36 top; (1,2) and (2,1)
        # tie at 0.18 and the lower final class id must win
        config, params = tiny_model(cell_dim=4, q_w=3, q_l=1, obs_len=2, horizon=2, randomize=False)
        for _, a in params.param_items():
            a[...] = 0.0
        probs = np.array([0.6, 0.3, 0.1, 1e-300])
        params.dec_fc[-1].bias[...] = np.log(probs)
        summary = encode(params, np.zeros((2, 6)))
        result = beam_search_decode(params, summary, beam_width=2, horizon=2)
        assert [h.sequence for h in result.hypotheses] == [[1, 1], [2, 1]]
        lp = nn.log_softmax(np.log(probs))
        assert result.hypotheses[0].log_prob == pytest.approx(2 * lp[0], abs=1e-12)
        assert result.hypotheses[1].log_prob == pytest.approx(lp[1] + lp[0], abs=1e-12)

    def test_two_step_enumeration_arithmetic(self):
        # step-dependent distributions enumerated by hand: step 1 (0.6,0.3,0.1),
        # step 2 (0.7,0.2,0.1): best two of the 9 sequences are (1,1) with
        # p=0.42 and (2,1) with p=0.21
        p1 = {1: 0.6, 2: 0.3, 3: 0.1}
        p2 = {1: 0.7, 2: 0.2, 3: 0.1}
        scored = sorted(
            (((a, b), p1[a] * p2[b]) for a in p1 for b in p2),
            key=lambda item: -item[1],
        )
        assert scored[0] == ((1, 1), pytest.approx(0.42))
        assert scored[1] == ((2, 1), pytest.approx(0.21))

    def test_matches_exhaustive_enumeration(self):
        config, params = tiny_model(cell_dim=4, q_w=3, q_l=1, obs_len=3, horizon=3, seed=5, beam_width=64)
        summary = encode(params, np.random.default_rng(5).standard_normal((3, 6)))
        result = beam_search_decode(params, summary, beam_width=64, horizon=3)

        scored = [
            (list(seq), replay_log_prob(params, summary, seq))
            for seq in product(range(1, config.num_classes + 1), repeat=3)
        ]
        scored.sort(key=lambda item: -item[1])
        assert [h.sequence for h in result.hypotheses] == [s for s, _ in scored]
        # the beam's hypothesis rows have the bits of the one-row replay
        assert [h.log_prob for h in result.hypotheses] == [lp for _, lp in scored]

    def test_log_prob_replay_consistency(self):
        config, params = tiny_model(cell_dim=6, q_w=5, q_l=2, obs_len=3, horizon=4, seed=11, beam_width=5)
        summary = encode(params, np.random.default_rng(11).standard_normal((3, 6)))
        for hyp in beam_search_decode(params, summary).hypotheses:
            assert hyp.log_prob == pytest.approx(replay_log_prob(params, summary, hyp.sequence), abs=1e-9)

    def test_sorted_strictly_descending(self):
        config, params = tiny_model(seed=13, beam_width=6, horizon=4)
        summary = encode(params, np.random.default_rng(13).standard_normal((3, 6)))
        hyps = beam_search_decode(params, summary).hypotheses
        assert len(hyps) == 6
        assert all(len(h.sequence) == 4 for h in hyps)
        lps = [h.log_prob for h in hyps]
        assert all(a >= b for a, b in zip(lps, lps[1:]))
        assert all(lp <= 0 for lp in lps)

    def test_probability_maps_collected(self):
        config, params = tiny_model(seed=14, beam_width=3, horizon=3)
        summary = encode(params, np.random.default_rng(14).standard_normal((3, 6)))
        result = beam_search_decode(params, summary, collect_probability_maps=True)
        assert len(result.probability_maps) == 3
        assert result.probability_maps[0].shape == (1, config.num_classes)
        for maps in result.probability_maps[1:]:
            assert maps.shape == (3, config.num_classes)
            assert np.allclose(maps.sum(axis=1), 1.0, atol=1e-9)

    def test_out_of_map_is_not_absorbing(self):
        # feeding the out-of-map token back is legal and decoding continues
        config, params = tiny_model(seed=15)
        summary = encode(params, np.random.default_rng(15).standard_normal((3, 6)))
        state = decoder_initial_state(params, summary)
        probs, state = decode_step(params, state, config.out_of_map_class)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_summary_of_several_vehicles_rejected(self):
        # one vehicle per call: a batched summary is predict_scene's input
        config, params = tiny_model(seed=17)
        summary, _ = seq2seq.encode_core(params, np.zeros((2, 3, 6)), with_tapes=False)
        with pytest.raises(nn.ShapeError, match="2 rows"):
            beam_search_decode(params, summary)
        with pytest.raises(nn.ShapeError, match="2 rows"):
            greedy_decode(params, summary)

    def test_deterministic_across_runs(self):
        config, params = tiny_model(seed=16)
        obs = np.random.default_rng(16).standard_normal((3, 6))
        a = beam_search_decode(params, encode(params, obs))
        b = beam_search_decode(params, encode(params, obs))
        assert [h.sequence for h in a.hypotheses] == [h.sequence for h in b.hypotheses]
        assert [h.log_prob for h in a.hypotheses] == [h.log_prob for h in b.hypotheses]


class TestPredictScene:
    def test_single_vehicle_equals_direct(self):
        config, params = tiny_model(seed=20)
        obs = np.random.default_rng(20).standard_normal((3, 6))
        scene = predict_scene(params, [obs])
        direct = beam_search_decode(params, encode(params, obs))
        assert [h.sequence for h in scene[0].hypotheses] == [h.sequence for h in direct.hypotheses]

    def test_identical_inputs_identical_outputs(self):
        config, params = tiny_model(seed=21)
        obs = np.random.default_rng(21).standard_normal((3, 6))
        scene = predict_scene(params, [obs, obs, obs])
        seqs = [[h.sequence for h in pred.hypotheses] for pred in scene]
        assert seqs[0] == seqs[1] == seqs[2]

    def test_order_invariance_up_to_permutation(self):
        config, params = tiny_model(seed=22)
        rng = np.random.default_rng(22)
        a, b = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        fwd = predict_scene(params, [a, b])
        rev = predict_scene(params, [b, a])
        assert [h.sequence for h in fwd[0].hypotheses] == [h.sequence for h in rev[1].hypotheses]
        assert [h.sequence for h in fwd[1].hypotheses] == [h.sequence for h in rev[0].hypotheses]

    def test_error_names_vehicle(self):
        config, params = tiny_model(obs_len=3)
        with pytest.raises(ValueError, match="vehicle 1"):
            predict_scene(params, [np.zeros((3, 6)), np.zeros((2, 6))])

    def test_empty_scene_rejected(self):
        config, params = tiny_model()
        with pytest.raises(ValueError):
            predict_scene(params, [])

    def test_non_finite_window_names_vehicle_and_frame(self):
        config, params = tiny_model(obs_len=3)
        bad = np.zeros((3, 6))
        bad[1, 4] = np.nan
        with pytest.raises(ValueError, match="vehicle 2: non-finite observation in frame 1"):
            predict_scene(params, [np.zeros((3, 6)), np.zeros((3, 6)), bad])

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        q_w=st.integers(1, 3),
        q_l=st.integers(1, 3),
        horizon=st.integers(1, 3),
        vehicles=st.integers(1, 7),
        chunk=st.integers(1, 3),
        beam_width=st.integers(1, 12),
        constant_logits=st.booleans(),
    )
    def test_batched_equals_per_vehicle_beam(
        self, seed, q_w, q_l, horizon, vehicles, chunk, beam_width, constant_logits
    ):
        # chunks smaller than the scene, beams wider than the class count,
        # and all-tied constant logits all decode as the single-vehicle beam
        config, params = tiny_model(q_w=q_w, q_l=q_l, obs_len=2, horizon=horizon, seed=seed)
        if constant_logits:
            params.dec_fc[-1].weight[...] = 0.0
            params.dec_fc[-1].bias[...] = 0.0
        rng = np.random.default_rng(seed)
        scene = [rng.standard_normal((2, 6)) for _ in range(vehicles)]
        with mock.patch.object(seq2seq, "DECODE_CHUNK", chunk):
            batched = predict_scene(params, scene, beam_width=beam_width)
        assert len(batched) == vehicles
        for obs, pred in zip(scene, batched):
            single = beam_search_decode(params, encode(params, obs), beam_width=beam_width)
            assert len(pred.hypotheses) == min(beam_width, config.num_classes**horizon)
            assert [h.sequence for h in pred.hypotheses] == [h.sequence for h in single.hypotheses]
            assert [h.log_prob for h in pred.hypotheses] == [h.log_prob for h in single.hypotheses]

    def test_cell_64_scene_equals_one_vehicle_beams(self):
        params = cell_64_scene_model()
        scene = cell_64_scene()
        batched = predict_scene(params, scene)
        for n, (obs, pred) in enumerate(zip(scene, batched)):
            single = beam_search_decode(params, encode(params, obs))
            assert [(h.sequence, h.log_prob) for h in pred.hypotheses] == [
                (h.sequence, h.log_prob) for h in single.hypotheses
            ], f"vehicle {n}"


def cell_64_scene_model():
    """A cell-64 model on the default 757-class grid: its 64 -> 64 and
    64 -> 256 products are the narrow layers whose rows need the padded
    width's 128 minimum to keep their bits in a batch."""
    return init_model_params(ModelConfig(cell_dim=64, obs_len=30, horizon=10), seed=8)


def cell_64_scene():
    """70 windows: one full DECODE_CHUNK of 64 rows and a chunk of 6. With
    the width padded to a multiple of 4 only, 2 of these vehicles' greedy
    log_probs and 6 of their beams lose their bits (seed 8 model)."""
    rng = np.random.default_rng(8)
    return [rng.standard_normal((30, 6)) for _ in range(70)]


def per_vehicle_greedy(params, scene, horizon=None):
    return [greedy_decode(params, encode(params, obs), horizon) for obs in scene]


class TestGreedyScene:
    """greedy_scene decodes a scene as rows; each vehicle's hypothesis must
    equal its own greedy_decode bit for bit (sequence and log_prob ==)."""

    def test_one_vehicle_one_step(self):
        config, params = tiny_model(seed=40)
        scene = [np.random.default_rng(40).standard_normal((3, 6))]
        assert seq2seq.greedy_scene(params, scene, horizon=1) == per_vehicle_greedy(params, scene, horizon=1)

    def test_ties_pick_the_lowest_class_id(self):
        # constant logits ln(0.1, 0.4, 0.4, 0.1): classes 2 and 3 tie at every step
        config, params = tiny_model(cell_dim=4, q_w=3, q_l=1, obs_len=2, horizon=3, randomize=False)
        for _, a in params.param_items():
            a[...] = 0.0
        params.dec_fc[-1].bias[...] = np.log([0.1, 0.4, 0.4, 0.1])
        scene = [np.random.default_rng(n).standard_normal((2, 6)) for n in range(3)]
        got = seq2seq.greedy_scene(params, scene)
        assert [h.sequence for h in got] == [[2, 2, 2]] * 3
        assert got == per_vehicle_greedy(params, scene)

    def test_scene_above_the_chunk_size(self):
        config, params = tiny_model(seed=41, horizon=4)
        rng = np.random.default_rng(41)
        scene = [rng.standard_normal((3, 6)) for _ in range(7)]
        with mock.patch.object(seq2seq, "DECODE_CHUNK", 3):
            got = seq2seq.greedy_scene(params, scene)
        assert got == per_vehicle_greedy(params, scene)

    def test_error_names_vehicle(self):
        config, params = tiny_model(obs_len=3)
        with pytest.raises(ValueError, match="vehicle 1"):
            seq2seq.greedy_scene(params, [np.zeros((3, 6)), np.zeros((2, 6))])
        with pytest.raises(ValueError):
            seq2seq.greedy_scene(params, [])

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        q_w=st.integers(1, 3),
        q_l=st.integers(1, 3),
        horizon=st.integers(1, 3),
        vehicles=st.integers(1, 7),
        chunk=st.integers(1, 3),
        constant_logits=st.booleans(),
    )
    def test_batched_equals_per_vehicle_greedy(self, seed, q_w, q_l, horizon, vehicles, chunk, constant_logits):
        config, params = tiny_model(q_w=q_w, q_l=q_l, obs_len=2, horizon=horizon, seed=seed)
        if constant_logits:
            params.dec_fc[-1].weight[...] = 0.0
            params.dec_fc[-1].bias[...] = 0.0
        rng = np.random.default_rng(seed)
        scene = [rng.standard_normal((2, 6)) for _ in range(vehicles)]
        with mock.patch.object(seq2seq, "DECODE_CHUNK", chunk):
            got = seq2seq.greedy_scene(params, scene)
        assert got == per_vehicle_greedy(params, scene)

    def test_cell_64_scene_equals_per_vehicle_greedy(self):
        params = cell_64_scene_model()
        scene = cell_64_scene()
        assert seq2seq.greedy_scene(params, scene) == per_vehicle_greedy(params, scene)


class TestSceneShards:
    """With nn.row_shards() at 2, predict_scene and greedy_scene decode the
    first half of the vehicles on the calling thread and the second half on
    one worker thread. The rule gives 1 when BLAS is not pinned, as in
    these tests, so they force it."""

    @staticmethod
    def record_encodes(monkeypatch):
        """Patch seq2seq.encode_core to log (thread name, rows) per call."""
        calls = []
        real = seq2seq.encode_core

        def wrapped(params, obs, *args, **kwargs):
            calls.append((threading.current_thread().name, len(obs)))
            return real(params, obs, *args, **kwargs)

        monkeypatch.setattr(seq2seq, "encode_core", wrapped)
        return calls

    @pytest.mark.parametrize("vehicles", [1, 2, 3, 17, 64, 65, 70, 129])
    def test_two_shards_equal_one(self, monkeypatch, vehicles):
        # 65 and 129 vehicles cross DECODE_CHUNK within a shard or the scene
        config, params = tiny_model(seed=50, horizon=4, beam_width=5)
        rng = np.random.default_rng(vehicles)
        scene = [rng.standard_normal((3, 6)) for _ in range(vehicles)]
        monkeypatch.setattr(nn, "row_shards", lambda: 1)
        beams, greedy = predict_scene(params, scene), seq2seq.greedy_scene(params, scene)
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        calls = self.record_encodes(monkeypatch)
        threads_before = threading.active_count()
        assert predict_scene(params, scene) == beams
        assert seq2seq.greedy_scene(params, scene) == greedy
        assert threading.active_count() == threads_before
        first, second = (vehicles + 1) // 2, vehicles // 2
        expected = [("MainThread", first), ("gridcast-shard_0", second)] if vehicles > 1 else [("MainThread", 1)]
        assert sorted(calls) == sorted(expected * 2)

    def test_cell_64_scene_in_two_shards_equals_one_vehicle_decoding(self, monkeypatch):
        params = cell_64_scene_model()
        scene = cell_64_scene()
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        assert seq2seq.greedy_scene(params, scene) == per_vehicle_greedy(params, scene)
        beams = predict_scene(params, scene, beam_width=3)
        assert beams == [beam_search_decode(params, encode(params, obs), beam_width=3) for obs in scene]

    @pytest.mark.parametrize("bad", [1, 4])
    @pytest.mark.parametrize("decoder", ["beam", "greedy"])
    def test_bad_window_in_either_half_names_its_vehicle(self, monkeypatch, bad, decoder):
        config, params = tiny_model(obs_len=3)
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        scene = [np.zeros((3, 6)) for _ in range(6)]
        scene[bad] = np.zeros((2, 6))
        decode = predict_scene if decoder == "beam" else seq2seq.greedy_scene
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("thread started")):
            with pytest.raises(ValueError, match=f"^vehicle {bad}: encode expects"):
                decode(params, scene)

    @pytest.mark.parametrize("decoder", ["beam", "greedy"])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, decoder):
        config, params = tiny_model(seed=51)
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        name = "_beam_rows" if decoder == "beam" else "_greedy_rows"
        real = getattr(seq2seq, name)

        def fail_on_worker(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("non-finite decoder logits")
            return real(*args, **kwargs)

        monkeypatch.setattr(seq2seq, name, fail_on_worker)
        scene = [np.random.default_rng(n).standard_normal((3, 6)) for n in range(5)]
        decode = predict_scene if decoder == "beam" else seq2seq.greedy_scene
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="non-finite decoder logits"):
            decode(params, scene)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("decoder", ["beam", "greedy"])
    def test_one_vehicle_starts_no_thread(self, monkeypatch, decoder):
        config, params = tiny_model(seed=52)
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        scene = [np.random.default_rng(52).standard_normal((3, 6))]
        decode = predict_scene if decoder == "beam" else seq2seq.greedy_scene
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("thread started")):
            got = decode(params, scene)
        monkeypatch.setattr(nn, "row_shards", lambda: 1)
        assert got == decode(params, scene)


class TestModelParamsCopy:
    def test_copy_is_equal_and_independent(self):
        config, params = tiny_model(seed=30)
        other = params.copy()
        assert other.config == params.config
        for (name, a), (_, b) in zip(params.checkpoint_items(), other.checkpoint_items()):
            assert np.array_equal(a, b), name
            assert not np.shares_memory(a, b), name
        other.dec_fc[0].weight[...] = 0.0
        assert np.any(params.dec_fc[0].weight != 0.0)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        config, params = tiny_model(seed=30)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(params.checkpoint_items(), loaded.checkpoint_items()):
            assert name_a == name_b
            assert np.array_equal(a, b)
        assert loaded.config == params.config

    def test_roundtrip_keeps_full_grid_geometry(self, tmp_path):
        # same 36 x 21 dimensions as the default grid, different geometry
        grid = GridSpec(cell_len=4.0, x_max=144.0)
        params = init_model_params(ModelConfig(cell_dim=4, grid=grid, obs_len=3, horizon=2), seed=36)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.config.grid == grid

    @pytest.mark.parametrize(
        "q_w, q_l, grid", [(36, 21, GridSpec()), (6, 3, GridSpec.custom(6, 3))], ids=["default", "6x3"]
    )
    def test_version_1_file_loads_with_its_grid(self, tmp_path, q_w, q_l, grid):
        config = ModelConfig(cell_dim=4, grid=grid, obs_len=3, horizon=3)
        params = init_model_params(config, seed=37)
        v2 = os.path.join(tmp_path, "v2.ckpt")
        save_checkpoint(params, v2)
        # a version-1 file: the same tensors, the config with q_w/q_l in
        # place of the grid
        raw_config = asdict(config)
        del raw_config["grid"]
        raw_config.update(q_w=q_w, q_l=q_l)
        items = params.checkpoint_items()
        manifest = {
            "format_version": 1,
            "config": raw_config,
            "tensors": [{"name": name, "shape": list(a.shape)} for name, a in items],
        }
        v1 = os.path.join(tmp_path, "v1.ckpt")
        with open(v1, "wb") as f:
            f.write(b"GRIDCAST-CHECKPOINT v1\n" + json.dumps(manifest).encode() + b"\n#BLOBS\n")
            f.write(b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in items))
        old, new = load_checkpoint(v1), load_checkpoint(v2)
        assert old.config.grid == grid
        assert old.config == new.config
        obs = np.random.default_rng(37).standard_normal((3, 6))
        a = beam_search_decode(old, encode(old, obs)).hypotheses
        b = beam_search_decode(new, encode(new, obs)).hypotheses
        assert [(h.sequence, h.log_prob) for h in a] == [(h.sequence, h.log_prob) for h in b]

    @pytest.mark.parametrize("input_dim", [6, 7])
    def test_recorded_input_width_must_be_six(self, tmp_path, input_dim):
        # files written while the input width was a setting record it first
        # in the config; only its one working value loads
        config, params = tiny_model(seed=39)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        with open(path, "rb") as f:
            head, blobs = f.read().split(b"\n#BLOBS\n", 1)
        first_line, manifest = head.decode().split("\n", 1)
        manifest = json.loads(manifest)
        manifest["config"] = {"input_dim": input_dim, **manifest["config"]}
        old = os.path.join(tmp_path, "old.ckpt")
        with open(old, "wb") as f:
            f.write(f"{first_line}\n{json.dumps(manifest)}\n#BLOBS\n".encode() + blobs)
        if input_dim != 6:
            with pytest.raises(CheckpointError, match=re.escape(f"{old}: invalid manifest contents (input_dim must be 6)")):
                load_checkpoint(old)
            return
        loaded = load_checkpoint(old)
        assert loaded.config == params.config
        for (name_a, a), (name_b, b) in zip(params.checkpoint_items(), loaded.checkpoint_items()):
            assert name_a == name_b and np.array_equal(a, b)

    def test_load_draws_no_random_numbers(self, tmp_path):
        config, params = tiny_model(seed=38)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("random draw")):
            loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(params.checkpoint_items(), loaded.checkpoint_items()):
            assert np.array_equal(a, b)

    def test_decode_invariant_across_roundtrip(self, tmp_path):
        config, params = tiny_model(seed=31)
        obs = np.random.default_rng(31).standard_normal((3, 6))
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        a = greedy_decode(params, encode(params, obs))
        b = greedy_decode(loaded, encode(loaded, obs))
        assert a.sequence == b.sequence and a.log_prob == b.log_prob

    def test_corrupted_manifest_is_load_error(self, tmp_path):
        config, params = tiny_model(seed=32)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        raw = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(b"GRIDCAST-CHECKPOINT v1\n{broken" + raw[40:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_is_load_error(self, tmp_path):
        config, params = tiny_model(seed=33)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        raw = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(raw[:-100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_header_of_any_length_loads(self, tmp_path):
        # the header is read in 16 KiB blocks: put the blob separator before,
        # across and after the first block boundary
        config, params = tiny_model(seed=36)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        raw = open(path, "rb").read()
        sep = raw.index(b"\n#BLOBS\n")
        for length in range(2**14 - 12, 2**14 + 4):
            with open(path, "wb") as f:
                f.write(raw[:sep] + b" " * (length - sep) + raw[sep:])
            loaded = load_checkpoint(path)
            for (name, a), (_, b) in zip(params.checkpoint_items(), loaded.checkpoint_items()):
                assert np.array_equal(a, b), (length, name)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda raw: raw[: raw.index(b"\n#BLOBS\n")], "no blob separator; truncated or not a checkpoint"),
            (lambda raw: raw.replace(b'"enc_fc0.weight"', b'"enc_fc0.wxight"', 1), "tensor ordering does not match"),
            (lambda raw: raw.replace(b'"shape": [4, 6]', b'"shape": [4, 7]', 1), r"tensor enc_fc0.weight shape \(4, 7\), expected \(4, 6\)"),
            (lambda raw: raw[:-1], "truncated blob for tensor feat_std"),
            (lambda raw: raw + b"abc", "3 trailing bytes after last tensor"),
        ],
        ids=["no-separator", "order", "shape", "truncated", "trailing"],
    )
    def test_load_error_names_the_fault(self, tmp_path, corrupt, message):
        config, params = tiny_model(seed=37)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        raw = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(corrupt(raw))
        with pytest.raises(CheckpointError, match=f"^{re.escape(path)}: {message}"):
            load_checkpoint(path)

    def test_bad_magic_is_load_error(self, tmp_path):
        path = os.path.join(tmp_path, "model.ckpt")
        with open(path, "wb") as f:
            f.write(b"SOMETHING ELSE\n{}\n#BLOBS\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_is_load_error(self, tmp_path):
        config, params = tiny_model(seed=34)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        raw = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(raw.replace(f'"format_version": {seq2seq.CHECKPOINT_VERSION}'.encode(), b'"format_version": 9', 1))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_no_partial_file_left_on_save(self, tmp_path):
        config, params = tiny_model(seed=35)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(params, path)
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".ckpt-")]
        assert leftovers == []
