"""Self-time arithmetic, patching of every lookup site, and span counts."""

import numpy as np
import pytest

import tracer
from gridcast import cli, metrics, nn, ogm, seq2seq, training


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    got = tracer.self_times(parent, end - start)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 4.0])
    assert got.sum() == pytest.approx(10.0)


def test_self_time_of_separate_roots():
    parent = np.array([-1, 0, -1, 2, 2])
    duration = np.array([5.0, 2.0, 4.0, 1.0, 1.5])
    np.testing.assert_allclose(tracer.self_times(parent, duration), [3.0, 2.0, 1.5, 1.0, 1.5])


ORIGINALS = {
    "training.encode_core": (training, "encode_core", seq2seq.encode_core),
    "training.decode_core": (training, "decode_core", seq2seq.decode_core),
    "training.embed_tokens": (training, "embed_tokens", seq2seq.embed_tokens),
    "metrics.unflatten": (metrics, "unflatten", ogm.unflatten),
    "seq2seq.decode_core": (seq2seq, "decode_core", seq2seq.decode_core),
    "nn.sigmoid": (nn, "sigmoid", nn.sigmoid),
    "cli.cmd_train": (cli, "cmd_train", cli.cmd_train),
}


def test_install_patches_names_imported_by_value_and_uninstall_restores():
    t = tracer.Tracer()
    copy_method = seq2seq.ModelParams.__dict__["copy"]
    t.install()
    try:
        for label, (module, name, original) in ORIGINALS.items():
            patched = getattr(module, name)
            assert patched is not original, label
            assert patched.__wrapped__ is original, label
        assert seq2seq.ModelParams.__dict__["copy"].__wrapped__ is copy_method
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    for label, (module, name, original) in ORIGINALS.items():
        assert getattr(module, name) is original, label
    assert seq2seq.ModelParams.__dict__["copy"] is copy_method


@pytest.fixture(scope="module")
def tiny():
    config = seq2seq.ModelConfig(cell_dim=4, fc_depth=2, lstm_stack_depth=2, obs_len=3, horizon=4, beam_width=3)
    params = seq2seq.init_model_params(config, seed=1)
    return params, np.random.default_rng(1).standard_normal((config.obs_len, 6))


def test_greedy_decode_counts_and_self_times(tiny, tmp_path):
    params, window = tiny
    summary = seq2seq.encode(params, window)
    t = tracer.Tracer()
    t.install()
    try:
        seq2seq.greedy_decode(params, summary)
    finally:
        t.uninstall()
    got = t.harvest()
    assert got["seq2seq.greedy_decode.calls"] == 1
    assert got["seq2seq.decode_core.calls"] == 4
    assert got["seq2seq.decode_core.rows_per_call"] == 1.0
    assert got["nn.lstm_forward.calls"] == 8
    assert got["nn.sigmoid.calls"] == 24
    assert got["seq2seq.embed_tokens.calls"] == 3
    assert got["nn.log_softmax.calls"] == 4
    assert got["seq2seq.encode_core.calls"] == 0
    assert all(v >= 0 for v in got.values())
    assert set(got) == {name for name, _ in tracer.per_layer_metric_specs()} - {"trace_overhead_frac"}
    t.write(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    spans = saved["spans"]
    assert len(spans) == sum(got[f"{n}.calls"] for n in tracer.TRACED_NAMES if not n.startswith("cli."))
    # every span's self time sums to the one root span's duration
    root = spans[spans[:, 1] < 0]
    assert len(root) == 1
    total_self = tracer.self_times(spans[:, 1].astype(int), spans[:, 3] - spans[:, 2]).sum()
    assert total_self == pytest.approx(root[0, 3] - root[0, 2])


def test_batched_loss_reports_rows_per_call(tiny):
    params, _ = tiny
    rng = np.random.default_rng(2)
    examples = [
        training.TrainingExample(inputs=rng.standard_normal((3, 6)), labels=rng.integers(1, 758, size=4))
        for _ in range(5)
    ]
    t = tracer.Tracer()
    t.install()
    try:
        training.nll_loss(params, examples)
    finally:
        t.uninstall()
    got = t.harvest()
    assert got["training.nll_loss.calls"] == 1
    assert got["nn.lstm_forward.rows_per_call"] == 5.0
    assert got["nn.lstm_backward.calls"] == got["nn.lstm_forward.calls"] == 2 * (3 + 4)
    assert got["seq2seq.embed_tokens.calls"] == 3  # reached through training's own binding
    assert got["nn.dense_backward.calls"] == 2 * (3 + 4)


def test_harvest_starts_a_fresh_window(tiny, tmp_path):
    params, window = tiny
    t = tracer.Tracer()
    t.install()
    try:
        seq2seq.encode(params, window)
        first = t.harvest()
        second = t.harvest()
        seq2seq.encode(params, window)
        t.harvest()
    finally:
        t.uninstall()
    assert first["seq2seq.encode_core.calls"] == 1
    assert second["seq2seq.encode_core.calls"] == 0
    assert second["nn.lstm_forward.rows_per_call"] == 0.0
    # written parents index the whole file: each harvest keeps its own root
    t.write(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")["spans"]
    roots = np.flatnonzero(spans[:, 1] < 0)
    assert len(roots) == 2
    assert set(spans[roots[1] + 1 :, 1].astype(int)) >= {roots[1]}
    assert spans[roots[1] + 1 :, 1].min() >= roots[1]
