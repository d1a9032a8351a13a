"""File formats and command-line behavior."""

import argparse
import itertools
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lognet import QuantizerConfig, Tensor, quantize_tensor
from lognet import calib, nn
from lognet import io as lio
from lognet.cli import (_attach_weight_qconfig, _parser, ensure_weight_qconfigs, main,
                        parse_train_config, predict_scores)
from lognet.lognum import ROUND_FLOOR, ROUND_NEAREST, ConfigError, DomainError
from lognet.nn import (LOGQUANT, LayerSpec, ModelGraph, act_quant_layer, batchnorm_layer, conv, fc,
                       maxpool_layer, relu_layer)


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

def test_pack_codes_size():
    codes = np.arange(8, dtype=np.uint8)
    assert len(lio.pack_codes(codes, 4)) == 4
    assert len(lio.pack_codes(np.zeros(3, dtype=np.uint8), 5)) == 2  # ceil(15/8)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(127)
    for bw in range(1, 9):
        codes = rng.integers(0, 1 << bw, size=101, dtype=np.uint8)
        packed = lio.pack_codes(codes, bw)
        assert len(packed) == (101 * bw + 7) // 8
        got = lio.unpack_codes(packed, bw, 101)
        assert np.array_equal(got, codes)


def test_pack_codes_overflow_rejected():
    with pytest.raises(DomainError):
        lio.pack_codes(np.array([16], dtype=np.uint8), 4)


def test_pack_sign_bit_leads():
    # a single 4-bit code 0b1010 lands in the top nibble, sign bit first
    packed = lio.pack_codes(np.array([0b1010], dtype=np.uint8), 4)
    assert packed == bytes([0b10100000])


def test_fc_weight_compression_ratio():
    n = 1000 * 4096
    payload_f32 = 4 * n
    payload_4b = (4 * n + 7) // 8
    assert payload_f32 / payload_4b == 8.0


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

def small_model(quantize_weights=False):
    wq = QuantizerConfig("log", 4, True, 1)
    layers = [
        conv(4, 1, 3, pad=1, wq=wq),
        batchnorm_layer(4),
        relu_layer(),
        act_quant_layer("log", 4, fsr_offset=2),
        maxpool_layer(2),
        fc(3, 4 * 3 * 3, wq=wq),
    ]
    g = ModelGraph(layers=layers, fsr=5)
    rng = np.random.default_rng(131)
    g.weights[0] = Tensor.from_real(rng.normal(0, 0.5, size=(4, 1, 3, 3)))
    g.weights[1] = Tensor.from_real(np.stack([np.ones(4), np.zeros(4),
                                              np.zeros(4), np.ones(4)]))
    g.weights[5] = Tensor.from_real(rng.normal(0, 0.5, size=(3, 36)))
    if quantize_weights:
        for i in (0, 5):
            g.weights[i] = quantize_tensor(g.weights[i], wq)
    return g


def test_model_round_trip(tmp_path):
    path = tmp_path / "m.lgn"
    g = small_model()
    lio.write_model(path, g)
    g2 = lio.read_model(path)
    assert g2.fsr == 5
    assert [l.kind for l in g2.layers] == [l.kind for l in g.layers]
    assert g2.layers[3].fsr_offset == 2
    assert g2.layers[0].qconfig == g.layers[0].qconfig
    for i in (0, 1, 5):
        assert np.array_equal(g2.weights[i].data, g.weights[i].data)
    # write -> read -> write is byte-identical
    path2 = tmp_path / "m2.lgn"
    lio.write_model(path2, g2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_round_trip_packed(tmp_path):
    path = tmp_path / "p.lgn"
    g = small_model(quantize_weights=True)
    lio.write_model(path, g)
    g2 = lio.read_model(path)
    for i in (0, 5):
        assert g2.weights[i].is_quantized
        assert np.array_equal(g2.weights[i].data, g.weights[i].data)
        assert g2.weights[i].qconfig == g.weights[i].qconfig


def test_model_rejects_unknown_tags(tmp_path):
    path = tmp_path / "bad.lgn"
    g = small_model()
    lio.write_model(path, g)
    raw = bytearray(path.read_bytes())
    raw[10] = 0xEE  # first layer kind tag
    path.write_bytes(bytes(raw))
    with pytest.raises(lio.FileFormatError) as err:
        lio.read_model(path)
    assert "byte 10" in str(err.value)


def test_model_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.lgn"
    path.write_bytes(b"JUNKxxxxxxxx")
    with pytest.raises(lio.FileFormatError):
        lio.read_model(path)


def test_model_rejects_truncation(tmp_path):
    path = tmp_path / "t.lgn"
    lio.write_model(path, small_model())
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 7])
    with pytest.raises(lio.FileFormatError):
        lio.read_model(path)


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------

def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(137)
    imgs = rng.uniform(0, 1, size=(7, 1, 5, 5)).astype(np.float32)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    pi, pl = tmp_path / "i.idx", tmp_path / "l.idx"
    lio.write_idx(pi, imgs)
    lio.write_idx(pl, labels)
    assert np.array_equal(lio.read_idx(pi), imgs)
    assert np.array_equal(lio.read_idx(pl), labels)


def test_idx_big_endian_dims(tmp_path):
    path = tmp_path / "d.idx"
    lio.write_idx(path, np.zeros((300, 2), dtype=np.uint8))
    raw = path.read_bytes()
    assert raw[:4] == bytes([0, 0, 0x08, 2])
    assert int.from_bytes(raw[4:8], "big") == 300


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

EPOCHS = 8


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    rc = main(["gen-data", "--out", str(data), "--n", "1200", "--test-n", "200",
               "--classes", "4", "--size", "12", "--seed", "5"])
    assert rc == 0
    cfgfile = root / "train.cfg"
    cfgfile.write_text("\n".join([
        f"train_images = {data}/train-images.idx",
        f"train_labels = {data}/train-labels.idx",
        f"test_images = {data}/test-images.idx",
        f"test_labels = {data}/test-labels.idx",
        f"out_model = {root}/model.lgn",
        f"out_metrics = {root}/metrics.csv",
        "conv_channels = 4,8",
        "fc_units = 16",
        f"epochs = {EPOCHS}",
        "batch_size = 50",
        "lr = 0.05",
        "seed = 3",
    ]))
    rc = main(["train", str(cfgfile)])
    assert rc == 0
    return root, data, cfgfile


def test_cli_train_outputs(workspace):
    root, data, _ = workspace
    assert (root / "model.lgn").exists()
    lines = (root / "metrics.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"step,epoch,loss,train_acc,test_acc"
    assert len([l for l in lines if l]) == EPOCHS + 1  # header + one row per epoch


def test_cli_train_determinism(workspace, tmp_path):
    root, data, cfgfile = workspace
    text = cfgfile.read_text()
    for run in ("a", "b"):
        cfg2 = tmp_path / f"cfg{run}"
        cfg2.write_text(text
                        .replace("model.lgn", f"model{run}.lgn")
                        .replace("metrics.csv", f"metrics{run}.csv"))
        assert main(["train", str(cfg2)]) == 0
    ma = (root / "metricsa.csv").read_bytes()
    mb = (root / "metricsb.csv").read_bytes()
    assert ma == mb
    assert (root / "modela.lgn").read_bytes() == (root / "modelb.lgn").read_bytes()


def test_cli_train_epochs_zero(workspace, tmp_path):
    root, data, cfgfile = workspace
    cfg2 = tmp_path / "cfg0"
    cfg2.write_text(cfgfile.read_text()
                    .replace("epochs = 8", "epochs = 0")
                    .replace("model.lgn", "model0.lgn")
                    .replace("metrics.csv", "metrics0.csv"))
    assert main(["train", str(cfg2)]) == 0
    assert (root / "model0.lgn").exists()
    body = (root / "metrics0.csv").read_bytes()
    assert body == b"step,epoch,loss,train_acc,test_acc\r\n"


def test_cli_train_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["train", str(bad)]) == 2
    assert "nonsense_key" in capsys.readouterr().err


def test_cli_infer(workspace, tmp_path, capsys):
    root, data, _ = workspace
    out = tmp_path / "pred.csv"
    rc = main(["infer", str(root / "model.lgn"), str(data / "test-images.idx"),
               "--mode", "method2_base2", "--out", str(out)])
    assert rc == 0
    lines = out.read_bytes().split(b"\r\n")
    assert lines[0] == b"index,prediction"
    assert len([l for l in lines if l]) == 201
    assert "float32:" in capsys.readouterr().out


def test_cli_infer_agreement_with_float(workspace, tmp_path):
    # exponent-sum inference vs float32 over the same dequantized weights:
    # pack first so both modes consume identical weight codes
    root, data, _ = workspace
    packed = tmp_path / "packed.lgn"
    assert main(["pack", str(root / "model.lgn"), "--bits", "5",
                 "--out", str(packed)]) == 0
    outs = {}
    for mode in ("method2_base2", "float32"):
        out = tmp_path / f"{mode}.csv"
        assert main(["infer", str(packed), str(data / "test-images.idx"),
                     "--mode", mode, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        outs[mode] = [r.split(",")[1] for r in rows]
    same = sum(a == b for a, b in zip(outs["method2_base2"], outs["float32"]))
    assert same / len(outs["float32"]) >= 0.95


def test_cli_infer_empty_dataset(workspace, tmp_path):
    root, data, _ = workspace
    empty = tmp_path / "empty.idx"
    lio.write_idx(empty, np.zeros((0, 1, 12, 12), dtype=np.float32))
    out = tmp_path / "pred.csv"
    rc = main(["infer", str(root / "model.lgn"), str(empty), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"index,prediction\r\n"


def test_cli_unknown_mode_exits_2(workspace, tmp_path, capsys):
    root, data, _ = workspace
    rc = main(["infer", str(root / "model.lgn"), str(data / "test-images.idx"),
               "--mode", "warp", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "method2_base2" in capsys.readouterr().err  # lists valid modes


def test_cli_missing_file_exits_2(tmp_path, capsys):
    rc = main(["infer", str(tmp_path / "absent.lgn"), str(tmp_path / "absent.idx"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "cannot open" in capsys.readouterr().err


def test_cli_directory_paths_exit_2(workspace, tmp_path, capsys):
    # a directory where a file belongs is an unreadable path, not a crash
    root, data, cfgfile = workspace
    model, images = str(root / "model.lgn"), str(data / "test-images.idx")
    labels, folder, out = str(data / "test-labels.idx"), str(tmp_path), str(tmp_path / "o")
    runs = [
        ["infer", folder, images, "--out", out],
        ["infer", model, folder, "--out", out],
        ["calibrate", folder, images, "--out", out, "--report", out],
        ["calibrate", model, folder, "--out", out, "--report", out],
        ["sweep", folder, images, labels, "--mode", "float32", "--fsr-range", "0:1",
         "--out", out],
        ["sweep", model, images, folder, "--mode", "float32", "--fsr-range", "0:1",
         "--out", out],
        ["quant-analyze", folder, images, "--out", out],
        ["quant-analyze", model, folder, "--out", out],
        ["pack", folder, "--out", out],
        ["train", folder],
    ]
    bad_data = tmp_path / "bad-data.cfg"
    bad_data.write_text(cfgfile.read_text().replace(f"{data}/train-images.idx", folder))
    runs.append(["train", str(bad_data)])
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"cannot open {folder!r}" in err, (argv, err)


REF_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "ref" / "calibrated.lgn"


def _geometry_offsets(path) -> list[tuple[int, str]]:
    """(byte offset, field name) of every geometry u32 of a LOGN file."""
    g = lio.read_model(path)
    pos, fields = 10, []  # magic, version, fsr, layer count
    for i, layer in enumerate(g.layers):
        pos += 1  # kind tag
        for name in lio._GEOMETRY[layer.kind]:
            fields.append((pos, name))
            pos += 4
        pos += 7 + 1  # quantizer block, payload tag
        if i in g.weights:
            t = g.weights[i]
            pos += ((t.data.size * t.qconfig.bitwidth + 7) // 8 if t.is_quantized
                    else 4 * t.data.size)
    assert pos == path.stat().st_size
    return fields


def test_model_rejects_zero_geometry_at_its_offset(tmp_path, capsys):
    # a zero size or stride is refused where it is stored; pad 0 is legal
    raw = REF_MODEL.read_bytes()
    fields = _geometry_offsets(REF_MODEL)
    assert (23, "stride") in fields and any(name == "pool" for _, name in fields)
    x = tmp_path / "x.idx"
    lio.write_idx(x, np.zeros((2, 1, 12, 12), dtype=np.float32))
    path = tmp_path / "zero.lgn"
    for off, name in fields:
        mutated = bytearray(raw)
        mutated[off:off + 4] = bytes(4)
        path.write_bytes(bytes(mutated))
        if name == "pad":
            lio.read_model(path)
            continue
        rc = main(["infer", str(path), str(x), "--mode", "float32",
                   "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert rc == 2, (off, name, err)
        assert f"byte {off}:" in err, (off, name, err)


ZEROED_BLOCK_COMMANDS = {
    "infer_float32": ["infer", "--mode", "float32"],
    "infer_method1": ["infer", "--mode", "method1"],
    "infer_method2_base2": ["infer", "--mode", "method2_base2"],
    "calibrate": ["calibrate", "--report", "r.csv"],
    "quant-analyze": ["quant-analyze"],
}


@pytest.mark.parametrize("case", sorted(ZEROED_BLOCK_COMMANDS))
def test_quantizer_layer_without_a_config_is_refused_at_its_block(case, tmp_path, monkeypatch,
                                                                  capsys):
    # layer 3 of the reference net is a log quantizer whose 7-byte quantizer
    # block starts at byte 478; zeroed, it holds no config, and every
    # command refuses the file there
    assert lio.read_model(REF_MODEL).layers[3].kind == LOGQUANT
    raw = bytearray(REF_MODEL.read_bytes())
    assert raw[478] == lio._QKIND_TAGS["log"]
    raw[478:485] = bytes(7)
    model, x = tmp_path / "m.lgn", tmp_path / "x.idx"
    model.write_bytes(bytes(raw))
    lio.write_idx(x, np.zeros((2, 1, 12, 12), dtype=np.float32))
    command, *flags = ZEROED_BLOCK_COMMANDS[case]
    monkeypatch.chdir(tmp_path)
    assert main([command, str(model), str(x), *flags, "--out", "o"]) == 2
    assert "byte 478: layer 3: quantizer layer without a config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "r.csv").exists()


NAN_PIXEL_COMMANDS = {
    **{f"infer_{mode}": ["infer", "m.lgn", "x.idx", "--mode", mode, "--out", "o"]
       for mode in nn.FORWARD_MODES},
    "infer_method2_log": ["infer", "m.lgn", "x.idx", "--mode", "method2_base2", "--accum", "log",
                          "--out", "o"],
    "sweep": ["sweep", "m.lgn", "x.idx", "y.idx", "--mode", "method2_base2", "--fsr-range", "0:1",
              "--out", "o"],
    "calibrate": ["calibrate", "m.lgn", "x.idx", "--out", "o", "--report", "r.csv"],
    "quant-analyze": ["quant-analyze", "m.lgn", "x.idx", "--out", "o"],
    "train": ["train", "t.cfg"],
}


@pytest.mark.parametrize("case", sorted(NAN_PIXEL_COMMANDS))
def test_a_nan_pixel_is_refused_at_its_byte(case, tmp_path, monkeypatch, capsys):
    # one NaN in a float32 IDX file, value 2 * 144 + 3 * 12 + 4 = 328 after
    # the 20-byte header: every command exits 2 at its byte and writes nothing
    x = np.zeros((4, 1, 12, 12), dtype=np.float32)
    x[2, 0, 3, 4] = np.nan
    monkeypatch.chdir(tmp_path)
    lio.write_idx("x.idx", x)
    lio.write_idx("y.idx", np.arange(4, dtype=np.uint8) % 2)
    Path("m.lgn").write_bytes(REF_MODEL.read_bytes())
    Path("t.cfg").write_text("train_images = x.idx\ntrain_labels = y.idx\n"
                             "out_model = o\nout_metrics = r.csv\n")
    before = sorted(os.listdir())
    assert main(NAN_PIXEL_COMMANDS[case]) == 2
    assert "byte 1332: IDX value 328 is not finite" in capsys.readouterr().err
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("layers", [[], [conv(2, 1, 3, pad=1)]], ids=["no_layers", "conv_tail"])
@pytest.mark.parametrize("command", ["infer", "sweep"])
def test_a_net_without_class_scores_is_refused(command, layers, tmp_path, capsys):
    # a net whose output is not (samples, classes) has no predictions or
    # accuracies to give: both commands exit 2 and write no CSV
    g = ModelGraph(layers=layers, fsr=0)
    if layers:
        g.weights[0] = Tensor.from_real(np.ones((2, 1, 3, 3)))
    model, x, y, out = (tmp_path / n for n in ("m.lgn", "x.idx", "y.idx", "o.csv"))
    lio.write_model(model, g)
    lio.write_idx(x, np.zeros((3, 1, 6, 6), dtype=np.float32))
    lio.write_idx(y, np.zeros(3, dtype=np.uint8))
    argv = {"infer": ["infer", str(model), str(x)],
            "sweep": ["sweep", str(model), str(x), str(y), "--fsr-range", "0:0"]}[command]
    assert main(argv + ["--mode", "float32", "--out", str(out)]) == 2
    channels = len(layers) + 1
    assert (f"the net outputs ({channels}, 6, 6) per image, not class scores"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("mode", ["float32", "method2_base2"])
def test_model_byte_mutations_exit_0_or_2(mode, tmp_path, capsys):
    # every one of the first 120 bytes of the reference model set to 0, 1,
    # 0x7f and 0xff: each file is either run or refused with exit 2, in a
    # float and a shift-kernel mode; nothing escapes as a traceback.  The
    # first conv's float32 weights start within those bytes: a mutation that
    # makes one of them NaN or infinite is refused at that weight's offset,
    # and one that makes it finite but huge (0x7f in its top byte) drives the
    # float32 scores past float32's range.  In float32 mode that exits 1
    # naming the overflow; in method2_base2 mode the requested scores are
    # finite, so it writes the predictions, exits 0 and reports the failed
    # float32 timing pass on its own line
    raw = REF_MODEL.read_bytes()
    assert lio.read_model(REF_MODEL).layers[0].kind == "conv"
    # magic, version, fsr, layer count; kind tag, geometry, quantizer block,
    # payload tag
    w0 = 10 + 1 + 4 * len(lio._GEOMETRY["conv"]) + 7 + 1
    assert raw[w0 - 1] == lio._PAYLOAD_F32 and w0 < 120
    x = tmp_path / "x.idx"
    rng = np.random.default_rng(17)
    lio.write_idx(x, rng.uniform(0, 1, size=(2, 1, 12, 12)).astype(np.float32))
    path, out = tmp_path / "m.lgn", tmp_path / "p.csv"
    codes, non_finite, overflows = {}, 0, 0
    for off in range(120):
        for value in (0, 1, 0x7F, 0xFF):
            mutated = bytearray(raw)
            mutated[off] = value
            path.write_bytes(bytes(mutated))
            out.unlink(missing_ok=True)
            rc = main(["infer", str(path), str(x), "--mode", mode, "--out", str(out)])
            err = capsys.readouterr().err
            codes.setdefault(rc, []).append((off, value))
            if rc == 0:
                assert len(out.read_bytes().split(b"\r\n")) == 4, (off, value)
            if "class scores overflow float32" in err:
                overflows += 1
                if mode == "float32":
                    assert rc == 1, (off, value, err)
                else:
                    assert rc == 0 and "float32 timing pass failed" in err, (off, value, err)
            else:
                assert rc != 1, (off, value, err)
            if off >= w0:
                at = w0 + (off - w0) // 4 * 4
                if not np.isfinite(np.frombuffer(bytes(mutated[at:at + 4]), "<f4")[0]):
                    non_finite += 1
                    assert rc == 2 and f"byte {at}:" in err, (off, value, err)
    want = {0, 1, 2} if mode == "float32" else {0, 2}
    assert codes.keys() == want, {rc: runs[:5] for rc, runs in codes.items()}
    assert non_finite > 0 and overflows > 0


def test_infer_refuses_scores_past_float32_range(tmp_path, capsys):
    # a finite float32 weight of 3e38 in the first conv gives class scores
    # beyond float32's range: infer exits 1 naming the largest |score|
    # instead of predicting from infinite scores
    g = lio.read_model(REF_MODEL)
    w = g.weights[0].data.copy()
    w.flat[0] = 3e38
    g.weights[0] = Tensor.from_real(w)
    model, x, out = tmp_path / "huge.lgn", tmp_path / "x.idx", tmp_path / "p.csv"
    lio.write_model(model, g)
    lio.write_idx(x, np.random.default_rng(19).uniform(0, 1, size=(2, 1, 12, 12))
                  .astype(np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["infer", str(model), str(x), "--mode", "float32", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "class scores overflow float32: largest |score| is" in err, err
    assert not out.exists()


def test_infer_method1_refuses_a_weight_word_past_the_accumulator(tmp_path, capsys):
    # a finite weight of 1e30 in the second conv is no 32+8 bit word: method1
    # refuses it as lognum.dot_method1 does (AccumulatorWord.from_value), an
    # arithmetic failure with exit 1, not a usage error
    g = lio.read_model(REF_MODEL)
    i = [j for j, layer in enumerate(g.layers) if layer.kind == "conv"][1]
    w = g.weights[i].data.copy()
    w.flat[0] = 1e30
    g.weights[i] = Tensor.from_real(w)
    model, x, out = tmp_path / "huge.lgn", tmp_path / "x.idx", tmp_path / "p.csv"
    lio.write_model(model, g)
    lio.write_idx(x, np.random.default_rng(23).uniform(0, 1, size=(2, 1, 12, 12))
                  .astype(np.float32))
    rc = main(["infer", str(model), str(x), "--mode", "method1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "a weight word spans 108 raw bits, more than the 32+8 bit accumulator" in err, err
    assert not out.exists()


def test_cli_calibrate(workspace, tmp_path):
    root, data, _ = workspace
    out_model = tmp_path / "cal.lgn"
    report = tmp_path / "cal.csv"
    rc = main(["calibrate", str(root / "model.lgn"), str(data / "train-images.idx"),
               "--bitwidth", "4", "--fsr-grid=-4:8",
               "--out", str(out_model), "--report", str(report)])
    assert rc == 0
    g = lio.read_model(out_model)
    quant_layers = [l for l in g.layers if l.kind in ("logquant", "linearquant")]
    assert quant_layers
    rows = report.read_text().strip().splitlines()
    assert rows[0] == "layer,fsr,l1_error,chosen"
    # one row per (layer, candidate)
    assert len(rows) - 1 == len(quant_layers) * 13


def test_cli_calibrate_single_candidate_forced(workspace, tmp_path):
    root, data, _ = workspace
    out_model = tmp_path / "cal1.lgn"
    rc = main(["calibrate", str(root / "model.lgn"), str(data / "train-images.idx"),
               "--fsr-grid", "5:5", "--out", str(out_model),
               "--report", str(tmp_path / "r.csv")])
    assert rc == 0
    g = lio.read_model(out_model)
    for l in g.layers:
        if l.kind in ("logquant", "linearquant"):
            assert g.fsr + l.fsr_offset == 5


def test_cli_sweep(workspace, tmp_path):
    root, data, _ = workspace
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(root / "model.lgn"), str(data / "test-images.idx"),
               str(data / "test-labels.idx"), "--mode", "method2_base2",
               "--bitwidths", "3,4", "--fsr-range", "2:6", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "bitwidth,fsr,top1,top5"
    assert len(rows) - 1 == 2 * 5
    # peak of the curve is at least as good as its endpoints
    import csv as _csv
    recs = list(_csv.DictReader(out.read_text().splitlines()))
    for bw in ("3", "4"):
        accs = [float(r["top1"]) for r in recs if r["bitwidth"] == bw]
        assert max(accs) >= accs[0] and max(accs) >= accs[-1]


def test_cli_sweep_float32_constant(workspace, tmp_path):
    root, data, _ = workspace
    out = tmp_path / "sweepf.csv"
    rc = main(["sweep", str(root / "model.lgn"), str(data / "test-images.idx"),
               str(data / "test-labels.idx"), "--mode", "float32",
               "--bitwidths", "3", "--fsr-range", "0:3", "--out", str(out)])
    assert rc == 0
    import csv as _csv
    recs = list(_csv.DictReader(out.read_text().splitlines()))
    accs = {r["top1"] for r in recs}
    assert len(accs) == 1


def test_cli_sweep_empty_range_exits_2(workspace, tmp_path, capsys):
    root, data, _ = workspace
    rc = main(["sweep", str(root / "model.lgn"), str(data / "test-images.idx"),
               str(data / "test-labels.idx"), "--mode", "float32",
               "--fsr-range", "5:2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_cli_sweep_determinism(workspace, tmp_path):
    root, data, _ = workspace
    outs = []
    for run in range(2):
        out = tmp_path / f"s{run}.csv"
        assert main(["sweep", str(root / "model.lgn"), str(data / "test-images.idx"),
                     str(data / "test-labels.idx"), "--mode", "method1",
                     "--bitwidths", "4", "--fsr-range", "3:5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_pack_compression(workspace, tmp_path):
    root, _, _ = workspace
    out = tmp_path / "packed.lgn"
    rc = main(["pack", str(root / "model.lgn"), "--bits", "4", "--out", str(out)])
    assert rc == 0
    g = lio.read_model(out)
    assert g.weights[0].is_quantized
    assert os.path.getsize(out) < os.path.getsize(root / "model.lgn")


def test_packed_weights_are_the_walks_weight_operands():
    # pack's weight codes (cli._attach_weight_qconfig, then quantize_tensor)
    # are what nn.weight_operands rebuilds from the stored weights at the
    # layer's own grid: the same type and config, and the stored codes
    # reshaped to (out, in), so a stored weight quantizer runs as stored
    for bits, grid, rounding in itertools.product((3, 4, 5), (0, 1), (ROUND_NEAREST, ROUND_FLOOR)):
        graph = lio.read_model(REF_MODEL.parent / "float.lgn")
        template = QuantizerConfig("log", bits, True, 0, grid, rounding)
        layers = [i for i, layer in enumerate(graph.layers) if layer.kind in ("conv", "fc")]
        for i in layers:
            graph.weights[i] = quantize_tensor(graph.weights[i],
                                               _attach_weight_qconfig(graph, i, template))
        rebuilt = nn.weight_operands(graph, {i: graph.weight_array(i) for i in layers}, grid)
        for i in layers:
            stored, op = graph.weights[i], rebuilt[i]
            assert type(op) is type(stored) and op.qconfig == stored.qconfig == graph.layers[i].qconfig
            assert op.shape == (stored.shape[0], stored.data[0].size)
            assert op.data.tobytes() == stored.data.tobytes(), (bits, grid, rounding, i)


def test_cli_quant_analyze(workspace, tmp_path, capsys):
    root, data, _ = workspace
    out = tmp_path / "hist.csv"
    rc = main(["quant-analyze", str(root / "model.lgn"),
               str(data / "train-images.idx"), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "layer,bin_left,bin_right,count"
    assert "L1 log" in capsys.readouterr().out


def test_cli_quant_analyze_csv_holds_plain_numbers(workspace, tmp_path):
    # every field parses as a Python int or float: no numpy scalar repr
    root, data, _ = workspace
    out = tmp_path / "hist.csv"
    assert main(["quant-analyze", str(root / "model.lgn"), str(data / "train-images.idx"),
                 "--bins", "16", "--out", str(out)]) == 0
    text = out.read_text()
    assert "np." not in text
    rows = [r.split(",") for r in text.strip().splitlines()[1:]]
    assert rows
    for layer, left, right, count in rows:
        int(layer), int(count)
        assert float(left) < float(right)
        assert repr(float(left)) == left and repr(float(right)) == right


def _parser_defaults(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_defaults(sub)
        else:
            yield action.dest, action.default


def test_cli_parser_defaults_are_immutable():
    # one parser serves every call of a process, so no default may be a
    # mutable object a command could change for the next call
    for dest, default in _parser_defaults(_parser()):
        assert isinstance(default, (type(None), bool, int, float, str, tuple, range)), dest


def test_cli_consecutive_calls_behave_like_fresh_ones(workspace, tmp_path, capsys):
    root, data, _ = workspace
    model, images = str(root / "model.lgn"), str(data / "test-images.idx")

    def sweep(name, *extra):
        out = tmp_path / name
        assert main(["sweep", model, images, str(data / "test-labels.idx"), "--mode", "float32",
                     "--fsr-range", "2:3", *extra, "--out", str(out)]) == 0
        return out.read_bytes()

    def calibrate(name, *extra):
        report = tmp_path / f"{name}.csv"
        assert main(["calibrate", model, images, "--samples", "20", *extra,
                     "--out", str(tmp_path / f"{name}.lgn"), "--report", str(report)]) == 0
        return report.read_bytes()

    first = sweep("a.csv")
    assert {r.split(b",")[0] for r in first.splitlines()[1:]} == {b"3", b"4"}
    assert {r.split(b",")[0] for r in sweep("b.csv", "--bitwidths", "5").splitlines()[1:]} \
        == {b"5"}
    assert sweep("c.csv") == first

    report = calibrate("r1")
    layers = len(calibrate("r2", "--fsr-grid", "5:5").splitlines()) - 1
    assert calibrate("r3") == report
    assert len(report.splitlines()) == 1 + layers * 31

    capsys.readouterr()
    assert main(["sweep", model, "--bitwidths", "x"]) == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert sweep("d.csv") == first


def _small_net(tmp_path, middle: list, fsr: int):
    """A conv whose outputs (of either sign) enter the ``middle`` layers,
    then an fc; returns the written model and a float32 image file for it."""
    rng = np.random.default_rng(23)
    g = ModelGraph(layers=[conv(2, 1, 3, pad=1), *middle, fc(3, 2 * 6 * 6)], fsr=fsr)
    g.weights[0] = Tensor.from_real(rng.normal(0, 1, size=(2, 1, 3, 3)))
    g.weights[len(middle) + 1] = Tensor.from_real(rng.normal(0, 1, size=(3, 72)))
    model, data = tmp_path / "net.lgn", tmp_path / "x.idx"
    lio.write_model(model, g)
    lio.write_idx(data, rng.uniform(-1, 1, size=(20, 1, 6, 6)).astype(np.float32))
    return model, data


def test_cli_calibrate_keeps_each_layers_sign_and_grid(tmp_path):
    # a signed sqrt2 log layer sees the conv's negative outputs: it is
    # calibrated under its own quantizer at the requested width and rounding
    sqrt2s = QuantizerConfig("log", 4, True, 0, base_frac_bits=1)
    model, data = _small_net(tmp_path, [LayerSpec(LOGQUANT, qconfig=sqrt2s)], fsr=1)
    out = tmp_path / "cal.lgn"
    rc = main(["calibrate", str(model), str(data), "--bitwidth", "5",
               "--rounding", "floor_msb", "--fsr-grid=-4:6",
               "--out", str(out), "--report", str(tmp_path / "r.csv")])
    assert rc == 0
    g = lio.read_model(model)
    cfg = QuantizerConfig("log", 5, True, 0, base_frac_bits=1, rounding="floor_msb")
    acts = nn.collect_quantizer_inputs(g, lio.read_idx(data))[1]
    assert (acts < 0).any()
    cal = lio.read_model(out)
    assert cal.layers[1].qconfig == cfg
    assert cal.fsr + cal.layers[1].fsr_offset == calib.calibrate_fsr(acts, cfg, range(-4, 7))


def test_cli_quant_analyze_linear_layer_compares_log_with_linear(tmp_path, capsys):
    # a linear activation layer: its histogram and "linear" figure are its
    # own quantizer's, its "log" figure a log quantizer's at the same fsr
    model, data = _small_net(tmp_path, [relu_layer(), act_quant_layer("linear", 3, -1)], fsr=2)
    out = tmp_path / "h.csv"
    assert main(["quant-analyze", str(model), str(data), "--bitwidth", "4",
                 "--bins", "8", "--out", str(out)]) == 0
    acts = nn.collect_quantizer_inputs(lio.read_model(model), lio.read_idx(data))[2]
    l1_log = calib.quant_error_l1(acts, QuantizerConfig("log", 4, False, 1))
    lin = QuantizerConfig("linear", 4, False, 1)
    l1_lin = calib.quant_error_l1(acts, lin)
    assert l1_log != l1_lin
    assert (f"layer 2: L1 log {l1_log:.6g} vs linear {l1_lin:.6g} at fsr 1"
            in capsys.readouterr().out)
    _, counts = calib.error_histogram(acts, lin, 8)
    rows = out.read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[3]) for r in rows] == counts.tolist()


def test_predict_scores_slices_equal_one_forward():
    # 600 images evaluate as three slices, the last one partial: the joined
    # scores are byte for byte those of one forward call on all 600, in
    # every mode/accumulation pair; zero images give (0, classes) scores
    g = lio.read_model(REF_MODEL)
    ensure_weight_qconfigs(g, 5, 0, "nearest_sqrt2")
    x = np.random.default_rng(29).uniform(0, 1, size=(600, 1, 12, 12)).astype(np.float32)
    for mode, accum in (("float32", "linear"), ("method1", "linear"),
                        ("method2_base2", "linear"), ("method2_sqrt2", "linear"),
                        ("method2_base2", "log")):
        scores = predict_scores(g, x, mode, accum)
        assert scores.shape == (600, 10)
        assert scores.tobytes() == nn.forward(g, x, mode, accum).tobytes(), (mode, accum)
        empty = predict_scores(g, x[:0], mode, accum)
        assert empty.shape == (0, 10) and empty.dtype == np.float32


def test_cli_infer_reads_uint8_rank3_images_as_float(tmp_path):
    # a uint8 (N, H, W) IDX file, MNIST's layout, predicts as the float32
    # (N, 1, H, W) file of its values over 255
    u8 = np.random.default_rng(31).integers(0, 256, size=(40, 12, 12)).astype(np.uint8)
    lio.write_idx(tmp_path / "u8.idx", u8)
    lio.write_idx(tmp_path / "f32.idx", u8.astype(np.float32)[:, None] / 255)
    preds = []
    for name in ("u8", "f32"):
        out = tmp_path / f"{name}.csv"
        assert main(["infer", str(REF_MODEL), str(tmp_path / f"{name}.idx"),
                     "--out", str(out)]) == 0
        preds.append(out.read_bytes())
    assert preds[0] == preds[1] and len(preds[0].split(b"\r\n")) == 42


def test_cli_train_divergence_keeps_last_good_checkpoint(workspace, tmp_path, capsys):
    # a momentum that grows the velocity 1e10-fold a step at a rate of
    # 1e-200: the weights still fit float32 after the first epoch's 24
    # steps, and in the second the gradients' fsr leaves the exponent grid's
    # range: training exits 1, the metrics hold the first epoch's row, and
    # the checkpoint is the one a one-epoch run writes
    root, _, cfgfile = workspace
    runs = {}
    for name, epochs, extra in (("one", 1, "lr = 1e-200\nmomentum = 1e10\n"),
                                ("diverge", 3, "lr = 1e-200\nmomentum = 1e10\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfgfile.read_text()
                       .replace(f"{root}/model.lgn", f"{tmp_path}/{name}.lgn")
                       .replace(f"{root}/metrics.csv", f"{tmp_path}/{name}.csv")
                       .replace("epochs = 8", f"epochs = {epochs}") + "\n" + extra)
        runs[name] = main(["train", str(cfg)])
    assert runs == {"one": 0, "diverge": 1}
    err = capsys.readouterr().err
    assert "outside float64 range" in err and "last good checkpoint kept" in err
    metrics = (tmp_path / "diverge.csv").read_bytes()
    assert metrics == (tmp_path / "one.csv").read_bytes()
    assert len(metrics.split(b"\r\n")) == 3  # header, one row, the final line end
    assert (tmp_path / "diverge.lgn").read_bytes() == (tmp_path / "one.lgn").read_bytes()
    lio.read_model(tmp_path / "diverge.lgn")


@pytest.mark.parametrize("lr", ["1e30", "1e200", "1e300"])
def test_cli_train_divergence_at_huge_rates_keeps_a_readable_checkpoint(tmp_path, capsys, lr):
    # the float64 masters outgrow float32 (checkpointed every epoch, the
    # first checkpoint past the range is refused), or, checkpointed every
    # second epoch, the next step meets a non-finite gradient (1e200) or a
    # weight fsr past the exponent grid's range (1e300): with the default
    # quantizers and with none, training exits 1, writes its metrics, and
    # keeps a checkpoint that lognet infer runs
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--n", "20", "--test-n", "20",
                 "--classes", "4", "--size", "12", "--seed", "5"]) == 0
    for every in ("1", "2"):
        for bits in ("", "act_bits = 0\nweight_bits = 0\ngrad_bits = 0\n"):
            model, metrics = tmp_path / "model.lgn", tmp_path / "metrics.csv"
            cfg = tmp_path / "train.cfg"
            cfg.write_text("\n".join([
                f"train_images = {data}/train-images.idx",
                f"train_labels = {data}/train-labels.idx",
                f"out_model = {model}",
                f"out_metrics = {metrics}",
                "conv_channels = 4,8",
                "fc_units = 16",
                "epochs = 2",
                "batch_size = 20",
                f"lr = {lr}",
                f"checkpoint_every = {every}",
            ]) + "\n" + bits)
            with np.errstate(all="ignore"):
                assert main(["train", str(cfg)]) == 1, (every, bits)
            assert "last good checkpoint kept" in capsys.readouterr().err
            assert metrics.read_bytes().startswith(b"step,epoch,loss,train_acc,test_acc\r\n")
            assert main(["infer", str(model), f"{data}/test-images.idx",
                         "--out", str(tmp_path / "pred.csv")]) == 0, (every, bits)
            model.unlink()
            metrics.unlink()


def test_cli_train_linear_reference_config(workspace, tmp_path):
    # linear-quantized weights/activations with float gradients: the
    # reference configuration runs to completion alongside the log one
    root, data, cfgfile = workspace
    cfg2 = tmp_path / "lin.cfg"
    cfg2.write_text(cfgfile.read_text()
                    .replace("model.lgn", "lin.lgn")
                    .replace("metrics.csv", "lin.csv")
                    .replace("epochs = 8", "epochs = 2")
                    + "\nact_kind = linear\nweight_kind = linear\ngrad_bits = 0\n")
    assert main(["train", str(cfg2)]) == 0
    rows = (root / "lin.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    final = float(rows[-1].split(",")[3])
    assert final > 0.5  # learns, even if behind the log configuration


def test_cli_sweep_sqrt2_and_log_accum(workspace, tmp_path):
    root, data, _ = workspace
    out = tmp_path / "s2.csv"
    rc = main(["sweep", str(root / "model.lgn"), str(data / "test-images.idx"),
               str(data / "test-labels.idx"), "--mode", "method2_sqrt2",
               "--accum", "log", "--bitwidths", "4", "--fsr-range", "3:4",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3
    accs = [float(r.split(",")[2]) for r in rows[1:]]
    assert max(accs) > 0.5  # the shift-add pipeline still classifies


def test_parse_train_config_errors(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("epochs = banana\ntrain_images=x\ntrain_labels=y\nout_model=m\nout_metrics=q\n")
    with pytest.raises(ConfigError) as e:
        parse_train_config(f)
    assert str(e.value) == "key 'epochs': expected an integer, got 'banana'"


# ---------------------------------------------------------------------------
# refusals: empty samples, malformed inputs and configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["calibrate", "quant-analyze"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_cli_samples_must_be_positive(command, samples, tmp_path, capsys):
    model, data = _small_net(tmp_path, [relu_layer(), act_quant_layer("log", 4)], fsr=0)
    out = ["--out", str(tmp_path / "o"), "--report", str(tmp_path / "r.csv")]
    argv = [command, str(model), str(data), "--samples", samples]
    assert main(argv + (out if command == "calibrate" else out[:2])) == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_cli_quant_analyze_empty_sample_exits_2(tmp_path, capsys):
    model, _ = _small_net(tmp_path, [relu_layer(), act_quant_layer("log", 4)], fsr=0)
    empty = tmp_path / "empty.idx"
    lio.write_idx(empty, np.zeros((0, 1, 6, 6), dtype=np.float32))
    assert main(["quant-analyze", str(model), str(empty), "--out", str(tmp_path / "h")]) == 2
    assert "cannot analyze an empty sample" in capsys.readouterr().err


# (command, whether its images are empty, the middle layers of its net, its
# flags, the message): calibrate and quant-analyze share one front that
# reads the model and images, refuses an empty sample and captures the
# quantizer inputs, refusing a net without quantizer layers
CAPTURE_REFUSALS = {
    "calibrate_empty_sample": ("calibrate", True, [relu_layer(), act_quant_layer("log", 4)], [],
                               "cannot calibrate an empty sample"),
    "calibrate_no_quantizer_layers": ("calibrate", False, [relu_layer()], [],
                                      "model has no quantizer layers to calibrate"),
    "quant_analyze_no_quantizer_layers": ("quant-analyze", False, [relu_layer()], [],
                                          "model has no quantizer layers to analyze"),
    "quant_analyze_zero_bins": ("quant-analyze", False, [relu_layer(), act_quant_layer("log", 4)],
                                ["--bins", "0"], "need at least one histogram bin"),
}


@pytest.mark.parametrize("case", sorted(CAPTURE_REFUSALS))
def test_calibrate_and_quant_analyze_refusals_exit_2(case, tmp_path, capsys):
    command, empty, middle, flags, message = CAPTURE_REFUSALS[case]
    model, data = _small_net(tmp_path, middle, fsr=0)
    if empty:
        lio.write_idx(data, np.zeros((0, 1, 6, 6), dtype=np.float32))
    out, report = tmp_path / "o", tmp_path / "r.csv"
    argv = [command, str(model), str(data), *flags, "--out", str(out)]
    assert main(argv + (["--report", str(report)] if command == "calibrate" else [])) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_cli_calibrate_prints_each_layers_choice(tmp_path, capsys):
    # the summary names the global fsr, then each quantizer layer's chosen
    # fsr, its offset and the L1 errors of log and linear quantizers there;
    # the report marks that fsr as chosen
    middle = [relu_layer(), act_quant_layer("log", 4), act_quant_layer("linear", 4, -1)]
    model, data = _small_net(tmp_path, middle, fsr=1)
    report = tmp_path / "r.csv"
    assert main(["calibrate", str(model), str(data), "--fsr-grid=-4:6",
                 "--out", str(tmp_path / "cal.lgn"), "--report", str(report)]) == 0
    captured = nn.collect_quantizer_inputs(lio.read_model(model), lio.read_idx(data))
    lines = ["global fsr: 1"]
    chosen_rows = []
    for i, kind in ((2, "log"), (3, "linear")):
        cfg = QuantizerConfig(kind, 4, False, 0)
        fsr = calib.calibrate_fsr(captured[i], cfg, range(-4, 7))
        l1 = {k: calib.quant_error_l1(captured[i], QuantizerConfig(k, 4, False, fsr))
              for k in ("log", "linear")}
        lines.append(f"layer {i}: fsr {fsr} (offset {fsr - 1:+d}), "
                     f"L1 log {l1['log']:.6g}, L1 linear {l1['linear']:.6g}")
        chosen_rows.append(f"{i},{fsr}")
    assert capsys.readouterr().out.splitlines()[:3] == lines
    rows = report.read_text().strip().splitlines()[1:]
    assert [r.rsplit(",", 2)[0] for r in rows if r.endswith(",1")] == chosen_rows


@pytest.mark.parametrize("case", ["batchnorm_channels", "maxpool_after_fc"])
def test_a_net_whose_layers_do_not_chain_is_refused(case, tmp_path, capsys):
    # a file can hold layers whose shapes do not chain; the walk refuses the
    # first layer that cannot take its input, and infer exits 2 writing nothing
    if case == "batchnorm_channels":
        g = ModelGraph(layers=[conv(2, 1, 3, pad=1), batchnorm_layer(3)], fsr=0)
        g.weights[0] = Tensor.from_real(np.ones((2, 1, 3, 3)))
        g.weights[1] = Tensor.from_real(np.ones((4, 3)))
        message = "layer 1: batchnorm over 3 channels, got 2"
    else:
        g = ModelGraph(layers=[fc(3, 36), maxpool_layer(2)], fsr=0)
        g.weights[0] = Tensor.from_real(np.ones((3, 36)))
        message = "layer 1: maxpool expects rank-4 input, got (3, 3)"
    model, x, out = tmp_path / "m.lgn", tmp_path / "x.idx", tmp_path / "p.csv"
    lio.write_model(model, g)
    lio.write_idx(x, np.zeros((3, 1, 6, 6), dtype=np.float32))
    assert main(["infer", str(model), str(x), "--mode", "float32", "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_over_zero_images_leaves_accuracies_empty(tmp_path):
    # no image means no accuracy: each grid point's top1 and top5 are NaN,
    # written as empty fields
    model, _ = _small_net(tmp_path, [relu_layer(), act_quant_layer("log", 4)], fsr=0)
    x, y, out = tmp_path / "e.idx", tmp_path / "y.idx", tmp_path / "s.csv"
    lio.write_idx(x, np.zeros((0, 1, 6, 6), dtype=np.float32))
    lio.write_idx(y, np.zeros(0, dtype=np.uint8))
    assert main(["sweep", str(model), str(x), str(y), "--mode", "method1",
                 "--fsr-range", "0:1", "--out", str(out)]) == 0
    assert out.read_bytes() == (b"bitwidth,fsr,top1,top5\r\n3,0,,\r\n3,1,,\r\n"
                                b"4,0,,\r\n4,1,,\r\n")


def test_train_config_with_blank_and_comment_lines(tmp_path):
    # as in the README's example: blank lines, comment-only lines and
    # comments after a value are skipped
    argv = _train_config(tmp_path, ["", "# a comment-only line", "   ",
                                    "epochs = 0         # no epoch", "lr = 0.05", "",
                                    "# conv_channels = 1,1 stays a comment"])
    raw = parse_train_config(argv[1])
    assert (raw["epochs"], raw["lr"], raw["conv_channels"]) == (0, 0.05, (8, 16))
    assert main(argv) == 0
    assert lio.read_model(tmp_path / "m.lgn").layers[0].kind == "conv"


def _train_config(tmp_path, lines: list[str], drop: str = "") -> list[str]:
    """``lognet train`` argv for a config of ``lines`` after the required
    keys (``drop`` left out), over a 20-image set."""
    images, labels = tmp_path / "x.idx", tmp_path / "y.idx"
    lio.write_idx(images, np.zeros((20, 1, 8, 8), dtype=np.float32))
    lio.write_idx(labels, np.arange(20, dtype=np.uint8) % 2)
    required = {"train_images": images, "train_labels": labels,
                "out_model": tmp_path / "m.lgn", "out_metrics": tmp_path / "m.csv"}
    cfg = tmp_path / "t.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in required.items() if k != drop]))
    return ["train", str(cfg)]


def _rank2_images(tmp_path):
    model, _ = _small_net(tmp_path, [], fsr=0)
    lio.write_idx(tmp_path / "flat.idx", np.zeros((4, 36), dtype=np.float32))
    return ["infer", str(model), str(tmp_path / "flat.idx"), "--out", str(tmp_path / "p")]


def _sweep_labels(labels, *flags):
    def argv(tmp_path):
        model, data = _small_net(tmp_path, [], fsr=0)
        lio.write_idx(tmp_path / "l.idx", labels)
        return ["sweep", str(model), str(data), str(tmp_path / "l.idx"), "--mode", "float32",
                "--fsr-range", "0:0", *flags, "--out", str(tmp_path / "s.csv")]
    return argv


def _train_lines(lines, drop=""):
    return lambda tmp_path: _train_config(tmp_path, lines, drop)


def _gen_data(*flags):
    return lambda tmp_path: ["gen-data", "--out", str(tmp_path / "d"), *flags]


def _train_labels(labels):
    def argv(tmp_path):
        argv = _train_config(tmp_path, [])
        lio.write_idx(tmp_path / "y.idx", labels)
        return argv
    return argv


def _train_set(n: int):
    def argv(tmp_path):
        argv = _train_config(tmp_path, [])
        lio.write_idx(tmp_path / "x.idx", np.zeros((n, 1, 8, 8), np.float32))
        lio.write_idx(tmp_path / "y.idx", np.zeros(n, np.uint8))
        return argv
    return argv


def _train_test_labels(labels):
    def argv(tmp_path):
        lio.write_idx(tmp_path / "tx.idx", np.zeros((len(labels), 1, 8, 8), np.float32))
        lio.write_idx(tmp_path / "ty.idx", np.array(labels, np.float32))
        return _train_config(tmp_path, [f"test_images = {tmp_path / 'tx.idx'}",
                                        f"test_labels = {tmp_path / 'ty.idx'}"])
    return argv


def _float_labels(bad_at: int, value: float):
    """20 float32 labels, all whole but ``value`` at ``bad_at``."""
    labels = (np.arange(20) % 2).astype(np.float32)
    labels[bad_at] = value
    return labels


def _images_of_16(command, *flags):
    # ref/float.lgn takes 12x12 images: at 16x16 its fc gets 16 * 4 * 4
    # features, as infer and sweep report
    def argv(tmp_path):
        lio.write_idx(tmp_path / "x16.idx", np.zeros((4, 1, 16, 16), np.float32))
        return [command, str(REF_MODEL.with_name("float.lgn")), str(tmp_path / "x16.idx"),
                *(flag.format(tmp_path) for flag in flags)]
    return argv


CLI_REFUSALS = {
    "rank2_images": (_rank2_images, "expected rank 3 or 4 image data, got rank 2"),
    "rank2_labels": (_sweep_labels(np.zeros((20, 1), np.uint8)), "labels must be rank 1"),
    "label_count": (_sweep_labels(np.zeros(19, np.uint8)), "19 labels for 20 samples"),
    "sweep_empty_bitwidths": (_sweep_labels(np.zeros(20, np.uint8), "--bitwidths", ","),
                              "argument --bitwidths: expected comma-separated integers, "
                              "got ','"),
    "sweep_non_integer_fsr_range": (_sweep_labels(np.zeros(20, np.uint8), "--fsr-range", "a:b"),
                                    "argument --fsr-range: expected lo:hi, got 'a:b'"),
    "line_without_equals": (_train_lines(["epochs 3"]), "line 1: expected key=value"),
    "missing_key": (_train_lines([], drop="out_metrics"),
                    "missing required config key 'out_metrics'"),
    "non_integer": (_train_lines(["epochs = many"]), "key 'epochs': expected an integer"),
    "non_number": (_train_lines(["lr = fast"]), "key 'lr': expected a number"),
    "nan_rate": (_train_lines(["lr = nan"]), "key 'lr': expected a number, got 'nan'"),
    "infinite_rate": (_train_lines(["lr = inf"]), "key 'lr': expected a number, got 'inf'"),
    "nan_momentum": (_train_lines(["momentum = nan"]),
                     "key 'momentum': expected a number, got 'nan'"),
    "nan_decay_factor": (_train_lines(["lr_decay_factor = nan"]),
                         "key 'lr_decay_factor': expected a number, got 'nan'"),
    "adam_beta1_one": (_train_lines(["optimizer = adam", "beta1 = 1"]),
                       "beta1 must be in [0, 1), got 1.0"),
    "adam_beta2_negative": (_train_lines(["optimizer = adam", "beta2 = -0.5"]),
                            "beta2 must be in [0, 1), got -0.5"),
    "decay_factor_above_one": (_train_lines(["lr_decay_epochs = 1", "lr_decay_factor = 1e200"]),
                               "lr_decay_factor must be in [0, 1], got 1e+200"),
    "decay_factor_negative": (_train_lines(["lr_decay_factor = -0.5"]),
                              "lr_decay_factor must be in [0, 1], got -0.5"),
    "adam_eps_zero": (_train_lines(["optimizer = adam", "eps = 0"]),
                      "adam's eps must be positive, got 0.0"),
    "adam_eps_negative": (_train_lines(["optimizer = adam", "eps = -1e-8"]),
                          "adam's eps must be positive, got -1e-08"),
    "unknown_choice": (_train_lines(["optimizer = rmsprop"]),
                       "key 'optimizer': expected one of"),
    "one_channel": (_train_lines(["conv_channels = 8"]),
                    "key 'conv_channels': expected two comma-separated integers"),
    "non_integer_channels": (_train_lines(["conv_channels = 8,x"]),
                             "key 'conv_channels': expected two comma-separated integers, "
                             "got '8,x'"),
    "zero_channels": (_train_lines(["conv_channels = 0,8"]),
                      "key 'conv_channels': expected a positive integer, got '0,8'"),
    "zero_fc_units": (_train_lines(["fc_units = 0"]),
                      "key 'fc_units': expected a positive integer, got '0'"),
    "negative_checkpoint_every": (_train_lines(["checkpoint_every = -3"]),
                                  "key 'checkpoint_every': expected a positive integer, "
                                  "got '-3'"),
    "gen_data_negative_n": (_gen_data("--n", "-1"),
                            "argument --n: expected a non-negative integer, got '-1'"),
    "gen_data_negative_test_n": (_gen_data("--test-n", "-1"),
                                 "argument --test-n: expected a non-negative integer"),
    "gen_data_zero_classes": (_gen_data("--classes", "0"),
                              "argument --classes: expected a positive integer, got '0'"),
    "gen_data_classes_past_uint8": (_gen_data("--classes", "257"),
                                    "--classes must be at most 256"),
    "gen_data_zero_size": (_gen_data("--size", "0"),
                           "argument --size: expected a positive integer, got '0'"),
    "gen_data_negative_noise": (_gen_data("--noise", "-1"),
                                "argument --noise: expected a finite number >= 0, got '-1'"),
    "gen_data_nan_noise": (_gen_data("--noise", "nan"),
                           "argument --noise: expected a finite number >= 0, got 'nan'"),
    "gen_data_non_number_noise": (_gen_data("--noise", "abc"),
                                  "argument --noise: expected a finite number >= 0, got 'abc'"),
    "calibrate_images_the_net_cannot_take": (
        _images_of_16("calibrate", "--out", "{}/m.lgn", "--report", "{}/r.csv"),
        "layer 10: fc expects 144 features, got 256"),
    "quant_analyze_images_the_net_cannot_take": (
        _images_of_16("quant-analyze", "--out", "{}/h.csv"),
        "layer 10: fc expects 144 features, got 256"),
    "fractional_label": (_sweep_labels(_float_labels(1, 1.5)),
                         "byte 12: label 1 is 1.5, not a whole number >= 0"),
    "negative_label": (_sweep_labels(_float_labels(19, -1.0)),
                       "byte 84: label 19 is -1.0, not a whole number >= 0"),
    "label_past_int64": (_sweep_labels(_float_labels(3, 2.0 ** 63)),
                         "byte 20: label 3 is 9.223372e+18, not a whole number >= 0"),
    "train_negative_label": (_train_labels(_float_labels(19, -1.0)),
                             "byte 84: label 19 is -1.0, not a whole number >= 0"),
    "train_fractional_test_label": (_train_test_labels([0.0, 1.0, 2.9, 1.0]),
                                    "byte 16: label 2 is 2.9, not a whole number >= 0"),
    "sweep_label_past_the_class_limit": (_sweep_labels(_float_labels(5, 256.0)),
                                         "byte 28: label 5 is 256.0, not a class below 256"),
    "train_test_label_past_the_class_limit": (_train_test_labels([0.0, 1.0, 300.0, 1.0]),
                                              "byte 16: label 2 is 300.0, not a class below 256"),
    "signed_integer": (_train_lines(["batch_size = +5"]),
                       "key 'batch_size': expected an integer, got '+5'"),
    "train_empty_set": (_train_set(0), "cannot train on an empty training set"),
    "train_label_past_the_class_limit": (_train_labels(_float_labels(19, 100000.0)),
                                         "byte 84: label 19 is 100000.0, not a class below 256"),
    "grad_fsr_floor_above_the_grid": (
        _train_lines(["grad_fsr_floor = 2000"]),
        "grad_fsr_floor 2000 is outside the weight quantizer's fsr range"),
    "grad_fsr_floor_below_the_grid": (
        _train_lines(["grad_fsr_floor = -2000"]),
        "grad_fsr_floor -2000 is outside the weight quantizer's fsr range"),
}


@pytest.mark.parametrize("case", sorted(CLI_REFUSALS))
def test_cli_refusals_exit_2(case, tmp_path, capsys):
    make_argv, message = CLI_REFUSALS[case]
    argv = make_argv(tmp_path)
    inputs = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == inputs  # no file written


@pytest.mark.parametrize("train_size, test_size, message", [
    (10, None, "kernel 2/stride 2/pad 0 does not tile an extent of 5"),
    (12, 16, "fc expects 144 features, got 256"),
], ids=["train_images", "test_images"])
def test_cli_train_refuses_images_its_net_cannot_pass_before_writing(
        train_size, test_size, message, tmp_path, capsys):
    # 10x10 images leave a 5x5 map at the second 2x2 pool, which does not
    # tile it; 16x16 test images give the fc of a net built for 12x12 ones
    # 16 * 4 * 4 features: train exits 2 with the walk's message and writes
    # no file
    data, test = tmp_path / "d", tmp_path / "t"
    assert main(["gen-data", "--out", str(data), "--n", "20", "--test-n", "0",
                 "--size", str(train_size)]) == 0
    lines = [f"train_images = {data}/train-images.idx",
             f"train_labels = {data}/train-labels.idx",
             f"out_model = {tmp_path}/m.lgn", f"out_metrics = {tmp_path}/m.csv", "epochs = 1"]
    if test_size:
        assert main(["gen-data", "--out", str(test), "--n", "0", "--test-n", "10",
                     "--size", str(test_size)]) == 0
        lines += [f"test_images = {test}/test-images.idx", f"test_labels = {test}/test-labels.idx"]
    cfg = tmp_path / "t.cfg"
    cfg.write_text("\n".join(lines))
    assert main(["train", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.lgn").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("bits, message", [
    (["weight_bits = 8"], "4-bit x 8-bit log codes over 72 terms need 148 bits"),
    (["act_bits = 5"], "5-bit x 5-bit log codes over 320 terms need 54 bits"),
])
def test_cli_train_refuses_configs_past_the_exact_sum(bits, message, tmp_path, capsys):
    # the trainer sums each coded x coded product exactly in float64: 8-bit
    # weights against 4-bit activations (conv2's forward, k = 8 * 3 * 3),
    # and 5-bit unsigned activations (31 levels) against 5-bit gradients
    # (conv2's weight gradient over the 20 images' 4x4 positions) pass 53
    # bits and exit 2 at step 0, after the initial checkpoint and before
    # any metrics
    argv = _train_config(tmp_path, bits + ["epochs = 1"])
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert (tmp_path / "m.lgn").exists() and not (tmp_path / "m.csv").exists()


def _fc_model(wq=None, weights=None) -> ModelGraph:
    g = ModelGraph(layers=[fc(2, 3, wq=wq)], fsr=0)
    g.weights[0] = Tensor.from_real(np.ones((2, 3)) if weights is None else weights)
    return g


def _packed_under_another_config() -> ModelGraph:
    g = _fc_model(QuantizerConfig("log", 4, True, 1))
    g.weights[0] = quantize_tensor(g.weights[0], QuantizerConfig("log", 4, True, 2))
    return g


WRITE_REFUSALS = {
    "unknown_kind": (lambda: ModelGraph(layers=[LayerSpec("warp")]), "unknown kind 'warp'"),
    "quantizer_without_config": (lambda: ModelGraph(layers=[LayerSpec(LOGQUANT)]),
                                 "quantizer layer without a config"),
    "missing_weights": (lambda: ModelGraph(layers=[fc(2, 3)]), "missing its weight tensor"),
    "misshapen_weights": (lambda: _fc_model(weights=np.ones((3, 2))), "!= declared (2, 3)"),
    "packed_under_another_config": (_packed_under_another_config,
                                    "packed weights must use the layer's quantizer config"),
}


@pytest.mark.parametrize("case", sorted(WRITE_REFUSALS))
def test_write_model_refusals(case, tmp_path):
    make_graph, message = WRITE_REFUSALS[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        lio.write_model(tmp_path / "m.lgn", make_graph())


def test_write_model_refuses_a_non_finite_payload_before_opening(tmp_path):
    # a float32 payload read_model would refuse is refused before the file
    # is opened, so the file already there stays as it was
    path = tmp_path / "m.lgn"
    lio.write_model(path, _fc_model())
    before = path.read_bytes()
    for bad in (np.inf, -np.inf, np.nan):
        w = np.ones((2, 3))
        w[1, 2] = bad
        with pytest.raises(ConfigError, match="layer 0 weight 5 is not finite"):
            lio.write_model(path, _fc_model(weights=w))
        assert path.read_bytes() == before


# (graph, byte changed, its new value, offset of the refusal, message): the
# 10-byte header is followed by the kind tag, the geometry (two u32 for an
# fc), the 7-byte quantizer block (rounding tag last) and the payload tag
READ_REFUSALS = {
    "unknown_rounding_tag": (lambda: _fc_model(QuantizerConfig("log", 4, True, 1)),
                             25, 9, 19, "unknown rounding tag 9"),
    "payload_on_weightless_layer": (lambda: ModelGraph(layers=[relu_layer()]),
                                    18, 1, 18, "layer 0 (relu) cannot carry weights"),
    "packed_payload_without_quantizer": (_fc_model, 26, 2, 26,
                                         "packed payload without quantizer block"),
}


@pytest.mark.parametrize("case", sorted(READ_REFUSALS))
def test_read_model_refusals_at_their_offsets(case, tmp_path):
    make_graph, at, value, offset, message = READ_REFUSALS[case]
    path = tmp_path / "m.lgn"
    lio.write_model(path, make_graph())
    raw = bytearray(path.read_bytes())
    raw[at] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(lio.FileFormatError, match=re.escape(message)) as err:
        lio.read_model(path)
    assert err.value.offset == offset


IDX_REFUSALS = {
    "bad_magic": (bytes([1, 0, 0x08, 1, 0, 0, 0, 1, 7]), 0, "bad IDX magic"),
    "unsupported_dtype": (bytes([0, 0, 0x0B, 1, 0, 0, 0, 1, 0, 7]), 2,
                          "unsupported IDX dtype 0x0b"),
    "trailing_bytes": (bytes([0, 0, 0x08, 1, 0, 0, 0, 1, 7, 8]), 9, "1 trailing bytes"),
    "non_finite_value": (bytes([0, 0, 0x0D, 1, 0, 0, 0, 2])
                         + np.array([1, np.nan], ">f4").tobytes(), 12,
                         "IDX value 1 is not finite"),
}


@pytest.mark.parametrize("case", sorted(IDX_REFUSALS))
def test_read_idx_refusals_at_their_offsets(case, tmp_path):
    data, offset, message = IDX_REFUSALS[case]
    path = tmp_path / "d.idx"
    path.write_bytes(data)
    with pytest.raises(lio.FileFormatError, match=message) as err:
        lio.read_idx(path)
    assert err.value.offset == offset


def test_write_idx_refuses_an_unsupported_dtype(tmp_path):
    with pytest.raises(ConfigError, match="IDX supports uint8 and float32"):
        lio.write_idx(tmp_path / "d.idx", np.zeros(3, dtype=np.int32))
