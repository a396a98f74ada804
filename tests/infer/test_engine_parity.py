"""End-to-end parity of the integer engine against the fake-quant
reference, the exact-GEMM contract (arena == int64 oracle on fuzzed
programs, range proof), and obs instrumentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import check_parity, compile_model
from repro.infer.compile import (FLOAT32_EXACT, FLOAT64_EXACT, INT32_MAX,
                                 CompileError, Grid, Stage,
                                 exact_gemm_dtype, finalize_program)
from repro.infer.engine import Program
from repro.infer.requant import quantize_multipliers, requantize
from repro.nn import functional as F
from repro.obs.trace import TraceRecorder, use_recorder


class TestParity:
    def test_homogeneous_8bit(self, model8, program8, infer_dataset):
        """Every requant segment within its LSB budget, >= 99% top-1
        agreement, on the full 256-image batch."""
        report = check_parity(model8, program8, infer_dataset.x_train)
        assert report.n_images == 256
        for stage in report.stages:
            assert stage.max_abs_diff <= stage.tolerance, report.format()
        assert report.top1_agreement >= 0.99, report.format()
        assert report.ok(min_agreement=0.99)

    def test_teacher_forced_logits_near_exact(self, model8, program8,
                                              infer_dataset):
        """With reference input codes, the final dense accumulates exactly;
        only float32-vs-float64 dequantization noise remains."""
        report = check_parity(model8, program8, infer_dataset.x_train[:64])
        assert report.max_logit_diff < 1e-3

    def test_mixed_precision_policy(self, model_mixed, infer_dataset):
        """The parity contract holds for a mixed {4..8}-bit policy too."""
        program = compile_model(model_mixed,
                                infer_dataset.x_train.shape[1],
                                name="mixed")
        report = check_parity(model_mixed, program, infer_dataset.x_train)
        assert report.n_images == 256
        assert report.ok(min_agreement=0.99), report.format()

    def test_mismatched_model_rejected(self, model8, model_mixed,
                                       infer_dataset):
        size = infer_dataset.x_train.shape[1]
        program = compile_model(model_mixed, size, name="mixed")
        x = infer_dataset.x_train[:8]
        # same architecture but different grids: budget must catch it, or
        # at minimum the report must not silently claim perfection
        report = check_parity(model8, program, x)
        assert not report.ok() or report.top1_agreement < 1.0


def _conv_stage(name, in_shape, weight, rng, *, stride=1, padding="same",
                in_zp=0, out_levels=255):
    """A hand-built conv (4-D weight) or depthwise (3-D weight) stage with
    random requantization, output zero point and bias."""
    kernel, channels = weight.shape[0], weight.shape[-1]
    ho = F.conv_output_size(in_shape[0], kernel, stride, padding)
    wo = F.conv_output_size(in_shape[1], kernel, stride, padding)
    mult, shift = quantize_multipliers(
        2.0 ** rng.uniform(-22.0, -4.0, channels))
    return Stage(name, "dw" if weight.ndim == 3 else "conv", in_shape,
                 (ho, wo, channels), weight=weight, stride=stride,
                 padding=padding, in_zp=in_zp, mult=mult, shift=shift,
                 bias_acc=rng.integers(-5000, 5000, channels,
                                       dtype=np.int32),
                 out_zp=int(rng.integers(0, out_levels + 1)), clamp_lo=0,
                 clamp_hi=out_levels)


def _head(program_stages, channels, levels, rng, classes=3):
    """gap + dense classifier over ``channels`` codes in ``[0, levels]``."""
    h, w, _ = program_stages[-1].out_shape
    program_stages.append(Stage("gap", "gap", (h, w, channels),
                                (channels,), clamp_lo=0, clamp_hi=levels))
    program_stages.append(Stage(
        "fc", "dense", (channels,), (classes,),
        weight=rng.integers(-127, 128, (channels, classes), dtype=np.int32),
        in_zp=int(rng.integers(0, levels + 1)),
        out_scale=rng.uniform(1e-4, 1e-2, classes),
        out_bias=rng.normal(size=classes).astype(np.float32)))
    return program_stages


def _program(stages, zero_point, levels):
    size, _, channels = stages[0].in_shape
    return Program(stages=stages, input_grid=Grid(1.0, zero_point, levels),
                   image_size=size, in_channels=channels, name="fuzz")


def _oracle(program, x):
    """int64 interpreter: ``(logits, per-stage max |acc - bias|)``.

    Every accumulator is exact in int64 and checked against its proven
    bound, so an arena that wrapped or rounded anywhere shows up as a
    logits mismatch."""
    codes = program.quantize_input(x).astype(np.int64)
    peaks = []
    for stage in program.stages:
        if stage.kind == "gap":
            count = codes.shape[1] * codes.shape[2]
            total = codes.sum(axis=(1, 2))
            codes = np.clip((total + count // 2) // count,
                            stage.clamp_lo, stage.clamp_hi)
            continue
        shifted = codes - stage.in_zp
        w = stage.weight.astype(np.int64)
        if stage.kind == "dense":
            acc = shifted @ w
            peaks.append(int(np.abs(acc).max()))
            logits = acc.astype(np.float64) * stage.out_scale \
                + stage.out_bias
            return logits.astype(np.float32), peaks
        kernel = w.shape[0]
        padded, _, _ = F.pad_input(shifted, kernel, stage.stride,
                                   stage.padding)
        patches = F.extract_patches(padded, kernel, stage.stride)
        if stage.kind == "conv":
            acc = np.einsum("nhwcij,ijco->nhwo", patches, w)
        else:
            acc = np.einsum("nhwcij,ijc->nhwc", patches, w)
        peaks.append(int(np.abs(acc).max()))
        acc = acc + stage.bias_acc
        assert np.abs(acc).max() <= stage.acc_bound <= INT32_MAX
        out = requantize(acc, stage.mult, stage.shift) + stage.out_zp
        codes = np.clip(out, stage.clamp_lo, stage.clamp_hi)
    raise AssertionError("program has no dense classifier")


@st.composite
def fuzz_programs(draw):
    """conv -> depthwise -> gap -> dense at random shapes and bitwidths.

    In ``extreme`` cases the first conv's input saturates at the top
    code, its padding is valid (no zero-point pixels) and every weight
    column is a constant ``+-qmax``: every output position then
    accumulates exactly the proven bound."""
    extreme = draw(st.booleans())
    levels = 2 ** draw(st.integers(2, 8)) - 1
    qmax = 2 ** (draw(st.integers(2, 8)) - 1) - 1
    size = draw(st.integers(3, 7))
    cin, cout = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kernel = draw(st.sampled_from([1, 2, 3]))
    stride = draw(st.sampled_from([1, 2]))
    images = draw(st.integers(1, 5))
    batch = draw(st.integers(1, images))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (images, size, size, cin)
    if extreme:
        padding, in_zp = "valid", 0
        signs = rng.choice([-1, 1], cout)
        weight = np.broadcast_to(signs * qmax, (kernel, kernel, cin, cout))
        x = np.full(shape, 1e6, dtype=np.float32)   # saturates: top code
    else:
        padding = draw(st.sampled_from(["same", "valid"]))
        in_zp = int(rng.integers(0, levels + 1))
        weight = rng.integers(-qmax, qmax + 1, (kernel, kernel, cin, cout))
        x = rng.uniform(-1.0, levels + 1.0, shape).astype(np.float32)
    conv = _conv_stage("conv", (size, size, cin),
                       weight.astype(np.int32), rng, stride=stride,
                       padding=padding, in_zp=in_zp)
    dw = _conv_stage("dw", conv.out_shape,
                     rng.integers(-qmax, qmax + 1, (3, 3, cout),
                                  dtype=np.int32),
                     rng, in_zp=conv.out_zp)
    program = _program(_head([conv, dw], cout, 255, rng), in_zp, levels)
    return program, x, batch, extreme


class TestExactGemm:
    """The arena's float-BLAS GEMMs are exact: range proof + int64 oracle.

    The arena must compute the exact integer result whatever dtype its
    GEMMs run in, so it is checked against an int64 interpreter rather
    than against the dtypes it uses."""

    @given(case=fuzz_programs())
    @settings(max_examples=60, deadline=None)
    def test_arena_equals_int64_oracle(self, case):
        program, x, batch, extreme = case
        logits = program.run(x, batch_size=batch)
        expected, peaks = _oracle(program, x)
        np.testing.assert_array_equal(logits, expected)
        weighted = [s for s in program.stages if s.weight is not None]
        for stage, peak in zip(weighted, peaks):
            assert peak <= stage.gemm_bound
        if extreme:                  # the fuzz really sits on the bound
            assert peaks[0] == weighted[0].gemm_bound > 0
        assert weighted[0].w2d.dtype == np.float32

    def test_bound_past_float32_takes_float64(self):
        """8-bit codes at the top, 3x3x64 all-127 weights: the bound
        255 * 127 * 576 is past 2**24, so the conv contracts in float64 —
        and still equals the oracle exactly, accumulator on the bound."""
        rng = np.random.default_rng(0)
        weight = np.full((3, 3, 64, 2), 127, dtype=np.int32)
        conv = _conv_stage("wide", (3, 3, 64), weight, rng,
                           padding="valid")
        program = _program(_head([conv], 2, 255, rng), 0, 255)
        finalize_program(program.stages, program.input_grid)
        assert conv.gemm_bound == 255 * 127 * 576 >= FLOAT32_EXACT
        assert conv.w2d.dtype == np.float64
        x = np.full((4, 3, 3, 64), 300.0, dtype=np.float32)
        expected, peaks = _oracle(program, x)
        assert peaks[0] == conv.gemm_bound
        np.testing.assert_array_equal(program.run(x, batch_size=3),
                                      expected)

    @pytest.mark.parametrize("case", ["wide_gemm", "bias_at_limit"])
    def test_int32_overflow_is_a_compile_error(self, case):
        rng = np.random.default_rng(1)
        if case == "wide_gemm":     # 16-bit codes x 300 taps of 127
            levels, weight = 2 ** 16 - 1, np.full((1, 1, 300, 2), 127)
        else:                       # a tiny GEMM on top of a huge bias
            levels, weight = 255, np.ones((1, 1, 2, 2))
        conv = _conv_stage("conv", (2, 2, weight.shape[2]),
                           weight.astype(np.int32), rng)
        if case == "bias_at_limit":
            conv.bias_acc = np.full(2, INT32_MAX, dtype=np.int32)
        program = _program(_head([conv], 2, 255, rng), 0, levels)
        with pytest.raises(CompileError, match="exceeds int32"):
            program.executor(2)

    def test_dtype_thresholds(self):
        assert exact_gemm_dtype(FLOAT32_EXACT - 1) == np.float32
        assert exact_gemm_dtype(FLOAT32_EXACT) == np.float64
        assert exact_gemm_dtype(FLOAT64_EXACT - 1) == np.float64
        assert exact_gemm_dtype(FLOAT64_EXACT) == np.int32

    def test_compiled_programs_are_proven(self, program8, program_mixed):
        for program in (program8, program_mixed):
            for stage in program.stages:
                if stage.weight is None:
                    continue
                assert 0 < stage.gemm_bound <= stage.acc_bound <= INT32_MAX
                if stage.kind != "dw":
                    assert stage.w2d.dtype == np.float32


class TestInstrumentation:
    def test_spans_and_counters(self, program8, infer_dataset):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            program8.run(infer_dataset.x_test[:32], batch_size=16)
        spans = [e for e in recorder.events if e.get("type") == "span"]
        batch_spans = [s for s in spans if s["name"] == "infer.batch"]
        assert len(batch_spans) == 2  # 32 images / batch 16
        stage_spans = [s for s in spans if s["name"].startswith("infer.")
                       and s["name"] != "infer.batch"]
        # one span per stage per batch, tagged with the op kind
        assert len(stage_spans) == 2 * len(program8.stages)
        kinds = {s["tags"]["op"] for s in stage_spans}
        assert {"conv", "dense", "gap"} <= kinds

        counters = [e for e in recorder.events
                    if e.get("type") == "counter"]
        images = sum(c["value"] for c in counters
                     if c["name"] == "infer.images")
        assert images == 32
        macs = sum(c["value"] for c in counters
                   if c["name"] == "infer.macs")
        assert macs == 32 * program8.total_macs()

    def test_silent_without_recorder(self, program8, infer_dataset):
        """With the null recorder, run() must not grow any event list."""
        logits = program8.run(infer_dataset.x_test[:8], batch_size=8)
        assert logits.shape == (8, 10)
