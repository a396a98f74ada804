"""The seeded model the serve-http daemon serves.

The seed architecture, with seeded initial weights, quantized under a
seeded mixed-precision policy from the 4-8 bit menu and PTQ-calibrated
on seeded images.  The serve-http check compares the daemon's answers
with ``Program.run`` of the same compiled program, integer against
integer, so the network need not be trained: untrained weights cost the
arena executor the same as trained ones.

Making the model is input generation, outside every timed region.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repobench.common import BIT_MENU, STREAM_IMAGES, policy_bits, stream

IMAGE_SIZE = 16
CLASSES = 10
CALIBRATION_IMAGES = 128
NOISE = 0.25


def images(seed: int, count: int, salt: int) -> np.ndarray:
    """Images of seeded classes: a 4x4 class prototype, upsampled, plus
    pixel noise, on a 1/64 grid (exact, short JSON numbers)."""
    prototypes = stream(seed, STREAM_IMAGES, 0).normal(
        size=(CLASSES, 4, 4, 3))
    rng = stream(seed, STREAM_IMAGES, salt)
    labels = rng.integers(0, CLASSES, size=count)
    rep = IMAGE_SIZE // 4
    x = np.repeat(np.repeat(prototypes[labels], rep, axis=1), rep, axis=2)
    x = x + NOISE * rng.normal(size=x.shape)
    return (np.round(x * 64.0) / 64.0).astype(np.float32)


def policy_for(space, bits):
    """The ``QuantizationPolicy`` giving slot ``i`` the bitwidth ``bits[i]``."""
    from repro.quant.policy import QuantizationPolicy
    if tuple(space.bitwidth_choices) != BIT_MENU:
        raise RuntimeError(f"the space's bit menu {space.bitwidth_choices} "
                           f"is not the benchmark's {BIT_MENU}")
    return QuantizationPolicy(
        {slot: int(bits[i]) for i, slot in enumerate(space.slot_names)},
        allowed=space.bitwidth_choices)


def build_model(seed: int) -> Tuple[object, object, List[int]]:
    """``(model, genome, bits)``: the seeded network, quantized and
    calibrated, and the genome that describes it."""
    from repro.quant.apply import apply_policy, calibrate
    from repro.space.builder import build_model as build
    from repro.space.genome import MixedPrecisionGenome
    from repro.space.space import SearchSpace

    space = SearchSpace("cifar10")
    bits = policy_bits(seed, len(space.slot_names))
    policy = policy_for(space, bits)
    model = build(space.seed_arch(), CLASSES,
                  rng=np.random.default_rng(seed))
    apply_policy(model, policy)
    calibrate(model, images(seed, CALIBRATION_IMAGES, salt=1))
    model.set_training(False)
    return model, MixedPrecisionGenome(space.seed_arch(), policy), bits
