"""Post-training weight protection: add noise once, answer queries.

protect_existing adds a single draw of calibrated noise to an already
trained head; it is the only place release noise is added. predict_protected
answers every query from the noisy copy. The clean head stays inside the
ProtectedModel record purely so utility loss and the unprotected attack
baseline can be measured against it; it is excluded from exported release
files, as is the noise seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .mechanisms import MechanismSpec, Sensitivity, budget_for_scale, sample_noise
from .pipeline import check_model, encode, predict_from_representations
from .rng import RngStream, check_seed
from .weights import WeightVector, load_weights, save_weights, write_json

_NOISE_STREAM = 0


def noise_vector(spec: MechanismSpec, noise_seed: int, n: int) -> np.ndarray:
    """The exact noise a ProtectedModel built from (spec, noise_seed) carries."""
    return sample_noise(spec, RngStream(noise_seed, _NOISE_STREAM), n)


@dataclass(frozen=True)
class ProtectedModel:
    """One protected release: frozen encoder, clean head, noisy head.

    omega_noisy = omega_clean + noise_vector(spec, noise_seed, len(omega_clean));
    the noise is applied exactly once, and re-protection always starts again
    from omega_clean.
    """

    theta: WeightVector
    omega_clean: WeightVector
    omega_noisy: WeightVector
    spec: MechanismSpec
    noise_seed: int

    def __post_init__(self):
        if self.omega_clean.shape_tag != self.omega_noisy.shape_tag:
            raise ValueError("clean and noisy heads must share a shape_tag")
        if len(self.omega_clean) != len(self.omega_noisy):
            raise ValueError("clean and noisy heads must have equal length")
        check_seed(self.noise_seed, "noise_seed")


def protect_existing(theta: WeightVector, omega: WeightVector, spec: MechanismSpec, noise_seed: int) -> ProtectedModel:
    """Add the spec's noise to an already-trained head; nothing is retrained.

    This is the one place release noise is added. Changing spec.scale and
    calling again re-protects the same weights at a new budget without
    another training run. A non-finite encoder, clean head or noisy head
    (noise at a scale that overflows), or weights whose length contradicts
    their tags, raise ValueError, so they never reach a release.
    """
    check_model(theta, omega)
    if not np.all(np.isfinite(theta.values)):
        raise ValueError("encoder weights must be finite")
    if not np.all(np.isfinite(omega.values)):
        raise ValueError("head weights must be finite")
    noisy = WeightVector(omega.values + noise_vector(spec, noise_seed, len(omega)), omega.shape_tag)
    if not np.all(np.isfinite(noisy.values)):
        raise ValueError("noisy head weights must be finite; the noise overflowed")
    return ProtectedModel(theta, omega, noisy, spec, noise_seed)


def predict_protected(model: ProtectedModel, x):
    """Released prediction path; reads only the noisy head."""
    return predict_from_representations(model.omega_noisy, encode(model.theta, x))


def export_protected_model(model: ProtectedModel, base_path, sensitivity: Sensitivity) -> dict:
    """Write the release files: theta, noisy head, and a JSON sidecar.

    Produces {base}.theta.bin, {base}.omega.bin, and {base}.json. The sidecar
    records the mechanism kind, scale and delta, and the epsilon the scale
    spends at the given sensitivity, so every release states its budget. The
    clean head and the noise seed are deliberately absent from all three
    files.
    """
    base = str(base_path)
    sidecar = {**dataclasses.asdict(model.spec), "epsilon": budget_for_scale(model.spec, sensitivity).epsilon}
    save_weights(model.theta, base + ".theta.bin")
    save_weights(model.omega_noisy, base + ".omega.bin")
    write_json(sidecar, base + ".json")
    return sidecar


def load_protected_release(base_path) -> tuple[WeightVector, WeightVector, dict]:
    """Read back an exported release: (theta, omega_noisy, sidecar dict).
    Raises ValueError naming the release unless its weights are an encoder
    and a head on its outputs, each as long as its tag says."""
    base = str(base_path)
    theta = load_weights(base + ".theta.bin")
    omega_noisy = load_weights(base + ".omega.bin")
    try:
        check_model(theta, omega_noisy)
    except ValueError as exc:
        raise ValueError(f"{base}: {exc}") from None
    with open(base + ".json") as fh:
        sidecar = json.load(fh)
    return theta, omega_noisy, sidecar
