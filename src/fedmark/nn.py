"""Dense feedforward networks with manual backpropagation.

Parameters are plain numpy arrays so watermarking code can address the
flattened weight space directly. The model is split at a configurable layer
boundary into a shared representation part and a private head part; training
code updates the two parts separately.
"""

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "identity", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer.

    The "softmax" activation only marks the output layer; the forward pass
    emits logits and the softmax itself lives inside the cross-entropy loss.
    """

    input_dim: int
    output_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ValueError(
                f"layer dims must be positive, got {self.input_dim}x{self.output_dim}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def flat_size(self) -> int:
        """Length of the flattened parameter vector (weights then bias)."""
        return self.input_dim * self.output_dim + self.output_dim


@dataclass
class Batch:
    """A minibatch of inputs and integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d, got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must be one integer per input row")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Model:
    """Dense network whose layers [0, head_start) form the shared
    representation and layers [head_start, L) the private head."""

    specs: list[LayerSpec]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_start: int

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def rep_layer_ids(self) -> range:
        return range(self.head_start)

    @property
    def head_layer_ids(self) -> range:
        return range(self.head_start, self.num_layers)

    @property
    def rep_param_count(self) -> int:
        return sum(self.specs[k].flat_size for k in self.rep_layer_ids)

    def view(self, start: int, stop: int) -> "Model":
        """Layers [start, stop) as a model holding this model's own weight
        and bias arrays, so in-place updates through either reach both."""
        return Model(
            specs=self.specs[start:stop],
            weights=self.weights[start:stop],
            biases=self.biases[start:stop],
            head_start=min(max(self.head_start - start, 0), stop - start),
        )

    def copy(self) -> "Model":
        return Model(
            specs=list(self.specs),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            head_start=self.head_start,
        )


def init_model(specs: list[LayerSpec], seed: int, head_start: int | None = None) -> Model:
    """Create a model with seeded normal weights scaled by 1/sqrt(input_dim).

    head_start defaults to the final layer, i.e. a single-layer head.
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    for prev, cur in zip(specs, specs[1:]):
        if prev.output_dim != cur.input_dim:
            raise ValueError(
                f"layer dims do not chain: {prev.output_dim} -> {cur.input_dim}"
            )
    for k, spec in enumerate(specs):
        if spec.activation == "softmax" and k != len(specs) - 1:
            raise ValueError("softmax activation is only allowed on the final layer")
    if head_start is None:
        head_start = len(specs) - 1
    if not 1 <= head_start <= len(specs) - 1:
        raise ValueError(
            f"head_start must leave at least one layer on each side, got {head_start}"
        )
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for spec in specs:
        scale = 1.0 / np.sqrt(spec.input_dim)
        weights.append(scale * rng.standard_normal((spec.input_dim, spec.output_dim)))
        biases.append(np.zeros(spec.output_dim))
    return Model(specs=list(specs), weights=weights, biases=biases, head_start=head_start)


def forward(model: Model, inputs: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the network, returning (logits, cache) where cache holds each
    layer's input and pre-activation for the backward pass."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.specs[0].input_dim:
        raise ValueError(
            f"inputs must have shape (batch, {model.specs[0].input_dim}), got {x.shape}"
        )
    cache = []
    for spec, w, b in zip(model.specs, model.weights, model.biases):
        z = x @ w + b
        cache.append((x, z))
        x = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return x, cache


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def main_task_loss_and_grads(model: Model, batch: Batch):
    """Mean softmax cross-entropy over the batch and its exact gradients.

    Returns (loss, grads) with grads a list of (dW, db) per layer covering
    the whole model; callers decide which layers to update.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    num_classes = model.specs[-1].output_dim
    if batch.labels.min() < 0 or batch.labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")

    logits, cache = forward(model, batch.inputs)
    probs = _softmax(logits)
    n = len(batch)
    loss = -np.log(probs[np.arange(n), batch.labels]).mean()

    delta = probs.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    grads = [None] * model.num_layers
    for k in range(model.num_layers - 1, -1, -1):
        x_in, z = cache[k]
        if model.specs[k].activation == "relu":
            delta = delta * (z > 0.0)
        grads[k] = (x_in.T @ delta, delta.sum(axis=0))
        if k > 0:
            delta = delta @ model.weights[k].T
    return loss, grads


def apply_sgd(model: Model, grads: list, lr: float, layers=None) -> Model:
    """In-place SGD step p <- p - lr * g, optionally restricted to `layers`."""
    ids = range(model.num_layers) if layers is None else layers
    for k in ids:
        dw, db = grads[k]
        model.weights[k] -= lr * dw
        model.biases[k] -= lr * db
    return model


def evaluate_accuracy(model: Model, dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    if len(dataset.labels) == 0:
        raise ValueError("empty dataset")
    logits, _ = forward(model, dataset.inputs)
    return float((logits.argmax(axis=1) == dataset.labels).mean())


# --- flattened parameter views ------------------------------------------------
#
# The flat layout of a layer is always row-major weights followed by the bias;
# the flat layout of the representation concatenates its layers in order.


def flatten_layer(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return np.concatenate([weights.ravel(), bias])


def unflatten_layer(flat: np.ndarray, spec: LayerSpec) -> tuple[np.ndarray, np.ndarray]:
    if flat.shape != (spec.flat_size,):
        raise ValueError(f"expected flat length {spec.flat_size}, got {flat.shape}")
    split = spec.input_dim * spec.output_dim
    return flat[:split].reshape(spec.input_dim, spec.output_dim).copy(), flat[split:].copy()


def layer_flat(model: Model, layer_id: int) -> np.ndarray:
    return flatten_layer(model.weights[layer_id], model.biases[layer_id])


def rep_flat(model: Model) -> np.ndarray:
    return np.concatenate([layer_flat(model, k) for k in model.rep_layer_ids])


def set_rep_flat(model: Model, flat: np.ndarray) -> None:
    if flat.shape != (model.rep_param_count,):
        raise ValueError(
            f"expected representation length {model.rep_param_count}, got {flat.shape}"
        )
    offset = 0
    for k in model.rep_layer_ids:
        size = model.specs[k].flat_size
        w, b = unflatten_layer(flat[offset : offset + size], model.specs[k])
        model.weights[k] = w
        model.biases[k] = b
        offset += size


def add_rep_flat_grad(model: Model, grads: list, flat_grad: np.ndarray) -> None:
    """Scatter a gradient over the flattened representation into per-layer
    (dW, db) entries of `grads`, adding in place."""
    if flat_grad.shape != (model.rep_param_count,):
        raise ValueError("flat gradient does not match representation size")
    offset = 0
    for k in model.rep_layer_ids:
        spec = model.specs[k]
        piece = flat_grad[offset : offset + spec.flat_size]
        dw, db = grads[k]
        split = spec.input_dim * spec.output_dim
        dw += piece[:split].reshape(spec.input_dim, spec.output_dim)
        db += piece[split:]
        offset += spec.flat_size
