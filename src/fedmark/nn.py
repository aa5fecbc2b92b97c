"""Dense feedforward networks with manual backpropagation.

A model's parameters are one flat float64 vector: layer by layer, row-major
weights then bias. Per-layer weight and bias arrays are views into it, so the
forward and backward passes work per layer while watermarking code addresses
the flat vector directly. A configurable layer boundary splits the vector in
two: the shared representation is its prefix and the private head the rest.
Gradients share the layout, so training code updates either part with one
slice operation. Training steps compute gradients only: losses come only with
`with_loss=True`, the default. Labels are checked once per `data.Dataset` and
once per `attacks.finetune_attack` call, not on every step.
"""

import itertools
from dataclasses import dataclass, field

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


@dataclass(eq=False)
class Model:
    """Dense network over one flat parameter vector.

    `params` holds every layer in order, each as row-major weights followed
    by its bias; `weights[k]` and `biases[k]` are reshaped views into it, so
    writes through either reach the other. Layers [0, head_start) form the
    shared representation, the prefix `params[:rep_param_count]`; layers
    [head_start, L) form the private head, the rest of the vector.
    """

    specs: list[LayerSpec]
    params: np.ndarray
    head_start: int
    offsets: tuple = field(init=False, repr=False)
    weights: tuple = field(init=False, repr=False)
    biases: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        self.offsets = (0, *itertools.accumulate(spec.flat_size for spec in self.specs))
        if self.params.shape != (self.offsets[-1],):
            raise ValueError(
                f"expected a parameter vector of length {self.offsets[-1]}, "
                f"got shape {self.params.shape}"
            )
        self.weights = tuple(
            self.params[lo : hi - s.output_dim].reshape(s.input_dim, s.output_dim)
            for s, lo, hi in zip(self.specs, self.offsets, self.offsets[1:])
        )
        self.biases = tuple(
            self.params[hi - s.output_dim : hi] for s, hi in zip(self.specs, self.offsets[1:])
        )

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
        return self.offsets[self.head_start]

    def layer_flat(self, layer_id: int) -> np.ndarray:
        return self.params[self.offsets[layer_id] : self.offsets[layer_id + 1]]

    def view(self, start: int, stop: int) -> "Model":
        """Layers [start, stop) as a model over a slice of this model's
        parameter vector, so in-place updates through either reach both."""
        params = self.params[self.offsets[start] : self.offsets[stop]]
        return Model(self.specs[start:stop], params, min(max(self.head_start - start, 0), stop - start))

    def copy(self) -> "Model":
        return Model(list(self.specs), self.params.copy(), self.head_start)


def build_layer_specs(input_dim: int, hidden_dims, num_classes: int) -> list[LayerSpec]:
    """Layers input -> hidden_dims -> classes: relu layers, then a softmax classifier."""
    dims = [input_dim, *hidden_dims, num_classes]
    return [
        LayerSpec(d_in, d_out, "softmax" if i == len(dims) - 2 else "relu")
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))
    ]


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
    pieces = []
    for spec in specs:
        scale = 1.0 / np.sqrt(spec.input_dim)
        pieces.append((scale * rng.standard_normal((spec.input_dim, spec.output_dim))).ravel())
        pieces.append(np.zeros(spec.output_dim))
    return Model(specs=list(specs), params=np.concatenate(pieces), head_start=head_start)


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


def main_task_loss_and_grads(model: Model, batch: Batch, *, with_loss: bool = True):
    """Mean softmax cross-entropy over the batch and its exact gradients.

    Returns (loss, grads) with grads one flat vector laid out like
    `model.params`; callers decide which slice of it to apply. With
    `with_loss=False` the loss is None and the labels go unchecked.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    num_classes = model.specs[-1].output_dim
    # Training steps skip this check: the engine's labels were bounded once by
    # `Dataset`, which also sizes its model, and `finetune_attack` checks once per call.
    if with_loss and (batch.labels.min() < 0 or batch.labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")

    logits, cache = forward(model, batch.inputs)
    delta = _softmax(logits)
    rows = np.arange(n)
    loss = -np.log(delta[rows, batch.labels]).mean() if with_loss else None
    delta[rows, batch.labels] -= 1.0
    delta /= n

    pieces = []
    for k in range(model.num_layers - 1, -1, -1):
        x_in, z = cache[k]
        if model.specs[k].activation == "relu":
            delta = delta * (z > 0.0)
        pieces = [(x_in.T @ delta).ravel(), delta.sum(axis=0), *pieces]
        if k > 0:
            delta = delta @ model.weights[k].T
    return loss, np.concatenate(pieces)


def minibatches(inputs: np.ndarray, labels: np.ndarray, batch_size: int, rng):
    """Shuffled minibatches of already validated rows; they skip `Batch`'s checks."""
    order = rng.permutation(len(labels))
    for lo in range(0, len(order), batch_size):
        take = order[lo : lo + batch_size]
        batch = object.__new__(Batch)
        batch.inputs, batch.labels = inputs[take], labels[take]
        yield batch


def apply_sgd(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """In-place SGD step p <- p - lr * g on a parameter vector or a slice of
    one; pass matching slices of params and grads to update part of a model."""
    params -= lr * grads


def evaluate_accuracy(model: Model, dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    if len(dataset.labels) == 0:
        raise ValueError("empty dataset")
    logits, _ = forward(model, dataset.inputs)
    return float((logits.argmax(axis=1) == dataset.labels).mean())
