"""Dense feedforward networks with manual backpropagation.

A model's parameters are one flat float64 vector: layer by layer, row-major
weights then bias. Per-layer weight and bias arrays are views into it, so the
forward and backward passes work per layer while watermarking code addresses
the flat vector directly. A configurable layer boundary splits the vector in
two: the shared representation is its prefix and the private head the rest.
Gradients share the layout, so training code updates either part with one
slice operation. Training steps compute gradients only: no run reads a loss
value, so the cross-entropy itself is stated only in `tests/reference.py`,
which the gradient checks differentiate. A `Batch` is a plain pair of arrays:
labels are checked once per `data.Dataset` and once per
`attacks.finetune_attack` call, not on every step. One `forward` serves
training steps, feature passes and evaluation; the last two keep no
activation cache.

A cohort is a `Model` whose parameters are a (C, P) stack, one model per row,
with (C, d_in, d_out) weight and (C, d_out) bias views. Every kernel works on
the trailing axes, so the same code serves one model and a cohort: a cohort
batch stacks one batch per row, (C, B, d) inputs and (C, B) labels, and a
cohort's `evaluate_accuracy` gives one score per row. Each row's
products are their own BLAS calls with the operand layout of the one-model
case (`np.matmul` over stacked views, never `np.einsum`), so row i of a cohort
computes bit for bit what `Model(specs, params[i], head_start)` computes.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer.

    The "softmax" activation only marks the output layer; the forward pass
    emits logits and the softmax itself lives inside the cross-entropy gradient.
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
    """A minibatch of (B, d) inputs and (B,) integer labels, or a cohort
    batch of (C, B, d) inputs and (C, B) labels, one batch per model. Its
    rows come from an already validated `data.Dataset`, so it checks nothing."""

    inputs: np.ndarray
    labels: np.ndarray


def _layer_views(params: np.ndarray, specs, offsets) -> tuple[tuple, tuple]:
    """Per-layer (..., d_in, d_out) weight and (..., d_out) bias views of a
    parameter vector or of a stack of them."""
    lead = params.shape[:-1]
    weights, biases = [], []
    for s, lo, hi in zip(specs, offsets, offsets[1:]):
        mid = hi - s.output_dim
        weights.append(params[..., lo:mid].reshape(*lead, s.input_dim, s.output_dim))
        biases.append(params[..., mid:hi])
    return tuple(weights), tuple(biases)


@dataclass(eq=False)
class Model:
    """Dense network over one flat parameter vector.

    `params` holds every layer in order, each as row-major weights followed
    by its bias; `weights[k]` and `biases[k]` are reshaped views into it, so
    writes through either reach the other. Layers [0, head_start) form the
    shared representation, the prefix `params[..., :rep_param_count]`;
    layers [head_start, L) form the private head, the rest of the vector.
    A (C, P) `params` makes the model a cohort of C models, one per row.
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
        if self.params.ndim not in (1, 2) or self.params.shape[-1] != self.offsets[-1]:
            raise ValueError(
                f"expected a parameter vector of length {self.offsets[-1]} or a stack "
                f"of them, got shape {self.params.shape}"
            )
        self.weights, self.biases = _layer_views(self.params, self.specs, self.offsets)

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def head_layer_ids(self) -> range:
        return range(self.head_start, self.num_layers)

    @property
    def rep_param_count(self) -> int:
        return self.offsets[self.head_start]

    def layer_flat(self, layer_id: int) -> np.ndarray:
        return self.params[..., self.offsets[layer_id] : self.offsets[layer_id + 1]]

    def view(self, start: int, stop: int) -> "Model":
        """Layers [start, stop) as a model over a slice of this model's
        parameter vector, so in-place updates through either reach both."""
        params = self.params[..., self.offsets[start] : self.offsets[stop]]
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


def param_counts(specs, head_start: int) -> tuple[int, list[int]]:
    """The parameter count of the representation, layers [0, head_start),
    and that of each head layer, for a model of `specs` split there."""
    sizes = [spec.flat_size for spec in specs]
    return sum(sizes[:head_start]), sizes[head_start:]


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


def forward(model: Model, inputs: np.ndarray, *, with_cache: bool = True, out=None) -> tuple[np.ndarray, list | None]:
    """Run the network, returning (logits, cache) where cache holds each
    layer's input and pre-activation for the backward pass. A cohort takes
    (C, batch, d) inputs, one batch per model. With `with_cache=False` the
    cache is None and each ReLU runs in place, so at most two activations
    are alive at a time; the logits are the same bits, written into `out`
    if it is given."""
    x = np.asarray(inputs, dtype=np.float64)
    lead = model.params.shape[:-1]
    if x.ndim != len(lead) + 2 or x.shape[-1] != model.specs[0].input_dim:
        raise ValueError(
            f"inputs must have shape {(*lead, 'batch', model.specs[0].input_dim)}, got {x.shape}"
        )
    cache = [] if with_cache else None
    last = model.num_layers - 1
    for k, (spec, w, b) in enumerate(zip(model.specs, model.weights, model.biases)):
        z = np.matmul(x, w, out=out if k == last and not with_cache else None)
        z += b[..., None, :]
        if with_cache:
            cache.append((x, z))
        x = np.maximum(z, 0.0, out=None if with_cache else z) if spec.activation == "relu" else z
    return x, cache


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def main_task_loss_and_grads(model: Model, batch: Batch) -> np.ndarray:
    """Exact gradients of the mean softmax cross-entropy over the batch, laid
    out like `model.params`; callers decide which slice of it to apply. A
    cohort gets a (C, P) stack, one row per model. The loss value is not
    computed, and the labels go unchecked: the engine's were bounded once by
    `Dataset`, which also sizes its model, and `finetune_attack` checks its
    own once per call.
    """
    labels = batch.labels
    n = labels.shape[-1]
    if n == 0:
        raise ValueError("empty batch")
    num_classes = model.specs[-1].output_dim

    logits, cache = forward(model, batch.inputs)
    delta = _softmax(logits)
    # subtracting the one-hot labels leaves every other entry as it was (x - 0.0 == x)
    delta -= labels[..., None] == np.arange(num_classes)
    delta /= n

    # each layer's gradient is written straight into its place in the layout
    grads = np.empty(model.params.shape)
    grad_weights, grad_biases = _layer_views(grads, model.specs, model.offsets)
    for k in range(model.num_layers - 1, -1, -1):
        x_in, z = cache[k]
        if model.specs[k].activation == "relu":
            delta *= z > 0.0
        np.matmul(x_in.swapaxes(-1, -2), delta, out=grad_weights[k])
        np.add.reduce(delta, axis=-2, out=grad_biases[k])
        if k > 0:
            delta = np.matmul(delta, model.weights[k].swapaxes(-1, -2))
    return grads


def minibatches(inputs: np.ndarray, labels: np.ndarray, batch_size: int, rng):
    """Shuffled minibatches of already validated rows."""
    order = rng.permutation(len(labels))
    for lo in range(0, len(order), batch_size):
        take = order[lo : lo + batch_size]
        yield Batch(inputs[take], labels[take])


def apply_sgd(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """In-place SGD step p <- p - lr * g on a parameter vector, a stack of
    them, or a slice of either; pass matching slices of params and grads to
    update part of a model. `grads` is scratch space: it holds lr * g after
    the step, which spares a temporary of its size."""
    np.multiply(grads, lr, out=grads)
    params -= grads


def evaluate_accuracy(model: Model, dataset):
    """Fraction of samples whose argmax logit matches the label. A sample
    with any non-finite logit is a miss: argmax would read an all-NaN row
    as class 0. A cohort and a cohort batch give a (C,) array, row i the
    one-model score of row i. No activation cache is kept."""
    if dataset.labels.shape[-1] == 0:
        raise ValueError("empty dataset")
    logits, _ = forward(model, dataset.inputs, with_cache=False)
    hits = (logits.argmax(axis=-1) == dataset.labels) & np.isfinite(logits).all(axis=-1)
    acc = hits.mean(axis=-1)
    return float(acc) if model.params.ndim == 1 else acc
