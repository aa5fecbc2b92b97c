"""Reference values of the losses that fedmark's training terms descend.

The kernels `nn.main_task_loss_and_grads`, `watermark.embedding_loss_and_grad`,
`watermark.private_embedding_loss_and_grads` and `slicing.slice_loss_and_grad`
return gradients only: no run reads a loss value. The losses are written here
from their definitions, apart from the kernels and in plain numpy, so that
finite differences of them check the kernels' gradients independently.
"""

import numpy as np


def cross_entropy(model, batch):
    """Mean softmax cross-entropy of `model`'s logits against the batch labels,
    or a (C,) array for a cohort and its cohort batch. Each layer is
    x @ W + b, followed by a ReLU where its spec says so."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    for spec, weight, bias in zip(model.specs, model.weights, model.biases):
        x = x @ weight + bias[..., None, :]
        if spec.activation == "relu":
            x = np.maximum(x, 0.0)
    top = x.max(axis=-1, keepdims=True)
    log_norm = top[..., 0] + np.log(np.exp(x - top).sum(axis=-1))
    picked = np.take_along_axis(x, batch.labels[..., None], axis=-1)[..., 0]
    return (log_norm - picked).mean(axis=-1)


def embedding_bce(params, matrix, bits) -> float:
    """Mean binary cross-entropy between sigmoid(matrix.T @ params) and the
    bits, with -log sigmoid(p) written as log(1 + e^-p), which cannot
    overflow."""
    proj = matrix.T @ params
    bits = np.asarray(bits, dtype=np.float64)
    return float(np.mean(bits * np.logaddexp(0.0, -proj) + (1.0 - bits) * np.logaddexp(0.0, proj)))


def private_mark_loss(model, spec) -> float:
    """The head-mark loss of one model: the sum over its head layers of
    `embedding_bce` of the layer against its segment of the mark."""
    layers = zip(model.head_layer_ids, spec.segments, strict=True)
    return sum(embedding_bce(model.layer_flat(k), spec.matrix(pos), bits) for pos, (k, bits) in enumerate(layers))
