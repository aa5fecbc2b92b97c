"""Property tests of the run's invariants: partitions, slice layouts, the key
and manifest formats, the config file, the tamper flip count, watermark
scoring, cohort scoring, stacked private-mark gradients and the server's
running-sum aggregate."""

import csv
import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from fedmark import engine, nn  # noqa: E402
from fedmark.attacks import tamper_bits  # noqa: E402
from fedmark.config import (  # noqa: E402
    ConfigError,
    RunConfig,
    config_text,
    load_config,
    region_params,
    validate_config,
)
from fedmark.data import partition_dirichlet, partition_k_labels  # noqa: E402
from fedmark.artifacts import (  # noqa: E402
    load_run,
    read_manifest,
    write_final_metrics_csv,
    write_manifest,
    write_run_artifacts,
)
from fedmark.slicing import SliceAssignment, assign_slices, extract_slice  # noqa: E402
from fedmark.watermark import (  # noqa: E402
    _sigmoid,
    bits_to_hex,
    detection_rate,
    embedding_loss_and_grad,
    extract_bits,
    gen_embedding_matrix,
    hex_to_bits,
    make_private_spec,
    private_embedding_loss_and_grads,
    random_bits,
    segment_lengths,
    stack_private_marks,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

bit_vectors = st.lists(st.integers(0, 1), max_size=200).map(lambda b: np.array(b, dtype=np.uint8))


def shuffled_labels(num_classes, per_class, seed):
    return np.random.default_rng(seed).permutation(np.repeat(np.arange(num_classes), per_class))


# --- partitions -------------------------------------------------------------------


@st.composite
def k_label_cases(draw):
    """Labels, client count and k; every class has a sample for each client."""
    num_classes = draw(st.integers(2, 6))
    n_clients = draw(st.integers(2, 8))
    k = draw(st.integers(1, num_classes))
    per_class = draw(st.integers(n_clients, n_clients + 10))
    labels = shuffled_labels(num_classes, per_class, draw(st.integers(0, 2**32 - 1)))
    return labels, n_clients, k, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(k_label_cases())
def test_k_label_partitions_are_disjoint_with_exactly_k_labels(case):
    labels, n_clients, k, seed = case
    shards = partition_k_labels(labels, n_clients, k, seed).client_indices
    placed = np.concatenate(shards)
    assert len(np.unique(placed)) == len(placed)
    assert [len(np.unique(labels[shard])) for shard in shards] == [k] * n_clients


@PROPERTY
@given(k_label_cases())
def test_k_label_partitions_drop_no_class_the_clients_can_cover(case):
    labels, n_clients, k, seed = case
    assume(n_clients * k >= len(np.unique(labels)))
    shards = partition_k_labels(labels, n_clients, k, seed).client_indices
    np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(len(labels)))


@PROPERTY
@given(
    st.integers(2, 6),
    st.integers(2, 8),
    st.integers(5, 30),
    st.floats(0.3, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_dirichlet_partitions_place_every_sample_once(num_classes, n_clients, per_class, beta, seed):
    labels = shuffled_labels(num_classes, per_class, seed)
    shards = partition_dirichlet(labels, n_clients, beta, seed).client_indices
    assert len(shards) == n_clients and all(len(shard) for shard in shards)
    np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(len(labels)))


# --- slice layouts ----------------------------------------------------------------


@PROPERTY
@given(
    st.lists(st.integers(0, 1), max_size=64).map(lambda b: np.array(b, dtype=np.uint8)),
    st.integers(0, 8),
    st.integers(0, 24),
    st.integers(0, 200),
)
@example(np.ones(10, dtype=np.uint8), 3, 4, 12)
def test_assign_slices_cuts_the_bits_into_disjoint_regions(bits, n_clients, region_size, rep_param_count):
    """The slices join to the bits in client order, every slice but the last
    holds len(bits) // n_clients bits, and the regions are disjoint and lie
    inside the representation; every other layout raises ValueError."""
    base = len(bits) // n_clients if n_clients else 0
    feasible = (
        base >= 1
        and region_size >= len(bits) - base * (n_clients - 1)  # the largest slice fits its region
        and n_clients * region_size <= rep_param_count
    )
    if not feasible:
        with pytest.raises(ValueError):
            assign_slices(bits, n_clients, rep_param_count, region_size, seed=0)
        return
    out = assign_slices(bits, n_clients, rep_param_count, region_size, seed=0)
    assert [a.client_id for a in out] == list(range(n_clients))
    np.testing.assert_array_equal(np.concatenate([a.bits for a in out]), bits)
    assert [len(a.bits) for a in out[:-1]] == [base] * (n_clients - 1)
    spans = sorted((a.region_start, a.region_stop) for a in out)
    assert spans[0][0] >= 0 and spans[-1][1] <= rep_param_count
    assert all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))


@PROPERTY
@given(
    st.integers(2, 40),
    st.integers(1, 400),
    st.lists(st.integers(1, 32), min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(0, 60),
)
@example(n_clients=10, slice_total_bits=5, hidden_dims=[64, 64], head_layers=1, region_size=0)
@example(n_clients=200, slice_total_bits=1280, hidden_dims=[64, 64], head_layers=1, region_size=0)
@example(n_clients=200, slice_total_bits=2000, hidden_dims=[64, 64], head_layers=1, region_size=24)
@example(n_clients=40, slice_total_bits=40, hidden_dims=[1], head_layers=1, region_size=0)
def test_validate_config_rejects_exactly_the_slice_layouts_assign_slices_rejects(
    n_clients, slice_total_bits, hidden_dims, head_layers, region_size
):
    """A blobs config's slices are rejected by validate_config, naming
    slice_total_bits or region_size, exactly when assign_slices raises on the
    layout that run_training would hand it: both state one rule."""
    assume(head_layers <= len(hidden_dims))
    config = dataclasses.replace(
        RunConfig(),
        n_clients=n_clients,
        slice_total_bits=slice_total_bits,
        hidden_dims=tuple(hidden_dims),
        head_layers=head_layers,
        region_size=region_size,
        private_bits=0,  # no head split to reject
    )
    specs = nn.build_layer_specs(config.blob_dim, config.hidden_dims, config.blob_classes)
    rep_size = nn.init_model(specs, 0, len(specs) - head_layers).rep_param_count
    bits = random_bits(slice_total_bits, 0)
    try:
        assign_slices(bits, n_clients, rep_size, region_params(config, rep_size), seed=0)
        raised = False
    except ValueError:
        raised = True
    try:
        validate_config(config)
        rejected = ""
    except ConfigError as err:
        rejected = str(err)
    assert bool(rejected) == raised
    assert not rejected or "slice_total_bits" in rejected or "region_size" in rejected


# --- round trips ------------------------------------------------------------------


@PROPERTY
@given(bit_vectors)
def test_bits_survive_hex(bits):
    np.testing.assert_array_equal(hex_to_bits(bits_to_hex(bits), len(bits)), bits)


@st.composite
def assignments(draw):
    bits = draw(bit_vectors.filter(len))
    start = draw(st.integers(0, 10_000))
    stop = start + len(bits) + draw(st.integers(0, 50))
    return SliceAssignment(draw(st.integers(0, 500)), bits, start, stop, draw(st.integers(0, 2**64 - 1)))


@PROPERTY
@given(st.lists(assignments(), max_size=5))
def test_manifest_round_trips(written):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "slices.manifest")
        write_manifest(written, path)
        read = read_manifest(path)
    assert len(read) == len(written)
    for a, b in zip(written, read):
        assert (a.client_id, a.region_start, a.region_stop, a.matrix_seed) == (
            b.client_id,
            b.region_start,
            b.region_stop,
            b.matrix_seed,
        )
        np.testing.assert_array_equal(a.bits, b.bits)


@st.composite
def configs(draw):
    """A valid config with random values in the keys of every field type."""
    config = RunConfig(
        n_clients=draw(st.integers(2, 40)),
        sample_rate=draw(st.floats(0.05, 1.0)),
        rounds=draw(st.integers(0, 50)),
        lr=draw(st.floats(1e-6, 10.0)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 128), min_size=1, max_size=3))),
        private_bits=draw(st.integers(0, 200)),
        slice_total_bits=0,
        embed_strength=draw(st.floats(0.0, 10.0)),
        blob_spread=draw(st.floats(0.0, 3.0)),
        partition=draw(st.sampled_from(["dirichlet", "klabels"])),
        dirichlet_beta=draw(st.floats(0.01, 10.0)),
        fresh_tamper=draw(st.booleans()),
        detector=draw(st.booleans()),
        ban_rejected=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31)),
        output_dir=draw(st.text("abcxyz_/-0189", min_size=1, max_size=12)),
    )
    try:
        validate_config(config)
    except ConfigError:
        assume(False)
    return config


@PROPERTY
@given(configs())
def test_config_text_round_trips(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        with open(path, "w") as f:
            f.write(config_text(config))
        loaded = load_config(path)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(config)


STRING_KEYS = ("output_dir", "idx_images", "idx_labels", "dataset", "partition")


@PROPERTY
@given(configs(), st.sampled_from(STRING_KEYS), st.text(" \t\n\r\x0b\x0c\x85\u2028ab/.", max_size=8))
def test_config_strings_round_trip_or_fail_naming_the_key(config, key, value):
    """A string value with edge whitespace or a line break cannot survive a
    key=value line whose value is stripped: validation rejects it, naming
    the key, and every value it accepts round-trips."""
    changed = dataclasses.replace(config, **{key: value})
    try:
        validate_config(changed)
    except ConfigError as err:
        assert key in str(err)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(config_text(changed))
        loaded = load_config(path)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(changed)


# --- the config domains -----------------------------------------------------------

FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
# values of another type than a key of each kind takes
WRONG_TYPES = {
    bool: ["false", 1, 0.0, None],
    int: [True, 2.0, "2", None],
    float: [False, "0.5", None, (1.0,)],
    str: [1, None, True, ("run",)],
    tuple: [[8, 8], (8, True), (8, 2.0), (), "8,8", 8],
}
# a run of milliseconds; an in-domain draw changes a few of its keys
SMALL_RUN = RunConfig(
    n_clients=3,
    rounds=1,
    head_epochs=1,
    hidden_dims=(4, 4),
    private_bits=4,
    slice_total_bits=3,
    blob_classes=3,
    blob_dim=3,
    blob_samples_per_class=8,
)
# a drawn number reaches this far above its lower bound, or above the small
# run's value for a key without one, so the runs stay small
SPAN = 4


def out_of_domain(f):
    """Values that break a field's domain: another type, a number beyond a
    bound (in a tuple, as one entry), a non-finite float, a string that
    config.txt cannot hold, or one outside the allowed strings."""
    kind = type(f.default)
    choices = f.metadata.get("choices")
    outside = [st.sampled_from(WRONG_TYPES[kind])]
    for op, bound in f.metadata.get("bounds", {}).items():
        if kind is float and op in ("ge", "gt"):
            beyond = st.floats(max_value=bound, exclude_max=op == "ge")
        elif kind is float:
            beyond = st.floats(min_value=bound, exclude_min=op == "le")
        elif op in ("ge", "gt"):
            beyond = st.integers(max_value=bound - (op == "ge"))
        else:
            beyond = st.integers(min_value=bound + (op == "le"))
        outside.append(beyond.map(lambda v: (8, v)) if kind is tuple else beyond)
    if kind is float:
        outside.append(st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind is str:
        outside.append(st.sampled_from([" run", "run ", "a\nb", "\t"]))
    if choices:
        outside.append(st.text("abdiklorsx", max_size=9).filter(lambda text: text not in choices))
    return st.one_of(outside)


def in_domain(f):
    """Small values inside a field's domain. A free string keeps the small
    run's value: a path is only in a run's domain when it names a readable
    file."""
    kind = type(f.default)
    bounds = f.metadata.get("bounds", {})
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.sampled_from(f.metadata.get("choices") or [getattr(SMALL_RUN, f.name)])
    low = bounds.get("gt", bounds.get("ge", getattr(SMALL_RUN, f.name)))
    high = bounds.get("lt", bounds.get("le", low + SPAN))
    if kind is float:
        return st.floats(low, high, exclude_min="gt" in bounds, exclude_max="lt" in bounds)
    numbers = st.integers(low + ("gt" in bounds), high - ("lt" in bounds))
    return st.lists(numbers, min_size=1, max_size=3).map(tuple) if kind is tuple else numbers


@pytest.mark.parametrize("name", FIELDS)
@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_out_of_domain_values_fail_naming_the_key(name, data):
    """A value outside its field's domain, or of another type, fails
    validation with an error that names the key."""
    value = data.draw(out_of_domain(FIELDS[name]))
    with pytest.raises(ConfigError, match=rf"\b{name} must"):
        validate_config(dataclasses.replace(RunConfig(), **{name: value}))


@st.composite
def small_in_domain_configs(draw):
    """The small run with up to four keys drawn from their domains."""
    names = draw(st.lists(st.sampled_from(list(FIELDS)), max_size=4, unique=True))
    return dataclasses.replace(SMALL_RUN, **{name: draw(in_domain(FIELDS[name])) for name in names})


@settings(PROPERTY, max_examples=150)
@given(small_in_domain_configs())
def test_in_domain_configs_fail_naming_a_key_or_run_and_round_trip(config):
    """A config drawn from the domains either fails with an error that names
    a key, from a cross-key rule before training or from the partition, or
    trains, writes a run whose config.txt loads back equal, and passes
    `load_run`."""
    with tempfile.TemporaryDirectory() as tmp:
        config = dataclasses.replace(config, output_dir=os.path.join(tmp, "run"))
        try:
            result = engine.run_training(config)
        except ConfigError as err:
            assert any(name in str(err) for name in FIELDS), str(err)
            return
        write_run_artifacts(result, config, config.output_dir)
        assert load_config(os.path.join(config.output_dir, "config.txt")) == config
        load_run(config.output_dir)


# --- tampering --------------------------------------------------------------------


@PROPERTY
@given(bit_vectors.filter(len), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_tamper_flips_the_floor_count(bits, rate, seed):
    flipped = int(np.count_nonzero(tamper_bits(bits, rate, seed) != bits))
    assert flipped == (max(1, math.floor(rate * len(bits))) if rate > 0.0 else 0)


# --- watermark scoring ------------------------------------------------------------


@PROPERTY
@given(st.integers(0, 5), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(n=1, bits=1, seed=0)
def test_detection_rate_of_a_stack_equals_each_rows_rate(n, bits, seed):
    """`detection_rate` of an (n, bits) read is the (n,) array of each row's
    one-vector rate, against a stack of expected rows or one shared vector;
    a one-vector rate is the plain hit count over the bit count, and an
    unreadable bit (2) matches neither 0 nor 1."""
    rng = np.random.default_rng(seed)
    expected = rng.integers(0, 2, (n, bits), dtype=np.uint8)
    extracted = rng.integers(0, 3, (n, bits), dtype=np.uint8)
    shared = rng.integers(0, 2, bits, dtype=np.uint8)
    for against, rows in ((expected, expected), (shared, [shared] * n)):
        rates = detection_rate(against, extracted)
        alone = [detection_rate(e, x) for e, x in zip(rows, extracted)]
        assert rates.shape == (n,) and rates.tolist() == alone
        assert alone == [sum(int(a) == int(b) for a, b in zip(e, x)) / bits for e, x in zip(rows, extracted)]


@PROPERTY
@given(
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(1, 8),
    st.lists(st.sampled_from([None, math.nan, math.inf, -math.inf, "overflow"]), min_size=4, max_size=4),
    st.integers(0, 2**32 - 1),
)
@example(n=2, rows=4, cols=6, poison=["overflow", None, None, None], seed=0)  # reads 2, 0, 0, 2, 0, 1
def test_extract_bits_reads_a_non_finite_projection_as_a_miss(n, rows, cols, poison, seed):
    """A projection that is NaN or infinite reads as 2, and a finite one as
    its sign, as `matrix.T @ params` gives it, in the one-vector, stack and
    list forms alike. A NaN or infinite parameter makes every projection
    non-finite; parameters near the float64 limit overflow some projections
    and leave others finite."""
    rng = np.random.default_rng(seed)
    params = rng.standard_normal((n, rows))
    for row, kind in zip(params, poison):
        if kind == "overflow":
            row[:] = np.sign(row) * 1e308
        elif kind is not None:
            row[rng.integers(rows)] = kind
    matrices = [gen_embedding_matrix(rows, cols, seed + i) for i in range(n)]

    def reference(row, matrix):
        proj = matrix.T @ row
        return np.where(np.isfinite(proj), proj > 0.0, 2).astype(np.uint8)

    with np.errstate(all="ignore"):
        expected = [reference(row, matrix) for row, matrix in zip(params, matrices)]
        shared = [reference(row, matrices[0]) for row in params]
        alone = [extract_bits(row, matrix) for row, matrix in zip(params, matrices)]
        stacked = extract_bits(params, matrices[0])
        listed = extract_bits(params, matrices)
    for i in range(n):
        np.testing.assert_array_equal(alone[i], expected[i])
        np.testing.assert_array_equal(listed[i], expected[i])
        np.testing.assert_array_equal(stacked[i], shared[i])
    for i, kind in enumerate(poison[:n]):
        if kind is not None and kind != "overflow":
            assert (alone[i] == 2).all() and detection_rate(np.zeros(cols, np.uint8), alone[i]) == 0.0


@settings(PROPERTY, max_examples=15)
@given(st.integers(2, 6), st.integers(0, 30), st.floats(0.0, 25.0), st.integers(0, 2**32 - 1))
def test_final_slice_acc_equals_each_slices_one_vector_read(n_clients, extra_bits, strength, seed):
    """Each client's `slice_acc` in final_metrics.csv, scored for all
    clients in one call, is `detection_rate(a.bits, extract_slice(rep, a))`
    of its slice alone, in slices of one or two shapes."""
    config = dataclasses.replace(
        SMALL_RUN, n_clients=n_clients, slice_total_bits=n_clients + extra_bits, slice_strength=strength, seed=seed
    )
    try:
        result = engine.run_training(config)
    except ConfigError:
        assume(False)
    rep = result.server.rep_flat
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "final_metrics.csv")
        write_final_metrics_csv(result, path)
        with open(path, newline="") as f:
            written = [row["slice_acc"] for row in csv.DictReader(f)]
    alone = [detection_rate(a.bits, extract_slice(rep, a)) for a in result.server.assignments]
    assert written == [f"{rate:.6f}" for rate in alone]

# --- cohort scoring ---------------------------------------------------------------


@PROPERTY
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(0, 3)),
)
@example(rows=3, n=1, classes=3, seed=0, broken=1)
def test_stacked_accuracy_rows_equal_the_one_model_scores(rows, n, classes, seed, broken):
    """Row i of a cohort's `evaluate_accuracy` is the one-model score of row
    i on its own batch, for one-sample batches and for a row with
    non-finite parameters, which scores 0.0."""
    rng = np.random.default_rng(seed)
    specs = nn.build_layer_specs(3, (4,), classes)
    params = 3.0 * rng.standard_normal((rows, nn.init_model(specs, 0).params.size))
    if broken is not None and broken < rows:
        params[broken, rng.integers(params.shape[1])] = np.nan
    inputs = rng.standard_normal((rows, n, 3))
    labels = rng.integers(0, classes, (rows, n))
    with np.errstate(invalid="ignore"):
        stacked = nn.evaluate_accuracy(nn.Model(specs, params, 1), nn.Batch(inputs, labels))
        alone = [
            nn.evaluate_accuracy(nn.Model(specs, row, 1), nn.Batch(x, y)) for row, x, y in zip(params, inputs, labels)
        ]
    assert stacked.shape == (rows,) and stacked.tolist() == alone
    if broken is not None and broken < rows:
        assert stacked[broken] == 0.0


# --- stacked private-mark gradients -----------------------------------------------


@PROPERTY
@given(
    st.integers(1, 5),
    st.integers(1, 2),
    st.integers(1, 30),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
@example(rows=3, head_layers=1, n_bits=1, classes=3, seed=0)
@example(rows=2, head_layers=2, n_bits=2, classes=2, seed=0)
def test_stacked_private_gradients_equal_the_one_vector_kernel(rows, head_layers, n_bits, classes, seed):
    """Row i of the gradient that a cohort's head view gets from its marks,
    stacked (read many times) or read in place (read once), is, bit for bit,
    per head layer of row i, the one-vector `embedding_loss_and_grad` with
    its own mark, the plain 2-d products `M @ (sigmoid(M.T @ p) - bits) / c`.
    The examples give one-bit segments and (r, 1) matrices."""
    rng = np.random.default_rng(seed)
    specs = nn.build_layer_specs(3, (4, 5), classes)
    head_start = len(specs) - head_layers
    sizes = [specs[k].flat_size for k in range(head_start, len(specs))]
    try:
        segment_lengths(n_bits, sizes)
    except ValueError:  # a mark gives every head layer a bit
        assume(False)
    full = nn.Model(specs, rng.standard_normal((rows, nn.init_model(specs, 0).params.size)), head_start)
    heads = full.view(head_start, len(specs))
    marks = [make_private_spec(random_bits(n_bits, seed + i), sizes, seed + i) for i in range(rows)]
    stacked, in_place = stack_private_marks(marks, reads=2), stack_private_marks(marks, reads=1)
    assert all(isinstance(m, np.ndarray) and isinstance(p, list) for (m, _), (p, _) in zip(stacked, in_place))
    grads = private_embedding_loss_and_grads(heads, stacked)
    place_grads = private_embedding_loss_and_grads(heads, in_place)
    assert grads.shape == place_grads.shape == (rows, sum(sizes))
    for i, mark in enumerate(marks):
        for pos, (layer_id, segment) in enumerate(zip(heads.head_layer_ids, mark.segments)):
            params, matrix = full.layer_flat(head_start + pos)[i], mark.matrix(pos)
            grad = embedding_loss_and_grad(params, matrix, segment)
            plain = matrix @ (_sigmoid(matrix.T @ params) - segment) / len(segment)
            at = slice(heads.offsets[layer_id], heads.offsets[layer_id + 1])  # the layer's place in the head
            assert grads[i, at].tobytes() == grad.tobytes() == plain.tobytes()
            assert place_grads[i, at].tobytes() == grad.tobytes()


# --- aggregation --------------------------------------------------------------------


@PROPERTY
@given(
    st.integers(1, 64),
    st.integers(2, 40),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
@example(count=64, size=2, zeros=1.0, seed=0)  # every entry a zero of either sign
@example(count=50, size=4736, zeros=0.3, seed=1)  # a crowd round's upload size
def test_running_sum_aggregate_equals_the_stacked_mean(count, size, zeros, seed):
    """`aggregate` gives the bytes of `np.mean(np.stack(reps), axis=0)`, signed
    zeros included, for entries of either sign from 1e-8 to 1e8. A
    representation holds at least one weight and one bias, so vectors have
    at least two entries; numpy's mean of a (K, 1) stack sums pairwise."""
    rng = np.random.default_rng(seed)
    magnitudes = np.where(rng.random((count, size)) < zeros, 0.0, 10.0 ** rng.uniform(-8, 8, (count, size)))
    reps = list(rng.choice([-1.0, 1.0], (count, size)) * magnitudes)
    assert engine.aggregate(reps).tobytes() == np.mean(np.stack(reps), axis=0).tobytes()
