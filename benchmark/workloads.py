"""The benchmark's workloads: what one pass runs and how its outputs are checked.

Each workload has a `setup` (paid once per process, timed as setup_s), a
`run_pass` (one closed-loop pass, timed as wall_s) and a `check` that
returns the sha256 of every output file plus any failed output checks.
The workload seed reaches fedmark only as the config's `seed` key.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil

import numpy as np

import tracer
from fedmark import attacks, cli, config, engine, seeding, watermark

# Stream id fedmark reserves for fine-tuning (seeding.STREAM_FINETUNE); the
# audit pass derives each client's fine-tune seed from it.
FINETUNE_STREAM = 11
FINETUNE_ROUNDS = 25
PRUNE_RATES = tuple(round(0.1 * i, 1) for i in range(1, 10))

# Functions every pass of a workload must call; a traced pass that records
# zero calls to one of them fails, so a refactor cannot silently zero a metric.
TRAIN_REQUIRED = (
    "nn.main_task_loss_and_grads",
    "nn.forward",
    "nn.apply_sgd",
    "nn.evaluate_accuracy",
    "watermark.private_embedding_loss_and_grads",
    "watermark.embedding_loss_and_grad",
    "watermark.extract_private_bits",
    "slicing.slice_loss_and_grad",
    "slicing.extract_slice",
    "engine.client_local_update",
    "engine.aggregate",
    "engine.run_training",
    "cli.write_run_artifacts",
)
SETUP_REQUIRED = ("engine.build_dataset", "engine.build_partition", "seeding.derive_seed")

# (module, function, work model) for every function a traced run wraps.
TRACE_TARGETS = (
    ("nn", "main_task_loss_and_grads", tracer.main_task_work),
    ("nn", "forward", None),
    ("nn", "apply_sgd", None),
    ("nn", "evaluate_accuracy", None),
    ("watermark", "private_embedding_loss_and_grads", None),
    ("watermark", "embedding_loss_and_grad", tracer.embedding_work),
    ("watermark", "extract_private_bits", tracer.extract_private_work),
    ("slicing", "slice_loss_and_grad", None),
    ("slicing", "extract_slice", None),
    ("detection", "decide", None),
    ("detection", "cohort_stats", None),
    ("engine", "client_local_update", None),
    ("engine", "aggregate", None),
    ("engine", "run_training", None),
    ("engine", "build_dataset", None),
    ("engine", "build_partition", None),
    ("attacks", "prune_attack", None),
    ("attacks", "finetune_attack", None),
    ("cli", "write_run_artifacts", None),
    ("cli", "_load_run_models", None),
    ("cli", "cmd_heatmap", None),
    ("config", "load_config", None),
    ("data", "gen_synthetic_blobs", None),
    ("seeding", "derive_seed", None),
)


class CheckFailed(RuntimeError):
    pass


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digest_dir(path, prefix=""):
    return {prefix + name: sha256_file(os.path.join(path, name)) for name in sorted(os.listdir(path))}


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def config_file(work_dir, name, values, seed):
    """Write a fedmark config for this workload and return its path."""
    lines = [f"{key}={value}" for key, value in values.items()]
    lines += [f"seed={seed}", f"output_dir={name}_run"]
    path = os.path.join(work_dir, f"{name}.cfg")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def quiet_train(config_path):
    """`fedmark train CONFIG` in process, its stdout kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", config_path])
    if code != 0:
        raise CheckFailed(f"fedmark train exited with {code}")


def load_inputs(config_path):
    """Parse the config and build the dataset and partition the run uses."""
    cfg = config.load_config(config_path)
    dataset = engine.build_dataset(cfg)
    partition = engine.build_partition(cfg, dataset)
    return cfg, dataset, partition


def schedule(cfg):
    """The clients sampled in each round, as the engine draws them."""
    return [
        engine.sample_clients(
            cfg.n_clients, cfg.sample_rate, seeding.derive_seed(cfg.seed, seeding.STREAM_SAMPLING, r)
        )
        for r in range(1, cfg.rounds + 1)
    ]


class TrainWorkload:
    """`fedmark train` on one config, artifacts included."""

    required = TRAIN_REQUIRED

    def __init__(self, name, values):
        self.name = name
        self.values = values

    def setup(self, seed, work_dir):
        path = config_file(work_dir, self.name, self.values, seed)
        cfg, _, partition = load_inputs(path)
        sampled = schedule(cfg)
        shard = [len(ix) for ix in partition.client_indices]
        batches = [math.ceil(n / cfg.batch_size) for n in shard]
        return {
            "config_path": path,
            "out_dir": config.resolve_output_dir(cfg),
            "sampled": sampled,
            "size": {
                "clients": cfg.n_clients,
                "rounds": cfg.rounds,
                "uploads": sum(len(s) for s in sampled),
                "sgd_steps": sum((cfg.head_epochs + 1) * batches[c] for s in sampled for c in s),
            },
        }

    def prepare(self, state):
        shutil.rmtree(state["out_dir"], ignore_errors=True)

    def run_pass(self, state):
        quiet_train(state["config_path"])

    def check(self, state):
        out = state["out_dir"]
        return digest_dir(out), dir_bytes(out), self.problems(state)

    def problems(self, state):
        return []


class HonestWorkload(TrainWorkload):
    def problems(self, state):
        rows = read_csv(os.path.join(state["out_dir"], "final_metrics.csv"))
        found = []
        if len(rows) != state["size"]["clients"]:
            found.append(f"final_metrics.csv has {len(rows)} clients")
        for row in rows:
            if float(row["private_rate"]) != 1.0:
                found.append(f"client {row['client']} reads its own mark at {row['private_rate']}")
            if float(row["slice_acc"]) < 0.95:
                found.append(f"client {row['client']} slice recovered at {row['slice_acc']}")
        return found


class CrowdWorkload(TrainWorkload):
    required = TRAIN_REQUIRED + ("detection.decide", "detection.cohort_stats")

    def problems(self, state):
        out = state["out_dir"]
        found = []
        rows = read_csv(os.path.join(out, "ledger.csv"))
        seen = [(int(r["round"]), int(r["client"])) for r in rows]
        uploads = [(r, c) for r, s in enumerate(state["sampled"], start=1) for c in s]
        if len(seen) != len(set(seen)) or set(seen) != set(uploads):
            found.append(f"ledger.csv has {len(seen)} records for {len(uploads)} uploads")
        with np.load(os.path.join(out, "models.npz")) as arrays:
            if not np.all(np.isfinite(arrays["rep_flat"])):
                found.append("rep_flat has non-finite entries")
        return found


class AuditWorkload:
    """Read side of a finished run: heatmap, prune sweep and fine-tuning."""

    name = "audit"
    required = (
        "cli.cmd_heatmap",
        "cli._load_run_models",
        "watermark.extract_private_bits",
        "attacks.prune_attack",
        "attacks.finetune_attack",
        "nn.main_task_loss_and_grads",
        "nn.forward",
        "nn.apply_sgd",
    )

    def __init__(self, values):
        self.values = values

    def setup(self, seed, work_dir):
        path = config_file(work_dir, "audit_source", self.values, seed)
        cfg, dataset, partition = load_inputs(path)
        run_dir = config.resolve_output_dir(cfg)
        shutil.rmtree(run_dir, ignore_errors=True)
        quiet_train(path)
        n = cfg.n_clients
        return {
            "cfg": cfg,
            "run_dir": run_dir,
            "source": digest_dir(run_dir, prefix="source/"),
            "shards": [dataset.subset(ix) for ix in partition.client_indices],
            "attacks_path": os.path.join(work_dir, "audit_attacks.csv"),
            "size": {
                "clients": n,
                "heatmap_extractions": n * n,
                "prunes": n * len(PRUNE_RATES),
                "finetune_rounds": n * FINETUNE_ROUNDS,
            },
        }

    def prepare(self, state):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(state["run_dir"], "heatmap.csv"))
        state["rows"] = None

    def run_pass(self, state):
        cfg = state["cfg"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cmd_heatmap(state["run_dir"])
        if code != 0:
            raise CheckFailed(f"heatmap exited with {code}")
        models, specs = cli._load_run_models(state["run_dir"])
        rows = []
        for cid, (model, spec) in enumerate(zip(models, specs)):
            pruned = [
                watermark.private_detection_rate(attacks.prune_attack(model, rate), spec)
                for rate in PRUNE_RATES
            ]
            tuned = attacks.finetune_attack(
                model,
                state["shards"][cid],
                rounds=FINETUNE_ROUNDS,
                lr=cfg.lr,
                batch_size=cfg.batch_size,
                seed=seeding.derive_seed(cfg.seed, FINETUNE_STREAM, cid),
            )
            rows.append((cid, *pruned, watermark.private_detection_rate(tuned, spec)))
        state["rows"] = rows

    def check(self, state):
        with open(state["attacks_path"], "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["client", *(f"prune_{r:g}" for r in PRUNE_RATES), "finetune"])
            for cid, *rates in state["rows"]:
                writer.writerow([cid, *(f"{r:.6f}" for r in rates)])
        heatmap = os.path.join(state["run_dir"], "heatmap.csv")
        digests = digest_dir(state["run_dir"], prefix="source/")
        digests["attacks.csv"] = sha256_file(state["attacks_path"])
        found = []
        final = {r["client"]: r["private_rate"] for r in read_csv(os.path.join(state["run_dir"], "final_metrics.csv"))}
        for row in read_csv(heatmap):
            cid = row["model_client"]
            if row[f"wm_{cid}"] != final.get(cid):
                found.append(f"heatmap diagonal {row[f'wm_{cid}']} != private_rate {final.get(cid)} for client {cid}")
        if len(final) != state["size"]["clients"]:
            found.append(f"final_metrics.csv has {len(final)} clients")
        return digests, 0, found


WORKLOADS = {
    "honest": HonestWorkload(
        "honest",
        {
            "n_clients": 10,
            "sample_rate": 1.0,
            "rounds": 30,
            "head_epochs": 10,
            "private_bits": 100,
            "embed_strength": 3.0,
            "partition": "klabels",
            "k_labels": 2,
        },
    ),
    "crowd": CrowdWorkload(
        "crowd",
        {
            "n_clients": 200,
            "sample_rate": 0.5,
            "rounds": 60,
            "head_epochs": 1,
            "slice_total_bits": 2000,
            "slice_strength": 50.0,
            "detector": "true",
            "malicious_fraction": 0.2,
            "tamper_rate": 0.3,
            "partition": "klabels",
            "k_labels": 2,
        },
    ),
    "audit": AuditWorkload(
        {
            "n_clients": 200,
            "rounds": 5,
            "head_epochs": 1,
            "slice_total_bits": 2000,
            "partition": "klabels",
            "k_labels": 2,
        }
    ),
}
