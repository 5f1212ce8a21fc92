"""Shared fixtures: a small trained CNN reused by the slow end-to-end tests,
and the rank-1 loop reference for the multi-weight OBS update."""

import numpy as np
import pytest

from kfeprune.checkpoint import network_bytes, network_from_bytes
from kfeprune.config import RunConfig
from kfeprune.pipeline import build_dataset, build_network
from kfeprune.training import train

CNN_SETTINGS = dict(
    arch="cnn:16,48",
    image="3x8x8",
    dataset="blobs",
    classes=4,
    n_train=256,
    n_test=128,
    sigma=1.1,
    epochs=6,
    lr=0.1,
    batch_size=32,
    finetune_epochs=4,
    finetune_lr=0.02,
    strategy="eigendamage",
    ratio=0.5,
    damping=1e-6,
    fisher_batches=0,
)


@pytest.fixture(scope="session")
def cnn_baseline():
    """Factory returning (cfg, fresh network, train set, test set) per seed.

    Training happens once per seed for the whole session; callers get an
    independent deserialized copy they may mutate freely.
    """
    cache = {}

    def get(seed: int):
        if seed not in cache:
            cfg = RunConfig(seed=seed, **CNN_SETTINGS)
            ds_train = build_dataset(cfg, "train")
            ds_test = build_dataset(cfg, "test")
            net = build_network(cfg, ds_train.num_classes)
            net, _ = train(
                net,
                ds_train,
                epochs=cfg.epochs,
                lr=cfg.lr,
                batch_size=cfg.batch_size,
                seed=cfg.seed,
            )
            cache[seed] = (cfg, network_bytes(net), ds_train, ds_test)
        cfg, blob, ds_train, ds_test = cache[seed]
        return cfg, network_from_bytes(blob), ds_train, ds_test

    return get


def obs_rank1_loop(w, a_inv, s_inv, order):
    """Reference for criteria.obs_sequential_update: one rank-1 OBS step
    per removed weight (flat column-major index), then the hard zero."""
    out = np.array(w, dtype=np.float64)
    n = out.shape[0]
    for q in order:
        row, col = q % n, q // n
        scale = out[row, col] / (s_inv[col, col] * a_inv[row, row])
        out -= scale * np.outer(a_inv[:, row], s_inv[col, :])
    for q in order:
        out[q % n, q // n] = 0.0
    return out


@pytest.fixture(scope="session")
def obs_loop():
    return obs_rank1_loop
