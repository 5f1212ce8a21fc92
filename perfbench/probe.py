"""Set-up probe, run in a fresh interpreter by the benchmark.

Prints the seconds from interpreter start-up code to a loaded network
(import kfeprune, build both dataset splits, load the checkpoint): wall
time, then the same at reference speed, scaled by a reference sample
taken right afterwards in this process.

    python3 probe.py SRC_DIR CONFIG_JSON CHECKPOINT
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    src, cfg_json, ckpt = sys.argv[1:4]
    sys.path.insert(0, src)
    import kfeprune
    from kfeprune import pipeline

    cfg = kfeprune.RunConfig(**json.loads(cfg_json))
    pipeline.build_dataset(cfg, "train")
    pipeline.build_dataset(cfg, "test")
    pipeline.load_network(ckpt)
    wall = time.perf_counter() - T0

    from speed import REFERENCE_S, Speedometer

    print(repr(wall), repr(wall * REFERENCE_S / Speedometer().last))


if __name__ == "__main__":
    main()
