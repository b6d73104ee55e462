"""Seeded input generation for the perfbench workloads.

Every input a workload feeds the program -- experiment spec files,
replay trace files, the train spec and the serve request schedule --
is written here from the workload seed alone: the same seed writes the
same bytes. The cost structure of each workload (cell counts,
bandwidth tiers, delays, durations, policy, request mix) is fixed; the
seed varies the values inside it (jittered rates and queue sizes, cell
seeds, trace periods and phases, scheme order, request order), so runs
on different seeds measure comparable amounts of work.
"""

import json
import math
import os
import random

# Each workload's rationale, recorded next to its definition.
WORKLOADS = {
    "sweep-baseline": (
        "cold `mocc run` sweeps over the seven registry baselines at 12-96 "
        "Mbps with multi-flow and replay loads: per-packet netsim/cc work "
        "dominates; policy and store do nothing (their bypass workload)"
    ),
    "sweep-policy": (
        "cold `mocc run` over mocc:* sweeps at 1-6 Mbps and 5-20 ms plus "
        "one duel/stair/incast competition: batched policy inference does "
        "most of the work"
    ),
    "serve-cache": (
        "`mocc serve --socket` on a store snapshot, two closed-loop "
        "clients: 70% warm baseline, 15% warm mocc, 10% partial-miss, 5% "
        "stats requests; parse, keys, digests, store and serialization"
    ),
    "train": (
        "`mocc train` on a transfer-regime TrainSpec (batch_envs 4, "
        "periodic checkpoints) into a fresh zoo: the only PPO update, "
        "optimizer and checkpoint path"
    ),
}

BASELINES = ["cubic", "bbr", "vegas", "copa", "pcc-allegro", "pcc-vivace", "orca"]

# PCC (allegro and vivace) against on/off cross traffic runs for tens
# of seconds per cell at these rates (see CHANGES.md); their sweeps
# carry the other two multi-flow loads.
PCC = {"pcc-allegro", "pcc-vivace"}

# serve-cache request mix, in percent.
SERVE_MIX = (("warm", 70), ("mocc", 15), ("new", 10), ("stats", 5))
SERVE_CLIENTS = 2
# Requests generated per client; a run stops early if a client
# exhausts its schedule.
SERVE_REQUESTS = 6000
# Requests per client the in-process traced replay serves per pass.
SERVE_REPLAY = 200


def cells(doc):
    """Cells a sweep spec expands to."""
    n = 1
    for axis in ("bandwidth_mbps", "owd_ms", "queue_pkts", "loss", "shapes", "loads"):
        n *= len(doc[axis])
    return n


def _rng(workload, seed, part=""):
    # String seeds hash through SHA-512: stable across Python versions.
    return random.Random(f"perfbench:{workload}:{seed}:{part}")


def _dump(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))


def _jitter(rng, x, share=0.02):
    return round(x * rng.uniform(1 - share, 1 + share), 2)


def _trace(rng):
    # 10 s at 0.25 s granularity: fades between 40% and 100% of the
    # peak with a seeded period and phase. The period is short against
    # the 8 s cells, so every trace offers about the same mean rate (the
    # harness normalizes the peak, so only the shape matters).
    period, phase = rng.uniform(1.8, 2.2), rng.uniform(0, 2 * math.pi)
    samples = [[t / 4, round(7.0 + 3.0 * math.sin(2 * math.pi * t / 4 / period + phase), 3)]
               for t in range(41)]
    return {"description": "perfbench generated trace", "samples": samples}


# sweep-policy and serve-cache pin one untrained policy: policy
# seeds change what the flows do, and with it how much the simulator
# works, far more than any other input.
POLICY_SEED = 11


def _policy(batch):
    return {
        "batch": batch,
        "config": "fast",
        "fast_math": False,
        "initial_rate_frac": 0.3,
        "path": None,
        "preference": "bal",
        "seed": POLICY_SEED,
    }


def _sweep(name, scheme, *, bw, owd, queue, loss, shapes, loads, duration, seed, policy=None):
    return {
        "agent_mi": True,
        "bandwidth_mbps": bw,
        "duration_s": duration,
        "kind": "sweep",
        "loads": loads,
        "loss": loss,
        "mss_bytes": 1500,
        "name": name,
        "owd_ms": owd,
        "policy": policy,
        "queue_pkts": queue,
        "scheme": scheme,
        "seed": seed,
        "shapes": shapes,
    }


def gen_sweep_baseline(seed, root):
    rng = _rng("sweep-baseline", seed)
    traces = []
    for k in range(2):
        rel = os.path.join(root, "traces", f"trace{k}.json")
        _dump(rel, _trace(rng))
        traces.append(rel)
    specs = []
    order = BASELINES[:]
    rng.shuffle(order)
    for scheme in order:
        loads = ["steady:2", "rpc:2"] if scheme in PCC else ["steady:2", "onoff:2", "rpc:2"]
        doc = _sweep(
            f"bl-{scheme}",
            scheme,
            bw=[_jitter(rng, b) for b in (12.0, 36.0, 96.0)],
            owd=[10, 40],
            queue=[rng.randint(190, 210)],
            loss=[0.0],
            shapes=["constant", "replay:" + rng.choice(traces)],
            loads=loads,
            duration=8,
            seed=rng.randrange(1 << 32),
        )
        path = os.path.join(root, "specs", f"{scheme}.json")
        _dump(path, doc)
        specs.append(path)
    return {"specs": specs}


def gen_sweep_policy(seed, root):
    rng = _rng("sweep-policy", seed)
    specs = []
    schemes = ["mocc:thr", "mocc:lat", "mocc:bal", "mocc:2,5,3"]
    batches = [1, 8, 32, 8]
    for i, (scheme, batch) in enumerate(zip(schemes, batches)):
        doc = _sweep(
            f"pol-{i}",
            scheme,
            bw=[_jitter(rng, b) for b in (1.5, 3.0, 6.0)],
            owd=[5, 10, 20],
            queue=[rng.randint(95, 105)],
            loss=[0.0, 0.01],
            shapes=["constant", "square:2"],
            loads=["steady:1"],
            duration=20,
            seed=rng.randrange(1 << 32),
            policy=_policy(batch),
        )
        path = os.path.join(root, "specs", f"pol{i}.json")
        _dump(path, doc)
        specs.append(path)
    comp = {
        "agent_mi": True,
        "bandwidth_mbps": [_jitter(rng, 4.0), _jitter(rng, 8.0)],
        "duration_s": 20,
        "fair_jain": 0.75,
        "fair_sustain_s": 3,
        "kind": "competition",
        "mixes": [
            "duel:mocc:thr+mocc:lat",
            "stair:mocc:bal:3x3",
            "incast:mocc:thr:4x1",
            "duel:mocc:2,5,3+cubic",
        ],
        "mss_bytes": 1500,
        "name": "pol-competition",
        "owd_ms": [10],
        "policy": _policy(8),
        "queue_pkts": [120],
        "seed": rng.randrange(1 << 32),
        "tcp_baseline": "cubic",
    }
    path = os.path.join(root, "specs", "competition.json")
    _dump(path, comp)
    specs.append(path)
    return {"specs": specs}


def gen_serve_cache(seed, root):
    """Warm specs (pre-built into the store snapshot), per-client "new"
    specs that extend a warm spec by one bandwidth value (half their
    cells hit, half miss), and one request schedule per client."""
    rng = _rng("serve-cache", seed)
    warm, mocc = [], []
    schemes = ["cubic", "vegas", "copa", "bbr"]
    for i in range(12):
        doc = _sweep(
            f"warm-{i}",
            schemes[i % len(schemes)],
            bw=[_jitter(rng, 2.0), _jitter(rng, 3.0)],
            owd=[rng.randint(8, 12), rng.randint(25, 35)],
            queue=[100],
            loss=[0.0, 0.01],
            shapes=["constant"],
            loads=["steady:1", "onoff:1"],
            duration=4,
            seed=rng.randrange(1 << 32),
        )
        warm.append(doc)
    for i, scheme in enumerate(["mocc:thr", "mocc:lat", "mocc:bal", "mocc:2,5,3"]):
        mocc.append(
            _sweep(
                f"mocc-{i}",
                scheme,
                bw=[_jitter(rng, 3.0)],
                owd=[rng.randint(8, 12)],
                queue=[100],
                loss=[0.0],
                shapes=["constant"],
                loads=["steady:1"],
                duration=4,
                seed=rng.randrange(1 << 32),
                policy=_policy(1),
            )
        )

    specs = {}
    for i, doc in enumerate(warm):
        specs[f"warm{i}"] = doc
    for i, doc in enumerate(mocc):
        specs[f"mocc{i}"] = doc
    schedules = []
    for c in range(SERVE_CLIENTS):
        crng = _rng("serve-cache", seed, f"client{c}")
        sched, n_new = [], 0
        # The mix holds exactly in every block of 20 requests; the seed
        # orders each block.
        deck = [k for k, share in SERVE_MIX for _ in range(share // 5)]
        kinds = []
        while len(kinds) < SERVE_REQUESTS:
            block = deck[:]
            crng.shuffle(block)
            kinds += block
        for kind in kinds[:SERVE_REQUESTS]:
            if kind == "warm":
                sched.append(f"warm{crng.randrange(len(warm))}")
            elif kind == "mocc":
                sched.append(f"mocc{crng.randrange(len(mocc))}")
            elif kind == "stats":
                sched.append("stats")
            else:
                # The appended (low, so cheap) bandwidth is unique to
                # this client and request, so no two clients ever share
                # a missing cell and each reply's hit/miss counts are
                # predictable.
                base = warm[crng.randrange(len(warm))]
                doc = json.loads(json.dumps(base))
                extra = round(1.0 + (SERVE_CLIENTS * n_new + c) * 0.0005, 4)
                doc["bandwidth_mbps"] = base["bandwidth_mbps"] + [extra]
                doc["name"] = f"new-{c}-{n_new}"
                sid = f"new{c}_{n_new}"
                specs[sid] = doc
                sched.append(sid)
                n_new += 1
        schedules.append(sched)
    paths = {}
    for sid, doc in specs.items():
        paths[sid] = os.path.join(root, "specs", f"{sid}.json")
        _dump(paths[sid], doc)
    return {
        "specs": [paths[s] for s in sorted(paths)],
        "warm": [paths[f"warm{i}"] for i in range(len(warm))]
        + [paths[f"mocc{i}"] for i in range(len(mocc))],
        # Cells a new spec's first request misses: those of its
        # appended bandwidth.
        "new_cells": {paths[s]: cells(specs[s]) // len(specs[s]["bandwidth_mbps"])
                      for s in specs if s.startswith("new")},
        "schedules": [[paths.get(s, s) for s in sched] for sched in schedules],
        "replay": SERVE_REPLAY,
    }


def gen_train(seed, root):
    rng = _rng("train", seed)
    doc = {
        "batch_envs": 4,
        "boot_iters": 2,
        "checkpoint_every": 2,
        "config": "fast",
        "episode_mis": 100,
        "eval_episodes": 1,
        "kind": "train",
        "name": f"bench-{seed}",
        "omega_step": 4,
        "range": "training",
        "regime": "transfer",
        "rollout_steps": 400,
        "seed": rng.randrange(1, 1 << 31),
        "traverse_cycles": 2,
        "traverse_iters": 1,
    }
    path = os.path.join(root, "train.json")
    _dump(path, doc)
    return {"specs": [path], "train": path}


GENERATORS = {
    "sweep-baseline": gen_sweep_baseline,
    "sweep-policy": gen_sweep_policy,
    "serve-cache": gen_serve_cache,
    "train": gen_train,
}


def generate(workload, seed, root):
    """Writes the workload's inputs under `root` (paths relative to the
    checkout root) and returns the manifest, also saved as
    `root/manifest.json`."""
    manifest = GENERATORS[workload](seed, root)
    manifest["workload"] = workload
    manifest["seed"] = seed
    _dump(os.path.join(root, "manifest.json"), manifest)
    return manifest
