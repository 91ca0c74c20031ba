"""The bytes of every file `moealab run` and `moealab sweep` write, pinned by
sha256 for a few small configs.

The front CSV, the stats JSONL, summary.json and the sweep reports are meant
to stay byte-identical across changes that only make the code faster or
smaller. The golden values pin counters and one metric; these digests also
catch a moved last bit, a reordered key or a changed number format.

ROADMAP item 10 (the mutation of an out-of-bounds child) changes outputs, and
must re-pin these digests when it lands, as must any other change meant to
alter what the CLI writes.
"""

import hashlib
import json

import pytest

from moealab.cli import main

RUNS = {
    "grid-zdt1": {
        "problem": "zdt1",
        "archive": {"kind": "grid"},
        "max_evaluations": 1000,
        "metrics_every": 250,
    },
    "rn-zdt1": {
        "problem": "zdt1",
        "archive": {"kind": "rn"},
        "preset": 3,
        "max_evaluations": 600,
        "replacement_count": 10,
    },
    # the only pinned run whose rn archive overflows its capacity, so it pins
    # the truncation victim's effect on the front and the counters
    "rn-zdt1-truncating": {
        "problem": "zdt1",
        "archive": {"kind": "rn", "capacity": 10},
        "preset": 3,
        "max_evaluations": 1000,
    },
    "gps-zdt2": {
        "problem": "zdt2",
        "archive": {"kind": "gps"},
        "max_evaluations": 1000,
    },
    # the only pinned run with local search, whose trials draw from the run's
    # stream between generate and the archive
    "grid-sch-local-search": {
        "problem": "sch",
        "archive": {"kind": "grid", "capacity": 20},
        "max_evaluations": 600,
        "local_search": {"steps": 3, "step_scale": 0.1},
    },
}

SWEEP_SIZES = {"rn": "10,20,40", "grid": "10,20,40", "gps": "8,16,32"}

DIGESTS = {
    "gps-zdt2": {
        "front_seed0.csv": "27d787a4753fc198a6471650de29893bbceda50ec676d05e315c8b4f78e191c0",
        "stats_seed0.jsonl": "acf3a6c86315bf024049a745a5212625281f1db3a3490f612a5b8e5e075d74e4",
        "summary.json": "8cefde7745111d754a36f78c3f7031c8b9bc3d8dc30845ab0b1e81eee490987b",
    },
    "grid-sch-local-search": {
        "front_seed0.csv": "f2723e41fac62238b0f55faf0f16e7792a3a64195bbb489926a4241e83552810",
        "stats_seed0.jsonl": "cd5bc2199f85039b1563fea51744a28a813076dac21c790126e185640f7f3e83",
        "summary.json": "c755281c3eb49eca81ec08f27baed1dc5e489b5a937f9f940d99f7af210eafcd",
    },
    "grid-zdt1": {
        "front_seed0.csv": "fd37850c39cf32e04fa4cc11768a523cb733d93ac75161e339ef4a9c25b8f18c",
        "stats_seed0.jsonl": "9fe1aae9997a029bb1a8ac63e4c91fed272de1b37f5da284dc15252682c86783",
        "summary.json": "2e85b66fc85a39272adfe7c61420dc964c0c362b0ccf21950680aea2c8d2095c",
    },
    "rn-zdt1": {
        "front_seed0.csv": "fdcab465fad4d61e4ff79488bba84deaeaa295e8b4f6d0a5f5132ebd5212ea93",
        "stats_seed0.jsonl": "56543cbd92d7b08371f474c6e62e61083fa48a5d8419efc720d38f96990b1d99",
        "summary.json": "fdca43ca801f41740f784420d0035f5b71ce5218018e175e7a99034a4e9a69fc",
    },
    "rn-zdt1-truncating": {
        "front_seed0.csv": "0f7a859422ca60b75eb76791b9d9ba2068c6234ee014fca88d7e5e1c55fc9432",
        "stats_seed0.jsonl": "63e94eb8dcc4f662d481e1beba7809346e74522858526644ab61c7f708ba172d",
        "summary.json": "44850579df75e4aadb5a95a0543a90a8e486452c9be80959c7f6a1a361db8939",
    },
    "sweep-gps": {
        "sweep_gps.csv": "871051fc893aa5be8f259f3a24b4d1b3c4012abda646f2283a86b019c4f9a156",
        "sweep_gps.json": "4acfea277c9ef6a54fc4e58a1b919b7101ed8a7ef19161713d6f153fe7ca2508",
    },
    "sweep-grid": {
        "sweep_grid.csv": "22e08348758a68554033f69acbb3c6e1f2d836810696e9d4cee1b2e81ab53164",
        "sweep_grid.json": "ee23cc508708dd92d6b5ebe0f7ff4cf0324d61924bcfb4631a65ac81f41ed67d",
    },
    "sweep-rn": {
        "sweep_rn.csv": "22e08348758a68554033f69acbb3c6e1f2d836810696e9d4cee1b2e81ab53164",
        "sweep_rn.json": "7dbacd3a7a9982fbc8237ec8632ef623a291f6173a4dcd177d2d07eee7c7f4de",
    },
}


def digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_writes_the_pinned_bytes(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**RUNS[name], "population_size": 40, "seed": 0}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert digests(out) == DIGESTS[name]


@pytest.mark.parametrize("archiver", sorted(SWEEP_SIZES))
def test_sweep_writes_the_pinned_bytes(tmp_path, archiver):
    out = tmp_path / "out"
    argv = ["sweep", "--archiver", archiver, "--sizes", SWEEP_SIZES[archiver]]
    assert main([*argv, "--seed", "0", "--out", str(out)]) == 0
    assert digests(out) == DIGESTS[f"sweep-{archiver}"]
