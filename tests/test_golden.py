"""Golden digests: the four CSVs of fixed scenarios, byte for byte.

A refactor that is meant to keep behaviour must keep these digests. A
change that alters outputs on purpose updates them and says why.
"""

import hashlib

import pytest

from tssim.config import ScenarioConfig
from tssim.metrics import emit_report, run_scenario

GOLDEN = [
    ("tree", {},
     "78ceaec84efcff632abdc809cb63e8c04c5f376a2cd2eed6d0b90ccc44243479"),
    ("tree", {"summary_mode": "bloom"},
     "47071bacd6d5a66d75815e38ab902f096eedec2692c66aff50bd3d6c096826bb"),
    ("tree", {"producer_archive": False},
     "aa40bc279323f4a2063b2998b9935e4ea2031a173f8ef9428af96bd29c529959"),
    # fanout 1 grows long chains, so a departure re-parents a long
    # subtree and the summaries, depths and traffic along it move too
    ("tree", {"fanout": 1},
     "db8ffa880892ae001012c96e01573985430ad677fcaa2f649d2248b3a0fd9bdd"),
    ("tree", {"summary_mode": "bloom", "fanout": 1},
     "23597ce996593e72f6c765757568753bf42cfa2fd57e3172e7d8e42a97e5c3f2"),
    ("mesh", {},
     "7bc4de73b4af2db15c5225c117c8a03aa9b40082bfd89c0dbd0ac34180d9545c"),
    ("mesh", {"producer_archive": False},
     "f2f6ba23234d0f204c8c67ef9b739c9aa356cf3795459e43aceca951ebd5a356"),
    # a view of 3 overflows on nearly every merge, so eviction runs all
    # the time; with 3 colors only a view of 2 can hold more distinct
    # colors than it has room for and reach the last-of-color fallback
    ("mesh", {"max_degree": 3},
     "bedeb345c9abe91fbabd2a647b322a683697e17c179cd941b5fd55a303ad03e2"),
    ("mesh", {"max_degree": 2},
     "86a102960d36a0bcd7d352463e86b02b4dafbb2ed206a485c041d8629fbc540b"),
    # five times the rounds, and departed entries purged as stale
    ("mesh", {"gossip_period": 2.0},
     "c98f3a0882c275a7bb47a01ea4ea2fb792daf181c2794c317264f1813e1abda5"),
    ("interval", {},
     "b6e61c4f08d8752848d68be9e258bb22953d8c061e23823fc7df1da1d56e5abb"),
    ("interval", {"dedicated_server": True},
     "2fc6ed17437bdbd5e8e850537e60e8d9854ef65b2b709d9af03455c2c656a40b"),
    # the default rebalances all block at lag 0; at this capacity both
    # succeed and are adopted, so the sweep's extension path is pinned too
    ("interval", {"upload_capacity": 50},
     "7ce469c4fcc45ae4ddc47e4df2a02d792c7e08ff9a107de5c1df88c571687fef"),
    # positions clamp to c = T, so repair spans reach the top of the indices
    ("interval", {"horizon_T": 20},
     "c6f9ec29454f52e04cf57db132536ecafbff974829c9119303ed704107f36ab6"),
    # about ten times the seeks, so move repairs dominate
    ("interval", {"vcr_rate": 0.01},
     "5fe740ee497781e29578c1ce3e60aa566ff5fa4761491669be56a9877bf9d9ce"),
    # three shows in the horizon, so sessions cross show boundaries and
    # run the show-end leave and the move into the next show
    ("tree", {"show_seconds": 600.0},
     "69fe218eaa6a445868f82801a57e0d14901b238d389a65eb9b2196095429f5f5"),
    # a store of 8 chunks fills early, so LRU eviction runs throughout
    ("tree", {"storage_chunks": 8},
     "0ac906cc3671d3e70cd1ded1ddfed88dd9e10113ae56d43b9a750d5519d60a43"),
]


IDS = [f"{o}-{'-'.join(f'{k}={v}' for k, v in ov.items()) or 'default'}"
       for o, ov, _ in GOLDEN]


def csv_digest(out_dir, overlay, overrides, check_invariants=False):
    config = ScenarioConfig(seed=1, horizon_s=1800.0, arrival_rate=0.1,
                            overlay=overlay, **overrides)
    sha = hashlib.sha256()
    report = run_scenario(config, check_invariants=check_invariants)
    for path in emit_report(report, str(out_dir)):
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


@pytest.mark.parametrize("overlay,overrides,digest", GOLDEN, ids=IDS)
def test_csv_bytes_match_golden_digest(tmp_path, overlay, overrides, digest):
    assert csv_digest(tmp_path, overlay, overrides) == digest


@pytest.mark.parametrize("overlay,overrides,digest", GOLDEN, ids=IDS)
def test_checked_run_matches_golden_digest(tmp_path, overlay, overrides, digest):
    # the invariant checks only read the model: a checked run must pass
    # them all and write the same bytes
    assert csv_digest(tmp_path, overlay, overrides, check_invariants=True) == digest
