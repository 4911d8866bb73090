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
     "b975355a368ad2026677d9b6bb896fb4bed8057ce27704d89cbe57377de893e1"),
    ("tree", {"summary_mode": "bloom"},
     "a030f1a41d96ec60c5bd3bf72ba473ed87577b974f437b2e5d91f64a6b663bf1"),
    ("tree", {"producer_archive": False},
     "4e9bb7b83c35b9bb9ebdd93fb58725dbe84699f1a6f43d6388844244f47cbac2"),
    # fanout 1 grows long chains, so a departure re-parents a long
    # subtree and the summaries, depths and traffic along it move too
    ("tree", {"fanout": 1},
     "602d72b0aa51e7ea15c1f1b0e3cf6b182232d71c820e852deee848ee959907ee"),
    ("tree", {"summary_mode": "bloom", "fanout": 1},
     "e80518a170a30ea935b43f3f53ea6954236234dfce015a711c1ae69b282467d9"),
    ("mesh", {},
     "b34488d9238f79c669d523a8b304eba8784b4137f799943621df5044777e7673"),
    ("mesh", {"producer_archive": False},
     "3f3511c89b0a9e0f720f6f4f5078b97bc14779dd88b0e61c28d51da31e1a6e93"),
    # a view of 3 overflows on nearly every merge, so eviction runs all
    # the time; with 3 colors only a view of 2 can hold more distinct
    # colors than it has room for and reach the last-of-color fallback
    ("mesh", {"max_degree": 3},
     "dfb774a42da0323d06b79c13343506ff143e0594dd95ac2669ffc86b3fa80696"),
    ("mesh", {"max_degree": 2},
     "a1bf1423c4500b749e55d03452a3e5c01b3be43700a980d4ee252ec6ba5e57ee"),
    # five times the rounds, and departed entries purged as stale
    ("mesh", {"gossip_period": 2.0},
     "1e9f1f442dc0732f93f56e9e4fd0685a0757fb2c1a919968cb60a45ef1f34d27"),
    # a hop budget of 4 runs out on about a fifth of the routes, so the
    # walk's exhausted-ttl return is pinned too
    ("mesh", {"request_ttl": 4},
     "c621a6e35b579f492fe2ad3823a498ffec2a6886facc4ecf2196eb6c6aa8d615"),
    ("interval", {},
     "c2266b4b36c63bf43ab25e38aee58727d0ed83d19da4aadc9af59da1bf7b29e6"),
    ("interval", {"dedicated_server": True},
     "53155d4559409a2542b68cc71cb520351eb5be95ee4f4efc405eb9cd14018137"),
    # the default rebalances all block at lag 0; at this capacity both
    # succeed and are adopted, so the sweep's extension path is pinned too
    ("interval", {"upload_capacity": 50},
     "90d80db3f6cf95c589490bf9ab897fe801289da6441973b3719f827beb48766d"),
    # positions clamp to c = T, so repair spans reach the top of the indices
    ("interval", {"horizon_T": 20},
     "a07631e48a07d52b00af914bfd9311758da5cb22b076469e7dbd9df8811b660c"),
    # about ten times the seeks, so move repairs dominate
    ("interval", {"vcr_rate": 0.01},
     "f1048b234a0dc49402e34d35b38fe474aa20d928185092bfb30622188aff7684"),
    # three shows in the horizon, so sessions cross show boundaries and
    # run the show-end leave and the move into the next show
    ("tree", {"show_seconds": 600.0},
     "4cb068b766614b2c6c7d8c25ddb53efe6a4fcde82186b0ab4f9151f31ca8a01b"),
    # a store of 8 chunks fills early, so LRU eviction runs throughout
    ("tree", {"storage_chunks": 8},
     "7649416e4af40401861dc2eec980836e51b2b04f30d0681832dbe37c8d27a4b1"),
    # a store of one chunk fills at the first pin, so gossip adoption stops
    # at a full store and diffusion pins fewer than k_rep copies
    ("mesh", {"storage_chunks": 1},
     "a4f12afdf74921e01883c83584ee6ef957eb0cd2c08bb95aad73f428a52eb1c1"),
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
