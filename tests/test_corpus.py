"""The outcome-digest corpus: 26 fixed campaigns, each pinned by its
canonical report bytes, a SHA-256 over its trials' statuses and a SHA-256
over its trials' (status, diagnostic), both in trial order, read from the
records of campaign._run_chunk. A pass's diagnostic holds its witness repr
or its count, so an outcome digest changes when a witness moves, which the
report, holding only counts when no trial fails or notes, cannot show.

Reports and status digests are compared on every platform. Outcome
digests are compared only on the reference platform recorded with them
(``platform.machine()`` and the numpy version): elsewhere a witness may
differ in its last bits, where LAPACK's eigvals or a fused complex
multiply rounds otherwise, and that test skips with its reason.

The corpus is rebuilt at jobs 1, in one process, and at jobs 2 twice: on
a real pool for the reports, and with the pool's chunks run in this
process on 2 CPUs for the digests, so that every trial's record is seen.
To regenerate the committed file after an intended change:

    PYTHONPATH=src python tests/test_corpus.py

which first prints each campaign whose report, status digest or outcome
digest differs from the committed file, with those fields, or that none
does.
"""

import hashlib
import json
import os
import platform

import numpy as np
import pytest

from polygeom import campaign, jsonio
from polygeom.campaign import CampaignConfig, run_campaign
from test_campaign import fake_pool

CORPUS_FILE = os.path.join(os.path.dirname(__file__), "data", "outcome_corpus.json")

SEEDS = (101, 202)
# the CLI degree ranges, then the high-degree ones of the five properties
# that find roots of degree n
CAMPAIGNS = (
    [(prop, 3 if prop == "theorem2" else 2, 15 if prop == "theorem2" else 12, 300, seed)
     for seed in SEEDS for prop in campaign.PROPERTIES]
    + [(prop, 25, 60, 200, seed) for seed in SEEDS
       for prop in ("grace", "walsh_classic", "theorem1_convex", "theorem1_exterior",
                    "theorem2")])


def this_platform() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def build(jobs: int, serial: bool = True) -> dict:
    """Each campaign's report bytes and, when its chunks run in this
    process (serial), its status and outcome digests, at jobs, as on 2
    CPUs."""
    out = {}
    for prop, lo, hi, trials, seed in CAMPAIGNS:
        cfg = CampaignConfig(property=prop, trials=trials, seed=seed, n_min=lo, n_max=hi,
                             jobs=jobs)
        records = []
        run_chunk = campaign._run_chunk

        def recording(*args):
            chunk = run_chunk(*args)
            records.extend(chunk)
            return chunk

        # the chunks of jobs on 2 CPUs
        with pytest.MonkeyPatch.context() as mp:
            if serial:
                fake_pool(mp, 2)
                mp.setattr(campaign, "_run_chunk", recording)
            else:
                mp.setattr(campaign.os, "cpu_count", lambda: 2)
            report = jsonio.dumps(run_campaign(cfg).to_json())
        entry = {"report": report}
        if serial:
            assert len(records) == trials
            entry["statuses"] = digest(r["status"] for r in records)
            entry["outcomes"] = digest(jsonio.dumps([r["status"], r["diagnostic"]])
                                       for r in records)
        out[f"{prop}-n{lo}-{hi}-t{trials}-s{seed}"] = entry
    return out


@pytest.fixture(scope="module")
def committed():
    with open(CORPUS_FILE, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module", params=[1, 2], ids=["jobs1", "jobs2"])
def rebuilt(request):
    return build(request.param)


def test_reports_and_statuses(committed, rebuilt):
    got, want = rebuilt, committed["campaigns"]
    assert list(got) == list(want)
    assert {k: v["report"] for k, v in got.items()} == {k: v["report"] for k, v in want.items()}
    assert ({k: v["statuses"] for k, v in got.items()}
            == {k: v["statuses"] for k, v in want.items()})


def test_reports_on_a_pool(committed):
    got = build(2, serial=False)
    assert ({k: v["report"] for k, v in got.items()}
            == {k: v["report"] for k, v in committed["campaigns"].items()})


def test_outcome_digests(committed, rebuilt):
    if this_platform() != committed["reference"]:
        pytest.skip(f"outcome digests are pinned on {committed['reference']}, "
                    f"not {this_platform()}")
    assert ({k: v["outcomes"] for k, v in rebuilt.items()}
            == {k: v["outcomes"] for k, v in committed["campaigns"].items()})


def differences(old: dict, new: dict) -> list[str]:
    """For each campaign of either corpus whose report, status digest or
    outcome digest differs between them: its key and those fields."""
    out = []
    for key in list(new) + [k for k in old if k not in new]:
        was, now = old.get(key, {}), new.get(key, {})
        fields = [f for f in ("report", "statuses", "outcomes") if was.get(f) != now.get(f)]
        if fields:
            out.append(f"{key}: {', '.join(fields)}")
    return out


def test_differences_name_each_changed_field():
    old = {"a": {"report": "r", "statuses": "s", "outcomes": "o"}, "gone": {"report": "r"}}
    new = {"a": {"report": "r", "statuses": "s", "outcomes": "o2"}, "added": {"report": "r"}}
    assert differences(old, old) == []
    assert differences(old, new) == ["a: outcomes", "added: report", "gone: report"]


if __name__ == "__main__":
    doc = {"reference": this_platform(), "campaigns": build(1)}
    try:
        with open(CORPUS_FILE, encoding="utf-8") as f:
            old = json.load(f)
    except FileNotFoundError:
        old = {"reference": None, "campaigns": {}}
    if old["reference"] != doc["reference"]:
        print(f"reference platform: {old['reference']} -> {doc['reference']}")
    changed = differences(old["campaigns"], doc["campaigns"])
    print("\n".join(changed) if changed else "no campaign differs from the committed corpus")
    os.makedirs(os.path.dirname(CORPUS_FILE), exist_ok=True)
    with open(CORPUS_FILE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
