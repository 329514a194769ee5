"""Byte-identity lock on the pipeline's primary outputs.

A tiny QED run and a tiny SDBC run go through evolve -> reevaluate -> faults,
and the SHA-256 of every CSV and numpy array they write (the SDBC run's
`archive/centroids.npy` and each run's `reevaluation_profiles.npy`) is
compared with a pinned value, on one worker and on two (outputs must not
depend on `--threads`). The files that `export --what descriptors` and
`export --what triallog` write for the QED run's best elite are pinned the
same way, as are the tables that `analyze` writes over the QED and SDBC runs
together and the two that `export --what projection` writes for the SDBC
run from its reevaluate stage's profiles. Below the pipeline, one digest
covers every task's fitness and every descriptor over a fixed set of trials
in environments with boxes, some under combined faults with ROFS.
Refactors must keep these bytes; a change that alters results on purpose
updates the hashes and says why.
"""

import hashlib

import numpy as np
import pytest

from qdswarm.cli import main
from qdswarm.descriptors import DESCRIPTORS, describe
from qdswarm.environment import NORMAL_ENV, env_from_index
from qdswarm.genome import random_genome
from qdswarm.recovery import sample_combined_fault
from qdswarm.sim import FaultType, run_trial
from qdswarm.tasks import TaskKind, fitness

COMMON = """
task = aggregation
seed = 5
replicates = 1
evolve.initial_population = 6
evolve.generations = 3
evolve.evals_per_generation = 2
evolve.trials = 2
evolve.trial_duration = 2.0
reevaluate.trials = 2
faults.count = 2
faults.trials = 2
"""

CONFIGS = {
    "qed": "algorithm = qed\n",
    "sdbc": "algorithm = sdbc\ncvt.seeds = 4096\ncvt.iterations = 1\n",
}

GOLDEN = {
    "qed": {
        "archive/index.csv": "530c5e81ec2eb61556442ebe3f4849b990e01b8acb43104f60f23e8c354acf32",
        "events.csv": "85abd2175f8a8850a6164b7bce504ceb70532ad659689babeb90ff24acadbb5d",
        "records.csv": "791c7fdb2560d09e88ccab99fb6f3761519efb5b6033cd7b394b5fc24f843219",
        "reevaluation.csv": "98cbf125bfe5fe59642df479d8791a4a879602993ee6350745b15a6b4b9fc20d",
        "reevaluation_profiles.npy": "2b06a0d7772ef56a219ecab785acb509e08d0f94f94b829a8ec4e216aafc9dd6",
        "reevaluation_summary.csv": "3d986dba82be09a948f8c772f9fbd0da97d9cf03b32eaa17c74e509f223a63e3",
        "stats.csv": "7835856bf291ab2cd68b4679de21d6144eec5401abbb9330318ddf716030e4b2",
    },
    "sdbc": {
        "archive/centroids.npy": "629bc3cc28f2602518f98d2ee881803c46a6206486df57a395ece5196fb718f7",
        "archive/index.csv": "34379b7a6b5a7f813549f475ce35f1d3f293aa3ebe7701e5a3973de5225b280b",
        "events.csv": "35bc9d9853787e35f1f137e4e0226e756de8c9005c611d1f8e398f8f090da17a",
        "records.csv": "bde8a5ad467819aff1080d2b021d20dcfd5df79a260b7eed942939d556c5ddf2",
        "reevaluation.csv": "ae45efbe867dd4c32c178fe97119c4afd92948c3428d007e1e3ed94b41215ea7",
        "reevaluation_profiles.npy": "191e76238554750501357689c8493618590b1ccd492d9423f3aa84e73fc2e36b",
        "reevaluation_summary.csv": "aa2025923f19100a1f9554133dfbcd825e4928882101e48566f33908406fddcb",
        "stats.csv": "f2649392cb2d9ca77d47bc797dbf57f6bdc8e7c93a67cdbbb6888da1e9cd4b8a",
    },
}

EXPORT_GOLDEN = {
    "descriptor_hbd_01123.csv": "015e3bff308dca270fb64aa175bffc973cb2e514a4e8f92bae352393bc4f438d",
    "descriptor_sdbc_01123.csv": "006f36c1d18d50b8fc67f088abf6f449566e2feca58f3a32e05c70f4c7181f80",
    "descriptor_spirit_01123.csv": "f4a057a5b118bb44e27efdfb91c80d293525a569283e14452bcab1b7bdb468a7",
    "trial_cell_01123.csv": "ab852e36996c3bc3a5736f3ead89175622ca382ee8e259c980e936c309330eca",
}

ANALYZE_GOLDEN = {
    "signature_impact_distance_aggregation_qed.csv":
        "9cc140df64dfafcf388b1e7f7a430135e0157ad0def941f500e8e873f97ebf4e",
    "signature_impact_distance_aggregation_sdbc.csv":
        "edd07dc6030eaf2d9dee4f9f5c18ea575a643c0a2da7c2e77bbc67f49d492ca6",
    "signature_impact_resilience_aggregation_qed.csv":
        "2582e1ff20bdb054fdd84d6b13d9f3b88e87d3e9a222c75c7b0d85bdc5589885",
    "signature_impact_resilience_aggregation_sdbc.csv":
        "56553e49857d01e2c2ea48047a16dc02904a7f9623f66fa6c3c17efd1f4c0dc0",
    "signature_resilience_distance_aggregation_qed.csv":
        "bbb9755786bc008fd2843718ce38138e904ed85e5fadd47da5059dec815435b2",
    "signature_resilience_distance_aggregation_sdbc.csv":
        "2cd3175719f2c1d7a8839a98933163957f42f09ed3ef90822994d7ace30b3dc7",
    "signatures.csv": "96a0a3a1b3c42b5aff01640290896f48a00726d86708e28d12269dc83623f5f3",
    "stats_tables.csv": "f6c6927123a2291a003c5d7fe42a58da68d1d5c78f577edf185a1794fb77a46d",
}

PROJECTION_GOLDEN = {
    "projection.csv": "2ecea7fe87488ccde17fcee5c617ecab91a517a504bf4a653b7adcebf8e010fd",
    "projection_summary.csv": "52f6ce92fe0c3e92c40218f9baf443a472b0a22d22b0e23fd67220bca79b2399",
}


def _csv_digests(rep):
    """SHA-256 of every CSV and numpy array file under `rep`."""
    return {
        str(path.relative_to(rep)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted([*rep.rglob("*.csv"), *rep.rglob("*.npy")])
    }


def _pipeline(tmp_path, algorithm, threads, name="run"):
    """Run evolve -> reevaluate -> faults of one golden config into `tmp_path / name`."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(COMMON + CONFIGS[algorithm])
    out = str(tmp_path / name)
    workers = ["--threads", threads]
    assert main(["evolve", "--config", str(cfg), "--out", out, *workers]) == 0
    assert main(["reevaluate", "--out", out, *workers]) == 0
    assert main(["faults", "--out", out, *workers]) == 0
    return tmp_path / name


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_primary_csvs_byte_identical(tmp_path, algorithm, threads):
    run = _pipeline(tmp_path, algorithm, threads)
    assert _csv_digests(run / "rep00") == GOLDEN[algorithm]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_analyze_and_projection_csvs_byte_identical(tmp_path, threads):
    qed = _pipeline(tmp_path, "qed", threads, name="qed")
    sdbc = _pipeline(tmp_path, "sdbc", threads, name="sdbc")
    records = [str(run / "rep00" / "records.csv") for run in (qed, sdbc)]
    assert main(["analyze", "--out", str(qed), *records]) == 0
    assert _csv_digests(qed / "analysis") == ANALYZE_GOLDEN
    # the SDBC config has cvt.iterations = 1, which keeps the projection CVT cheap
    assert main(["export", "--out", str(sdbc), "--what", "projection"]) == 0
    digests = _csv_digests(sdbc / "rep00")
    assert {name: digests[name] for name in PROJECTION_GOLDEN if name in digests} == PROJECTION_GOLDEN


def test_export_csvs_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(COMMON + CONFIGS["qed"])
    out = str(tmp_path / "run")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    assert main(["export", "--out", out, "--what", "descriptors"]) == 0
    assert main(["export", "--out", out, "--what", "triallog"]) == 0
    digests = _csv_digests(tmp_path / "run" / "rep00")
    assert {name: digests[name] for name in EXPORT_GOLDEN if name in digests} == EXPORT_GOLDEN


# (environment index, faulted, trial seed) of the fitness/descriptor digest:
# every swarm size and box count, in groups of three trials. A faulted trial
# runs a random combined fault with robot 0 set to ROFS.
DIGEST_TRIALS = (
    ((1, 1, 1, 1, 2, 1), False, 0),
    ((3, 0, 0, 3, 0, 3), True, 1),
    ((2, 3, 0, 2, 3, 2), True, 2),
    ((0, 2, 2, 3, 1, 0), False, 3),
    ((1, 3, 3, 1, 2, 3), True, 4),
    ((3, 1, 1, 2, 3, 1), True, 5),
    ((2, 0, 3, 3, 0, 2), False, 6),
    ((3, 2, 1, 1, 2, 3), True, 7),
    ((1, 1, 0, 3, 3, 1), True, 8),
    (None, True, 9),
    ((0, 3, 2, 2, 1, 2), True, 10),
    ((2, 2, 0, 1, 3, 0), False, 11),
)
FITNESS_DESCRIPTOR_DIGEST = "808fbba5bca754f9f1f8f6cc5e144d9b84e70500507341363691f7924ce82fbb"


def test_fitnesses_and_descriptors_bit_identical():
    digest = hashlib.sha256()
    logs = []
    for index, faulted, seed in DIGEST_TRIALS:
        env = NORMAL_ENV if index is None else env_from_index(index)
        faults = None
        if faulted:
            faults = sample_combined_fault(np.random.default_rng(seed), env.n_robots)
            faults[0] = FaultType.ROFS
        log = run_trial(env, random_genome(np.random.default_rng(100 + seed)), faults, seed, 30.0)
        digest.update(" ".join(repr(fitness(task, log)) for task in TaskKind).encode())
        logs.append(log)
    for start in range(0, len(logs), 3):
        group = logs[start : start + 3]
        for kind in DESCRIPTORS:
            digest.update(describe(kind, group).tobytes())
    assert digest.hexdigest() == FITNESS_DESCRIPTOR_DIGEST
