"""Golden digests of what the figure regenerators print.

A SHA-256 over the stdout of every deterministic
``python -m repro.experiments`` subcommand, run in-process, and of
``python -m repro.obs --procedure all`` on each system.  No host clock
feeds these outputs, so a change that must leave the modeled figures
alone keeps every digest; one that moves a figure on purpose
re-records it and says why.  ``fig06``, ``fig11`` and the classifier
table of ``scalability`` time the host and are left out; the session
rows of ``scalability`` are pinned through ``session_scale_sweep``.
"""

import hashlib

import pytest

from repro.cp import SystemConfig
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.scalability import session_scale_sweep
from repro.obs.__main__ import main as obs_main


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: Recorded before the UE procedures ran from scenario data.
EXPERIMENT_GOLDEN = {
    "fig07": "fae4fd3c6c361136757ba0c630a68223c447da2c8c35f87354fa34b071b5e23d",
    "fig08": "c279b36cac75b3db6ca9f119e6b3abfcb80408d34987db4bc4e56470817f7b04",
    "fig09": "f39fa65c637c3f29e9f44d723f796368af2acd9b102de179139775e9e0f48001",
    "fig10": "f05a44ae58406d9c1db9ffec652b4934043768b3c6da77187e7a099489703539",
    "fig12": "6826c02254b48252e3edec6202c486706df630443a4ce0a9ae77695022bab1d6",
    "table1": "70070739b89a74f33654f454ce52555798f7600866be1f70bdaab4f05cc82569",
    "table2": "ab3d79ad6460abad311a2fde568c09a398c99706455a806722e7079b01a7b119",
    "smart-buffering": "f54bca87104c3207656a52d03087a9e78e84617df9c6ab819715e30016d4ae6c",
    "fig15": "7d8c4697422a498b078ea478bdf3729f756d7c68c7bd1b8c7e014fbb9bd4df1a",
    "fig16": "e82384e771f26e3a64a0122e2d8f93cdc0b03311cd94db78f9d3e804dd55a613",
    "fig17": "0ed6e57d99c089abd2f7ad29ad1c5d8cb7d68efab46074c0fb895c5a560feaee",
    "shard-scale": "9aa2463be37a992d7b598c8ed74d9284be36c33fa869517120821e897f5c1a8e",
}

OBS_GOLDEN = {
    "free5gc": "13dcee5ed6b3ad489c4fc712380722791d7509fdb27168e5e09be494d76ad3e7",
    "l25gc": "dc084376a014b054bc1aaff4a518d0479ced503eb0b200923e7bbe1dcc05b6a6",
    "onvm-upf": "f42d56395c94ac60da6466d19fe0e6d495d86aad7c13bd7316bb72bddce1df0d",
}

SESSION_SCALE_GOLDEN = (
    "59d22ff507b983b3b5b04fd814bc3e7b1ecc0e97174907a0a4336724cf6ac04b"
)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_GOLDEN))
def test_experiment_output_is_unchanged(name, capsys):
    assert experiments_main([name]) == 0
    assert sha(capsys.readouterr().out) == EXPERIMENT_GOLDEN[name]


@pytest.mark.parametrize("system", sorted(OBS_GOLDEN))
def test_obs_procedure_render_is_unchanged(system, capsys):
    assert obs_main(["--procedure", "all", "--system", system]) == 0
    assert sha(capsys.readouterr().out) == OBS_GOLDEN[system]


def test_session_scale_rows_are_unchanged():
    rows = session_scale_sweep(SystemConfig.l25gc())
    assert sha(repr(rows)) == SESSION_SCALE_GOLDEN
