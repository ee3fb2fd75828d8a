"""Golden outputs: every file the CLI writes for the presets, pinned by SHA-256.

``table1`` and ``detection --seed 7`` run ``simulate`` -> ``ingest`` ->
``filter`` -> ``associate`` -> ``analyze`` (analyze once per cell of the
topology); ``funnel`` has no topology, so it runs ``ingest`` and ``filter``.
A refactor must leave every hash unchanged. A change that alters output on
purpose updates the hashes here and says why in CHANGES.md.
"""
import csv
import hashlib
from pathlib import Path

import pytest

from eventcell.cli import main

EXPECTED = {
    ("table1", 0): {
        "config.json":
            "dd70e166fae8049e4993ab65a774305eaab9ddc1f1f3acf9f05049c4f7a52d51",
        "events.ndjson":
            "193dff213a6bcf8cd27fe3cac4fe3d04f45176a043e205f3614666c4e53955f8",
        "ground_truth.json":
            "bf61b8058d666adde1bb5caf75662ae5c5433916a1a098bd744acd8ffa81bf4c",
        "kpis.csv":
            "e95aa99e7a6db7026181e85951bab7bfeeb0b6136257eef88ff09df5631d9ae6",
        "out/associations.json":
            "b91419e858d5145a1ef5cce7ae1c783ba0afa6abc0831f98390c830eb88d90f7",
        "out/drops.csv":
            "f95ec213db5dcebb2e4d335c98a48e450422275372aff8730583e66c8e483cb0",
        "out/events.ndjson":
            "88b2ca2e7b9f806f6125b8a30809f87afd3e97d996c99dc2584d8e3ed7bbddd4",
        "out/filtered.ndjson":
            "88b2ca2e7b9f806f6125b8a30809f87afd3e97d996c99dc2584d8e3ed7bbddd4",
        "out/report.json@CELL_1A":
            "c0308b64edf63b49ac8cc17c12de3fab7286dc849257abf6b06353a804128ab0",
        "out/report.json@CELL_1B":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_1C":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/summary.csv@CELL_1A":
            "916475b246f0ac4c5ae1e1b8c22f61be5a270256efb1eb6ac6f28b42d00d6730",
        "out/summary.csv@CELL_1B":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "out/summary.csv@CELL_1C":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "topology.csv":
            "0b5bcbb66916867d9b36850b60f7ae59d27704e51b20a890f74400f8c24d4850",
    },
    ("funnel", 0): {
        "config.json":
            "6a9903e94f930539ef2ecac96547d88f11ed450374ac872fd2b7a35673eddf22",
        "events.ndjson":
            "9024adc1df27a8d1a590f0de017eb27e0b3ddcf3fbda299b7c74cb012ed6af0e",
        "ground_truth.json":
            "588e6d1f7a77d22aeaad058e2c061f4249b3b122f941f4de5ea88096588bcd2c",
        "out/drops.csv":
            "64c27777d224c825205662eefe035137cf56a6c64906bc9c16482da695f62443",
        "out/events.ndjson":
            "ed6acfaadc5046c3b88d0eba394a323e78367d619ecd5d7169d15a1b01e16734",
        "out/filtered.ndjson":
            "3ed7d70fb48ea530d7ccfd5b77b341e7a29aee97d697a4663d4cf839b091d4cd",
    },
    ("detection", 7): {
        "config.json":
            "68e771741fd5ee08111f84855561fe7fb895c864efbaaad7fedc4ebd962ce9e9",
        "events.ndjson":
            "00351570104343fcddc1bbdd7855ba93eef4ba85824fd6d6b88eb81c62c29586",
        "ground_truth.json":
            "aee10177c4f2f9998a31783d1be53917e6bb83ed2c95d7a8c1254c0c638cee3d",
        "kpis.csv":
            "37199246f74172dfa9bddeae05b04923975eb03be7d4559cd0d0c6378d3df9fb",
        "out/associations.json":
            "fc92e2285b3c89fe4ae873bc06d58d6516a6bb399890fc28ed9bf3865f4fa5bc",
        "out/drops.csv":
            "f95ec213db5dcebb2e4d335c98a48e450422275372aff8730583e66c8e483cb0",
        "out/events.ndjson":
            "929abb95304711873f4fb4e70b855f02f40551444617948767a6aafff3040bd7",
        "out/filtered.ndjson":
            "929abb95304711873f4fb4e70b855f02f40551444617948767a6aafff3040bd7",
        "out/report.json@CELL_1A":
            "ff3df55c886edecf52cdd7398a9fc1e1bec8af2edb6937a072f97744b431ad19",
        "out/report.json@CELL_1B":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_1C":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_2A":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_2B":
            "728180a04f7126c1881d92e9d228d258927439fa98888ba4fbf5b1b75367a2f8",
        "out/report.json@CELL_2C":
            "3951ff65178b538f9a64adeec68c36a49d1d9b67f36b473f755c30af99d7f0ab",
        "out/report.json@CELL_3A":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_3B":
            "bf43cb04bd4ed7a01c8cec18dbfcf0185e377c9a8155fd99edf9e68131cc9512",
        "out/report.json@CELL_3C":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_4A":
            "0d339cbee64bcccf0510e5659442a04bea683ad7e4a8e23aaa0475686ea1b6a6",
        "out/report.json@CELL_4B":
            "b5f63ee43a2b7578582233114b487741ce5e4c698ded54a150b5713e9850668f",
        "out/report.json@CELL_4C":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/summary.csv@CELL_1A":
            "1886ee1e0e70187afab23e09dee53417cb8698565a80fdc4d371e84664191191",
        "out/summary.csv@CELL_1B":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "out/summary.csv@CELL_1C":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "out/summary.csv@CELL_2A":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "out/summary.csv@CELL_2B":
            "35f2cdd2a36654f6114e28c4da455ceae25c216bc53508a7d41c6126bcca630a",
        "out/summary.csv@CELL_2C":
            "7193a5e27141d10dce9aaf3d2d3a2a97941261354130e07ee1de5a63fc3d03d5",
        "out/summary.csv@CELL_3A":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "out/summary.csv@CELL_3B":
            "f961c8664becee52639db0dbff4bfb0885bab69efc08f31d5e2329cc2014b9ec",
        "out/summary.csv@CELL_3C":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "out/summary.csv@CELL_4A":
            "76e1936addf9f866f2548be46604da0a613658a53a87446b37eb6c45caad9bf6",
        "out/summary.csv@CELL_4B":
            "2e995dbaed2a30a87e1230099f4d12a1dd486e06f847d816b014148851036c96",
        "out/summary.csv@CELL_4C":
            "920cb6523cb55aad2885c77dd280e1f4f94e887b622f8931ec49f57b408f6a98",
        "topology.csv":
            "c852c98c9389ba4d980a1659e001937074b6733bed5644698cd504d34b06509d",
    },
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_hashes(bundle: Path, preset: str, seed: int = 0) -> dict[str, str]:
    """Run the preset's stages through ``cli.main`` and hash every file written."""
    assert main(["simulate", "--preset", preset, "--seed", str(seed), "--out", str(bundle)]) == 0
    config = str(bundle / "config.json")
    stages = ["ingest", "filter"] if preset == "funnel" else ["ingest", "filter", "associate"]
    for stage in stages:
        assert main([stage, "--config", config]) == 0
    hashes = {}
    if preset != "funnel":
        with open(bundle / "topology.csv", newline="", encoding="utf-8") as handle:
            cell_ids = [row["cell_id"] for row in csv.DictReader(handle)]
        for cell_id in cell_ids:
            assert main(["analyze", "--config", config, "--cell", cell_id]) == 0
            for name in ("report.json", "summary.csv"):
                hashes[f"out/{name}@{cell_id}"] = _sha(bundle / "out" / name)
    for path in sorted(p for p in bundle.rglob("*") if p.is_file()):
        name = path.relative_to(bundle).as_posix()
        if name not in ("out/report.json", "out/summary.csv"):
            hashes[name] = _sha(path)
    return hashes


@pytest.mark.parametrize("preset, seed", [("table1", 0), ("funnel", 0), ("detection", 7)])
def test_preset_outputs_match_golden_hashes(tmp_path, preset, seed):
    assert pipeline_hashes(tmp_path / "bundle", preset, seed) == EXPECTED[(preset, seed)]
