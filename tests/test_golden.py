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
            "89311d7574ee07add92b214490244dfd2174c48551b2dccabe42917b026c5f97",
        "ground_truth.json":
            "aee10177c4f2f9998a31783d1be53917e6bb83ed2c95d7a8c1254c0c638cee3d",
        "kpis.csv":
            "37199246f74172dfa9bddeae05b04923975eb03be7d4559cd0d0c6378d3df9fb",
        "out/associations.json":
            "b62ca5dd000583d6ad2ad03ce37dabcc79abd295cb0cf459de6e2f420dff7299",
        "out/drops.csv":
            "f95ec213db5dcebb2e4d335c98a48e450422275372aff8730583e66c8e483cb0",
        "out/events.ndjson":
            "67b0ee5fae93dc71a67b1b618e6f6e10a436f4af74c9cc28590373ba2efffee7",
        "out/filtered.ndjson":
            "67b0ee5fae93dc71a67b1b618e6f6e10a436f4af74c9cc28590373ba2efffee7",
        "out/report.json@CELL_1A":
            "ff3df55c886edecf52cdd7398a9fc1e1bec8af2edb6937a072f97744b431ad19",
        "out/report.json@CELL_1B":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_1C":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_2A":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_2B":
            "0f58312d522ff7e2f2e9885a39cf2e02c8d4d08d1a36ae6785d7f48660ba9c3c",
        "out/report.json@CELL_2C":
            "f54b806e9248ce1c429342f2e822744799290ed4439edd608cdedd3cd6ff66ac",
        "out/report.json@CELL_3A":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_3B":
            "763f3b51310fe7299df449ddc6f9c4b505040af3f1dcb9e4f8073fad9c3b3478",
        "out/report.json@CELL_3C":
            "6c1db664439054b14cf5baade95beb5c1b194266ecf60003a2aab24c85fd8359",
        "out/report.json@CELL_4A":
            "a45ceb6d4529f144b5d7fd296a7b504975dac27f3ec6ce132600e332e9f25295",
        "out/report.json@CELL_4B":
            "811082b4877710b9fbefc62b0d7752a9c6a46f5f3adfee0e595cf5e1f36895e6",
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
            "7968c37c0636cc5dbbd126925bdc186f30239060dcfd528a553177fbe7135e31",
        "out/summary.csv@CELL_4B":
            "496530b5941750a02494b4aaed655fc97df2f76284e60d0fcb612d31586967e5",
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
