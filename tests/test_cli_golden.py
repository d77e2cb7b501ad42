"""Golden bytes of every CLI subcommand in both output formats.

Each case runs `cli.main` in an empty directory, so the output file takes
its default name and the `wrote ...` line is the same on every machine.
The SHA-256 of the output file and of the printed summary must equal the
digests recorded below; any change to a table's bytes, its row count or
its summary line fails here.  Regenerate the table with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when a change to
the output is intended, and say why in the change log.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from mobius_optics import cli

SMALL_GRID = {"theta_count": 7, "omega_count": 33}

# name: (subcommand, extra argv, config)
CASES = {
    "spectrum": ("spectrum", [], {}),
    "elements": ("elements", [], {}),
    "response": ("response", [], {"omega_count": 33}),
    "response_lossy": ("response", [], {"omega_count": 33, "lossy": True}),
    "phase_diagram": ("phase-diagram", [], SMALL_GRID),
    "phase_diagram_h": ("phase-diagram", ["--pol", "H"], SMALL_GRID),
    "surface": ("surface", [], {"surface_samples": 20}),
    "bandwidth": ("bandwidth", [], {}),
    "validate": ("validate", [], {}),
}

# (case, format): (sha256 of the output file, sha256 of stdout)
GOLDEN = {
    ("spectrum", "csv"): (
        "1bb2df54e675931497cdcec936e2734c9caf80fbeed1ea2e3afb3d5f10f85901",
        "294594493b86c36a63f2a0b3f9db2287ea62bfa554ce487c0d9c4430888cfd7d"),
    ("spectrum", "json"): (
        "fecc4451ec325f7bb1e96175586dd55d2a45c337c60e2c4c89d58a3defa8656a",
        "0778300d36fb0bff0c342fb9e1dd358dce40c69291a3273a898086a73b87cd3d"),
    ("elements", "csv"): (
        "a5604f3e3b37a9d63b4c8d3ac66b321777e87181066141c1bce3673e7ee78720",
        "c1277cce4958f93e1b1e8c99701b10eaffdc9ff0e5947b679f9acb0067c6e2b8"),
    ("elements", "json"): (
        "f3ede766507ca596e4a5c2cdc24af7b7243a7d5f954ece86d6611b1c10dc50d0",
        "3f0cab8a863abb871af8bc6cd2869b270db53af08a7b5e0c29a537c6d7ec5105"),
    ("response", "csv"): (
        "8e843c2b526dcb8fc698a1e1daa7f976299f38b5511532809b51c1103cc804d1",
        "ab4c89871053a403e5beef7f69ea67071f1141f15d00f637d3465fd125259047"),
    ("response", "json"): (
        "6dd479694bf58ac5f15b2d94e54cdc3ccf10b7dc21e7f8392997853b50c90dbd",
        "90c8d11c4d91c8d932ea935cac9178c7672983aab92709d4fe6ce0571536d347"),
    ("response_lossy", "csv"): (
        "8cc9d97e139eced335886a7b6ac29cb8d05a5d58e1399daf0183e0d958c6ab11",
        "ab4c89871053a403e5beef7f69ea67071f1141f15d00f637d3465fd125259047"),
    ("response_lossy", "json"): (
        "0db4c15f2055bc442559c792b0afd4b1597873f687da638142e57813db5a246e",
        "90c8d11c4d91c8d932ea935cac9178c7672983aab92709d4fe6ce0571536d347"),
    ("phase_diagram", "csv"): (
        "3e8f1b65f0c2184b08941d094643540a24e95f027fb649b1dcefb921bc022f58",
        "9f0ee2928675f411c163adcd166edc9beaafddc8be442117014748cd5df10415"),
    ("phase_diagram", "json"): (
        "04d16a7e86886ea0a32dad13234caf2a627f17516218ac64f1b1f384bcca4051",
        "86fd74417a21225a274f53e9dfd4d0567b33bc3cb93b9ac4103226876e17e390"),
    ("phase_diagram_h", "csv"): (
        "be06a9fd6b671415a978a5a0186224eeeccaf61c1d4e61bc9220ded63fa6e369",
        "6e2557ce5ffd6a3a3668f67d62da83c18562f7e901a00099bc15a3b1602f104c"),
    ("phase_diagram_h", "json"): (
        "a787ecaf4b5c1fd3931a09094a7e5f72777d3819b292ba71b0d60c86c2a097bd",
        "4d2bd039ef964947203d259aa82098f45068a7b307f303ef97933f543c0508ff"),
    ("surface", "csv"): (
        "a9f4d46c7be6795b0033019b885c93a90e36dd4adb6cf7cd0142860cf507fb0a",
        "9d8a94cb58db4e4b5f1eb500eafabaa7b23d07defd50d870a360305a7ac321d8"),
    ("surface", "json"): (
        "eb52a56a77fb8af1445b33df7e34bfa0b6f620f8d45d7e8c262d96cc6f8dd7df",
        "e2ee16fecf86840fbaf9caf3b60f3a42fe02543ca42e6ca09390eae69dcadb6c"),
    ("bandwidth", "csv"): (
        "272aaf2063d758d63d8100e29621a99595e2eebfa7adac2a8a47b36e4017f762",
        "7624522a84b72a317a2f386c9a0e27ace34d4b6fa390492f19382196e91cd12d"),
    ("bandwidth", "json"): (
        "19553dc68128fc29506612404b4942bee0c7b1da56c1f2497da738a2e2dce028",
        "5d589f46088c96a29a787d86916862dfb79c9c623e36e23810179620d4b2fec6"),
    ("validate", "csv"): (
        "0459f07c65f5bdd03559ddcb6e542a229addd52073add790b05f60a13be379c7",
        "77169c05d938ae985c0e47e42c0c17a209c91f0c7e3fb3160f2ad10c8994a22c"),
    ("validate", "json"): (
        "962d41c79770be2a61062d0e2ba49c93a6bc7b9d4b2ccd937b544724bfc26ba6",
        "c41f74e4737522a6a2022b8ab3c20e1c93348d18278fc794f32bcb30160b27af"),
}


def _run(name, fmt, workdir):
    command, flags, config = CASES[name]
    conf = workdir / "config.json"
    conf.write_text(json.dumps({**config, "format": fmt}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, *flags, str(conf)])
    assert code == cli.EXIT_OK
    data = (workdir / f"{command}.{fmt}").read_bytes()
    return (hashlib.sha256(data).hexdigest(),
            hashlib.sha256(out.getvalue().encode()).hexdigest())


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_output_bytes_match_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(name, fmt, tmp_path) == GOLDEN[name, fmt]


def test_every_subcommand_and_format_has_a_golden_digest():
    assert {CASES[name][0] for name, _ in GOLDEN} == set(cli._COMMANDS)
    assert set(GOLDEN) == {(name, fmt) for name in CASES for fmt in ("csv", "json")}


if __name__ == "__main__":
    import os
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CASES:
            for fmt in ("csv", "json"):
                file_sha, out_sha = _run(name, fmt, pathlib.Path(tmp))
                print(f'    ("{name}", "{fmt}"): (\n        "{file_sha}",\n'
                      f'        "{out_sha}"),')
