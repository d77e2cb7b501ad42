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

# name: (subcommand, extra argv, config, exit code)
CASES = {
    "spectrum": ("spectrum", [], {}, cli.EXIT_OK),
    "elements": ("elements", [], {}, cli.EXIT_OK),
    "elements_n3": ("elements", [], {"N": 3}, cli.EXIT_OK),
    "elements_n4": ("elements", [], {"N": 4}, cli.EXIT_OK),
    "elements_n64": ("elements", [], {"N": 64}, cli.EXIT_OK),
    "response": ("response", [], {"omega_count": 33}, cli.EXIT_OK),
    "response_lossy": ("response", [], {"omega_count": 33, "lossy": True}, cli.EXIT_OK),
    "phase_diagram": ("phase-diagram", [], SMALL_GRID, cli.EXIT_OK),
    "phase_diagram_h": ("phase-diagram", ["--pol", "H"], SMALL_GRID, cli.EXIT_OK),
    "surface": ("surface", [], {"surface_samples": 20}, cli.EXIT_OK),
    "surface_h": ("surface", [], {"polarization": "H", "surface_samples": 200}, cli.EXIT_OK),
    "bandwidth": ("bandwidth", [], {}, cli.EXIT_OK),
    "validate": ("validate", [], {}, cli.EXIT_OK),
    # failing rings: overdamped, the two smallest, narrow mu1 window, oversized and
    # overflowing half widths, near-degenerate levels
    "validate_overdamped": ("validate", [], {"gamma_inv_ns": 0.3}, cli.EXIT_VALIDATION_FAILURE),
    "validate_n3": ("validate", [], {"N": 3}, cli.EXIT_VALIDATION_FAILURE),
    "validate_n4": ("validate", [], {"N": 4}, cli.EXIT_VALIDATION_FAILURE),
    "validate_narrow_window": ("validate", [], {"N": 6, "gamma_inv_ns": 0.6},
                               cli.EXIT_VALIDATION_FAILURE),
    "validate_half_width_1e5": ("validate", [], {"half_width_nm": 1e5},
                                cli.EXIT_VALIDATION_FAILURE),
    "validate_half_width_1e26": ("validate", [], {"half_width_nm": 1e26},
                                 cli.EXIT_VALIDATION_FAILURE),
    "validate_xi_1e-6": ("validate", [], {"xi_intra_ev": 1e-6}, cli.EXIT_VALIDATION_FAILURE),
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
    ("elements_n3", "csv"): (
        "1766294708a253a3555dde95d88182e5c1c9ca3f9ceb25569472bb52bfc5427b",
        "c1b2ada308bd4222e41f402028b48ca8b03f662220574066aa9569526b17e748"),
    ("elements_n3", "json"): (
        "e2abda1c2ef9acd84c8da838c65800fb6b501c2b60524d49592c3f4d8b11152a",
        "333f097fee13c7812a95a874c3def6203bbf9bb56eb3ac47e67f963523954451"),
    ("elements_n4", "csv"): (
        "ff8a685e3730b6a6e5b98dd6297a463f3e420c829806379e6b9b4f398ba08906",
        "95407996f0b23cf12e7a640f284071066a78b833cec27e64c3ba09e61ea9a9da"),
    ("elements_n4", "json"): (
        "9c8437b9cce39946b457a2076d431e180f2137dec58f4ec9b60cbcb43052b9aa",
        "929bfb67c8ab409b00532bcf310be341495fe637c67d3ff86bc272979770245e"),
    ("elements_n64", "csv"): (
        "290f58fd29a77d880857c86e8c6c256ff155910c241816f961fcfc69b0fe64ea",
        "a57be0bcfa54ff365b21add80234e97a49c75fe9c38ff9e43a08a2bacdc68573"),
    ("elements_n64", "json"): (
        "c515b65a10f565bd2417a3a2249a1923cd34f7d13d87153298d3063dbdfd1b1c",
        "7eca6b9566472ad5842084b50b93a202de26b1cfaa1eb9cacf9a0a1b4bf3ccc6"),
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
    ("surface_h", "csv"): (
        "00972ecc8b4fef8b5504fbf0ffab318e66d732ec129a9c22c5e481d6d0229ba3",
        "cca0e6b3dd1eead8869199d48bd5f4c381d41ef7f3c7b4ce183ebc11595c1af8"),
    ("surface_h", "json"): (
        "8cfc22dcb5cfd1e7c12730fb78a9a400878dae016c5438abecc6a8a935e92fab",
        "fce094082361955990c27689e0eac8c785d0521e5cdb7ae705bf64444738fc7e"),
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
    ("validate_overdamped", "csv"): (
        "d3fa5f2296983d9a177e51444abbbfdf8dc6a206428862c72bbfd5e0067dda34",
        "8b1859a12180ea63a9597f06123120915def43802ba8379e417f04a575d4038d"),
    ("validate_overdamped", "json"): (
        "f9995d322d654f1671d45c58ea4a26cd30e6a778c95a9e24342f318658a4ad66",
        "6e8090185de39cc81fa0f178e254d03c1156219992861a46311bb0efdb5b58fc"),
    ("validate_n3", "csv"): (
        "97b2d4007566eebc5490603e6c97ecc8aa2cf795d64c511f5c6cb4951666b946",
        "952e91d4d15d69147aa16922f10b0950fb8f9539b8af54597b16b3b777611449"),
    ("validate_n3", "json"): (
        "839f610256bb4e244fd406da47a83ae659d2c174647e11d752d6d8440811c6a2",
        "7b797ed046c1eece88f6ead4848450484d16f5331fee284dd430777293ac5ca5"),
    ("validate_n4", "csv"): (
        "fba77c3f3e194449b04156355f9d5dd195b2d2a6024a9336f89ce416c5e7b5ae",
        "084a3c34b0d64e8772c6884c7381cebb0ca61c8f0e109728bc786c3e27b00843"),
    ("validate_n4", "json"): (
        "78c88b5a910fc1730df51ad06694660ba09063fd2be6d15d7cb73c2ff57aa483",
        "cbe8d84c50b039b9cbb5e45f83cc714404e7c4ce0c09f5e2bed8bb647e98ab30"),
    ("validate_narrow_window", "csv"): (
        "2b680616b7cd66b964a82b47ea478442876f422fe78e58ea49a88e523182e3cc",
        "b9a2f3e93a1a97a71e45bfa4ede78928d1f7526940943cdbea95a33bf12caaaf"),
    ("validate_narrow_window", "json"): (
        "24ad7a7505fc607184d1c4ab23cc4ad171a4aed6e0098fddf0c6b37d1f353ddd",
        "05f08874251befd5b5fc9d9e69de742984dc2e42eef1ea36ac6dc39c9071b9b4"),
    ("validate_half_width_1e5", "csv"): (
        "007a8c9f63b864387ac482ebc957165422295f1663fd17c7c0a04fbdc48be77f",
        "6a7cc8deb1d34033a9cc64086ac98c7496b32dd3a1e468bba518bda902ca4906"),
    ("validate_half_width_1e5", "json"): (
        "d6d98f83c8e03bd1f6a740a1cc847f2ad3ca4bd5240aa3e7eddcc85db8eb07ce",
        "9eb31528be5fb99558f363cca299f0c34a64b427e4a6e94a0f18e0ca57d6fd44"),
    ("validate_half_width_1e26", "csv"): (
        "142adeba602d7a315cf71d1d78f11e27f20985a310de6a11296151127016e2ef",
        "994e47941c94bb1bf1eab7c5fd39a06954a21e02a50e6a6b79c76eb8533f188d"),
    ("validate_half_width_1e26", "json"): (
        "3bfbd7f77c941502aa19d253139c89f51d62fd50eaedb6b94b768c65561057fe",
        "07951fbbe7d7a81ee9149903143fcd39c7259bf170b62153a0dfc8a0bd6c24e0"),
    ("validate_xi_1e-6", "csv"): (
        "707bd3317c2353fedb77aade2a28e3f7af20401fbc75a5151d942f3a6c9fb8e2",
        "96e441a8ed621743260065ae22e564c2aa164d7de4b07c6277376b97ee6ab9a4"),
    ("validate_xi_1e-6", "json"): (
        "9748cf776a1a06fd3fc8489421db97260752be2e5c2f6ca53dabcef9fb092dd9",
        "af888f28d6fb76061d3942d37c3e675d4bb7bb11e093338a999ab79a2c61da16"),
}


def _run(name, fmt, workdir):
    command, flags, config, exit_code = CASES[name]
    conf = workdir / "config.json"
    conf.write_text(json.dumps({**config, "format": fmt}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, *flags, str(conf)])
    assert code == exit_code
    data = (workdir / f"{command}.{fmt}").read_bytes()
    return (hashlib.sha256(data).hexdigest(),
            hashlib.sha256(out.getvalue().encode()).hexdigest())


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_output_bytes_match_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if CASES[name][0] == "phase-diagram":
        # SMALL_GRID is coarser than the negative-permeability window
        with pytest.warns(UserWarning, match="cannot resolve"):
            assert _run(name, fmt, tmp_path) == GOLDEN[name, fmt]
    else:
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
