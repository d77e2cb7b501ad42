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
TABLES_GRID = {"theta_count": 256, "omega_count": 512}   # the `tables` benchmark's sizes

# name: (subcommand, extra argv, config, exit code)
CASES = {
    "spectrum": ("spectrum", [], {}, cli.EXIT_OK),
    "elements": ("elements", [], {}, cli.EXIT_OK),
    "elements_n3": ("elements", [], {"N": 3}, cli.EXIT_OK),
    "elements_n4": ("elements", [], {"N": 4}, cli.EXIT_OK),
    "elements_n64": ("elements", [], {"N": 64}, cli.EXIT_OK),
    "response": ("response", [], {"omega_count": 33}, cli.EXIT_OK),
    "response_lossy": ("response", [], {"omega_count": 33, "lossy": True}, cli.EXIT_OK),
    "response_4096": ("response", [], {"omega_count": 4096}, cli.EXIT_OK),
    "phase_diagram": ("phase-diagram", [], SMALL_GRID, cli.EXIT_OK),
    "phase_diagram_h": ("phase-diagram", ["--pol", "H"], SMALL_GRID, cli.EXIT_OK),
    "phase_diagram_256x512": ("phase-diagram", [], TABLES_GRID, cli.EXIT_OK),
    "phase_diagram_h_256x512": ("phase-diagram", ["--pol", "H"], TABLES_GRID, cli.EXIT_OK),
    "surface": ("surface", [], {"surface_samples": 20}, cli.EXIT_OK),
    "surface_h": ("surface", [], {"polarization": "H", "surface_samples": 200}, cli.EXIT_OK),
    "bandwidth": ("bandwidth", [], {}, cli.EXIT_OK),
    # overdamped: the sweeps fall back to 0.1 x the resonance and the surfaces to one detuning
    "response_overdamped": ("response", [], {"gamma_inv_ns": 0.3}, cli.EXIT_OK),
    "phase_diagram_overdamped": ("phase-diagram", [], {"gamma_inv_ns": 0.3}, cli.EXIT_OK),
    "surface_overdamped": ("surface", [], {"gamma_inv_ns": 0.3}, cli.EXIT_OK),
    # overdamped for the 4W cylinder only (tau_c 0.518 ns), and a narrow mu1 window
    "bandwidth_overdamped_4w": ("bandwidth", [], {"gamma_inv_ns": 0.4}, cli.EXIT_OK),
    "bandwidth_half_width_0.01": ("bandwidth", [], {"half_width_nm": 0.01}, cli.EXIT_OK),
    "validate": ("validate", [], {}, cli.EXIT_OK),
    # failing rings: overdamped, the two smallest, narrow mu1 window, oversized and
    # overflowing half widths, near-degenerate levels, and near-critical half widths whose
    # mu1 window lies outside the lossy sweep (0.01 nm) or the diagram grid too (0.00998 nm)
    "validate_overdamped": ("validate", [], {"gamma_inv_ns": 0.3}, cli.EXIT_VALIDATION_FAILURE),
    "validate_n3": ("validate", [], {"N": 3}, cli.EXIT_VALIDATION_FAILURE),
    "validate_n4": ("validate", [], {"N": 4}, cli.EXIT_VALIDATION_FAILURE),
    # N = 3 with its four-fold resonant level split (V != xi)
    "validate_n3_v_ne_xi": ("validate", [], {"n_per_ring": 3, "v_inter_ev": 2.0,
                                             "xi_intra_ev": 1.3}, cli.EXIT_VALIDATION_FAILURE),
    "validate_narrow_window": ("validate", [], {"N": 6, "gamma_inv_ns": 0.6},
                               cli.EXIT_VALIDATION_FAILURE),
    "validate_half_width_1e5": ("validate", [], {"half_width_nm": 1e5},
                                cli.EXIT_VALIDATION_FAILURE),
    "validate_half_width_1e26": ("validate", [], {"half_width_nm": 1e26},
                                 cli.EXIT_VALIDATION_FAILURE),
    "validate_xi_1e-6": ("validate", [], {"xi_intra_ev": 1e-6}, cli.EXIT_VALIDATION_FAILURE),
    "validate_half_width_0.01": ("validate", [], {"half_width_nm": 0.01},
                                 cli.EXIT_VALIDATION_FAILURE),
    "validate_half_width_0.00998": ("validate", [], {"half_width_nm": 0.00998},
                                    cli.EXIT_VALIDATION_FAILURE),
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
        "59c0a73f0109e041d7673c4b4ad012e81c112ed79bd06bf86cc483f73503514d",
        "c1277cce4958f93e1b1e8c99701b10eaffdc9ff0e5947b679f9acb0067c6e2b8"),
    ("elements", "json"): (
        "2c1029181d390f67af2230e641b84212d768f704e176a4a835e10fa2cf8bfd7e",
        "3f0cab8a863abb871af8bc6cd2869b270db53af08a7b5e0c29a537c6d7ec5105"),
    ("elements_n3", "csv"): (
        "bb1f96d9d8ca0ef30aee6eae21b65b403b8feb7b6dc96bc82895c86e30f91299",
        "c1b2ada308bd4222e41f402028b48ca8b03f662220574066aa9569526b17e748"),
    ("elements_n3", "json"): (
        "bf1f960a5dd994e7db1249ef47d106222d69ed85ff03ebef4cf46cacfc6ffa45",
        "333f097fee13c7812a95a874c3def6203bbf9bb56eb3ac47e67f963523954451"),
    ("elements_n4", "csv"): (
        "9d0962056807bc2d9f3a4ad5d00da8e50c635397ed382a97e0e5b128b938e802",
        "95407996f0b23cf12e7a640f284071066a78b833cec27e64c3ba09e61ea9a9da"),
    ("elements_n4", "json"): (
        "3085ae2eac3c890b4d7b92d71eae91a2eacb81ca0c72a128992a9a8c42ee6191",
        "929bfb67c8ab409b00532bcf310be341495fe637c67d3ff86bc272979770245e"),
    ("elements_n64", "csv"): (
        "b1d888fc97cc4b076d496f520ccd53671f577ac53636980414c2e2215b3b11db",
        "a57be0bcfa54ff365b21add80234e97a49c75fe9c38ff9e43a08a2bacdc68573"),
    ("elements_n64", "json"): (
        "856dda93c8061df57e5f98ab929cf8b178b12d72de6e22138ff53ca4d9794bb9",
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
    ("response_4096", "csv"): (
        "de91fa4de1e4fbd30186553506a5a1136158da3c069d8499a5e6e4df49529ff9",
        "0bf7b5bf81889d5a15ec4b374e70a65e729ee9f27c7229dd505acc5f4872b16e"),
    ("response_4096", "json"): (
        "157bf2aa3ecdc084af166be0cefd585832aa45c6345c1d0217c7e6948ca38392",
        "d01c65a7f11e3633f5ab959cd973a71f2ea57565e3fee2ae5421ffd75ba3ee4d"),
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
    ("phase_diagram_256x512", "csv"): (
        "c2748ee12b38eba916e91d2987329193f09167ea4e8b2c7377eb5564a760ea98",
        "99573cd5360cb75bba46728bf5764b26f3450e11caf4315fb1f775af9938ab7c"),
    ("phase_diagram_256x512", "json"): (
        "d29bae0444efff0a57bbd8a3f33cde5eb9e97b535bb77528e4a6cc640fb7163a",
        "53c8f29339f0db5292ea8067794dc0eeafc8ed6eb67d2e52653fe614b788347b"),
    ("phase_diagram_h_256x512", "csv"): (
        "02839204690397a6d12de6703bd4b077b4db26a9880e191002687a61ac4e392a",
        "266cf27dc20824dc4430120d45a5471fe89e1395ea2bd72410c0828ea4672588"),
    ("phase_diagram_h_256x512", "json"): (
        "802aa21737b14a862e5ac6b8770dad440a6982152440213d5051c8d849b60537",
        "ca5d4f98e5d4457dac38a258abc245840b2d7acd4e5121315ca45e84b0b64b3e"),
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
    ("response_overdamped", "csv"): (
        "b4488565cd5af410caba029ff11c759f3792c912cbbc2cf42df48268e5d8a133",
        "723b3b1645ae02b87da7005673bb0989b56864bd00cd80e979739b6eb7dd203e"),
    ("response_overdamped", "json"): (
        "75283a02ba1c736d4daa5946870d95e2c7a589646e94c269919570660c540fe2",
        "5797d8a76aedc4f33a39b99aa55228677af42a3cb10ba5489a4eeb7ae0659c29"),
    ("phase_diagram_overdamped", "csv"): (
        "e3393f8247ab648f1b4adc9178d0e31a49624ff66af3ffa0220f9c29f8a8ca4f",
        "6760cbee6d0333c51f7eb105b2f8e9b1423e0ef13f082fb69d1931ecfd45d80b"),
    ("phase_diagram_overdamped", "json"): (
        "a6194aa8b0ffdd32bdbc5bd81b8049bdf1276e31718e692ac5015b4e8816ca7b",
        "2955299b203403105838cea1c1d7312c5a6b18f86502d2da4afeb231e88951e9"),
    ("surface_overdamped", "csv"): (
        "0cd722c6a483d5fcf1ba0f865e185047e0ee8344936cbe52c6384926af63521b",
        "a466151b2e2058f7503c299ee258f1bc149fa824d100f7ce39492f6f4f37c0fe"),
    ("surface_overdamped", "json"): (
        "62313adf068d610d054518815dffa9f3258b9f9eea9f4f9496f065489d95cd7e",
        "b9f226d55e051179ac85f5747f52e8b0878a7a9f0fbd454c75268fa8a4692e83"),
    ("bandwidth_overdamped_4w", "csv"): (
        "de3267d746b9804f11f98affba8bb550485b084fb8b6382411ecc4d05b3e71f7",
        "7624522a84b72a317a2f386c9a0e27ace34d4b6fa390492f19382196e91cd12d"),
    ("bandwidth_overdamped_4w", "json"): (
        "4c1e3abb7e96385e7bdf72afb811e1190369af6c26a375ec9aa2d3362bbb6b5a",
        "5d589f46088c96a29a787d86916862dfb79c9c623e36e23810179620d4b2fec6"),
    ("bandwidth_half_width_0.01", "csv"): (
        "9dedd6b0e1f92bf2599393ab3a97d82d64141ba9a6f9d9b11645059eb770460f",
        "9f66f54819d4722e529481f600a0921139e572d05736bcd2b7590a83f4180b22"),
    ("bandwidth_half_width_0.01", "json"): (
        "6cb8224ea3b16b625928b5cf0a8ced040e0bbd2e2ad8739e285d16f2e27071ce",
        "4bc76a162e6babb369166b569771393f552dffb16a88435dec47963270527d5b"),
    ("validate", "csv"): (
        "2fceb22b7bc9957b0c3ec80f300ee99d9865a740f546cfa242c98fd16815095b",
        "1815a824ef7dab7580f849fc6a89690e3228833280e532e48c08b643bb7876a1"),
    ("validate", "json"): (
        "884b7ca0933be961d5aee2f31d14046ad560f3d58ea07597510bade0015d5084",
        "bee70d0139b1d40018d723d670eab49c51da6973cb850be2ab3e4e5b5c4f0777"),
    ("validate_overdamped", "csv"): (
        "c5818823d34d63df29f3c780d8f1121969e2328c3b1d8d81444f7693383da222",
        "8b1859a12180ea63a9597f06123120915def43802ba8379e417f04a575d4038d"),
    ("validate_overdamped", "json"): (
        "542f325d1b531fc80165515d946c0952508785ab09634735a578c47785fcf51f",
        "6e8090185de39cc81fa0f178e254d03c1156219992861a46311bb0efdb5b58fc"),
    ("validate_n3", "csv"): (
        "61a3eb74d509530370255661d17cd157c1c21ad72ea20f0ba6fa36d78564ea30",
        "27490f4067445d3ebbe6a18d444655b21837859a54936b77ae520ed51f76b687"),
    ("validate_n3", "json"): (
        "89e5486fa80595f2a4b1b36cb8fa73ea5cc6ace8689dada123c2929b179bbe76",
        "ee614346ebdd440d61f8e75e23673c81a2032308cd30bb54288f095a09a7f636"),
    ("validate_n4", "csv"): (
        "144f196719f1effe6877ec288ca9f951ce646dfda239224ff4091eef9a15c04b",
        "5d87c238da706390202ecded57a3e7594e9f43fbdc3288299b34e2402b2921ec"),
    ("validate_n4", "json"): (
        "c67bb5e8ba1600a77724cb281f697862deb9975bacd8607edb6b0f39493e7cec",
        "8cbd81f0269da145ab8fb31f7ae2afa231fe53d0ba9b27148f15389b27efaa63"),
    ("validate_n3_v_ne_xi", "csv"): (
        "81d5695433c310e6ffcb170aec480cf436a50306da7805862d2e97d91983ef6f",
        "2c7d5073db4677803effae1b8f22e712d9101aeca09848dfa3841a1dd59a6876"),
    ("validate_n3_v_ne_xi", "json"): (
        "5e944577a1f1f9c335bad78589180acab9fb68a3d59248b657fbfe40d61683fb",
        "005fc817c9ce5bdd112cc2bba6fa27e651dee3cd3ec66e924e515471cd77be34"),
    ("validate_narrow_window", "csv"): (
        "4527f8a1aa9bede6b3cec8746f0ecd37738a95ff37052de111b95e39afca51d7",
        "a16449ad996cbfe774274a3678736176db7a76be44454b609eb8af5772cba74a"),
    ("validate_narrow_window", "json"): (
        "0585fd1be8d6273894bbbbea3226057dfcfff47f13d8191d17500c3945d51749",
        "985cf44053e65472f38e1ac0bdf453be257918ee5de4a819d06775ca59d2472f"),
    ("validate_half_width_1e5", "csv"): (
        "55a875542f03db621fc7239e11c395426e9970ac319fa88a69e5d2b0a9d98961",
        "84056ca3e531fd991ed881e04e2f6b75aee5ee72c3ef5723180ef9693ebc79f5"),
    ("validate_half_width_1e5", "json"): (
        "b8e58ad1829fc12618a5865117c8fbad674075956c80e52e85d895b6212485cf",
        "71af948c3f5eef05d79db9316d3d518977fbc7945c7823c1168160c29b759aef"),
    ("validate_half_width_1e26", "csv"): (
        "2671ec092652b08d2d49631997f6542780e80ca62a9f576ed3a76b199965ac49",
        "5b43758a942320612c3ddfce3a316711e05845bd377e13b9f64f643942be3071"),
    ("validate_half_width_1e26", "json"): (
        "ff344379fc30d59e340d14107ace7e3c7db39988aa4e3504dcb35497712b1c03",
        "edaf01dfc8dc9663b6e9019c8057c130b89b7672e372210ef07d9ac0aa9f888a"),
    ("validate_xi_1e-6", "csv"): (
        "57da36d3574b605a352f3f8b4812fc85d41d1e1d98ee453c36fa9dfacb9a88f3",
        "e1b93479c280574dad727b38eb95e785cf38e5ed51e449735ce494d83c8eef82"),
    ("validate_xi_1e-6", "json"): (
        "be26a5ea1075ece67d05ef6aee129d6631dca77908bb9a3c2c37aad8c67331fa",
        "1ed134e071ac865fa39e63ad15c866bc51d0c77b0b9f3b6aa4adbaa3579ecfbc"),
    ("validate_half_width_0.01", "csv"): (
        "10c58d0957786a0f1e9fb15a0ba44628f9f922905c11a86da8bac51c7a4cb74a",
        "3238e7be25f56a2a1b8f4727d693c01b2b3eacf4ded338adf924d92f491b8440"),
    ("validate_half_width_0.01", "json"): (
        "f862bd02d700da6e98ce0de40d07ecd2ea6309ab85972dd5ca6efe9649482367",
        "cec7971150c2f168a42caba3185101489b9c3fb3dbabc22263985e15ce52cbc1"),
    ("validate_half_width_0.00998", "csv"): (
        "1a770426216194f49f4f05a98db408f4aa45734beed73266195a4d4e968bb251",
        "62e8fc92d4917c0ba6c25d11780841b865df6e4f1eb1d8c9c5db500b3f433671"),
    ("validate_half_width_0.00998", "json"): (
        "306147a9eb370e16c3c9c859b371a2c433b1d4be40fe32138b2f3829963cc7ff",
        "ac59f5bc2eb6795bb93ac0a19d0c9a0cd51ec0278181c6ec1e1c4fe82e32d7e3"),
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
    if CASES[name][2] is SMALL_GRID:
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
