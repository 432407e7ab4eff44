import hashlib
import pathlib
import random
import re
import subprocess
import sys

import pytest

from torusconj.cli import build_parser, main
from torusconj.freegroup import FreeGroup, Word
from torusconj.gog import BassWord, GroupSlot, SlotElement, SlotHom, bar
from torusconj.pipeline import parse_jsj

DATA = pathlib.Path(__file__).parent / "data" / "corpus"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWhiteheadCommand:
    def test_equivalent_generators(self, capsys):
        code, out, _ = run_cli(["whitehead", "orbit", "[ a ]", "[ b ]"], capsys)
        assert code == 0
        assert out.startswith("equivalent")
        assert "witness" in out

    def test_not_equivalent(self, capsys):
        code, out, _ = run_cli(["whitehead", "orbit", "[ a ]", "[ a a ]"], capsys)
        assert code == 0
        assert out.startswith("not-equivalent")

    def test_product_variant(self, capsys):
        code, out, _ = run_cli(
            ["whitehead", "orbit", "--product", "[ a * c ]", "[ a * c^2 ]"], capsys
        )
        assert code == 0
        assert out.startswith("not-equivalent")

    def test_product_rank_three_reads_c_only_as_the_center(self, capsys):
        # the third free generator of a rank-3 product is d, not c, so c and
        # c' cannot also be read as a free generator and its inverse
        argv = ["whitehead", "orbit", "--product", "--rank", "3"]
        code, out, _ = run_cli(argv + ["[ d' ]", "[ a' ]"], capsys)
        assert (code, out.splitlines()[0]) == (0, "equivalent")
        assert "witness: b -> d" in out
        code, out, _ = run_cli(argv + ["[ c ]", "[ a ]"], capsys)
        assert (code, out) == (0, "not-equivalent\n")
        code, out, err = run_cli(argv + ["[ c' ]", "[ a' ]"], capsys)
        assert (code, out) == (1, "")
        assert "input error: unknown generator symbol" in err

    @pytest.mark.parametrize("text", ["[ a ** c ]", "[ * c ]", "[ a * c * ]"])
    def test_product_empty_factor_is_input_error(self, capsys, text):
        # `--product` markings split `w * c^k` as slot elements do: an empty
        # factor is an input error; `[ a ** c ]` once read as `[ a * c ]`
        code, out, err = run_cli(["whitehead", "orbit", "--product", text, "[ a * c ]"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("input error: ") and repr(text[2:-2]) in err

    def test_product_bad_center_exponent(self, capsys):
        code, out, err = run_cli(
            ["whitehead", "orbit", "[ a * c^x ]", "[ b ]", "--product"], capsys
        )
        assert (code, out) == (1, "")
        assert "input error: bad center exponent 'x'" in err


class TestSolveCommand:
    def test_solvable(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("A:\n2 3\n0 0\nb: 1 0\n")
        code, out, _ = run_cli(["solve-diophantine", str(path)], capsys)
        assert code == 0
        x, y = (int(v) for v in out.split())
        assert 2 * x + 3 * y == 1

    def test_unsolvable(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("A:\n2\nb: 3\n")
        code, out, _ = run_cli(["solve-diophantine", str(path)], capsys)
        assert code == 0
        assert out.strip() == "no solution"

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("nonsense\n")
        code, _, err = run_cli(["solve-diophantine", str(path)], capsys)
        assert code == 1
        assert "input error" in err


class TestMinkowskiCommand:
    def test_rank_one(self, capsys):
        code, out, _ = run_cli(["minkowski", "certify", "--rank", "1"], capsys)
        assert code == 0
        assert "witness word" in out

    def test_zsquare(self, capsys):
        code, out, _ = run_cli(["minkowski", "certify", "--zsquare"], capsys)
        assert code == 0
        assert "3 Z^2" in out

    @pytest.mark.parametrize("extra", [["--product"], ["--rank", "2"], ["--rank", "3", "--product"]])
    def test_zsquare_with_rank_or_product_is_an_input_error(self, capsys, extra):
        code, out, err = run_cli(["minkowski", "certify", "--zsquare"] + extra, capsys)
        assert (code, out) == (1, "")
        assert "input error: --zsquare certifies Z^2 and takes neither --rank nor --product" in err

    def test_rank_one_product_names_the_zsquare_flag(self, capsys):
        code, out, err = run_cli(["minkowski", "certify", "--rank", "1", "--product"], capsys)
        assert (code, out) == (1, "")
        assert "input error: rank 1 products are Z^2; use --zsquare" in err

    def test_default_rank_is_two(self, capsys):
        code, plain, _ = run_cli(["minkowski", "certify"], capsys)
        assert code == 0
        assert run_cli(["minkowski", "certify", "--rank", "2"], capsys)[1] == plain

    @pytest.mark.parametrize(
        "rank, product", [(1, False), (2, False), (3, False), (2, True), (3, True)]
    )
    def test_small_bounds_still_certify(self, capsys, rank, product):
        # the certificate needs no search, so the bound flags change nothing
        argv = ["minkowski", "certify", "--rank", str(rank)] + (["--product"] if product else [])
        code, plain, _ = run_cli(argv, capsys)
        assert code == 0
        code, bounded, _ = run_cli(argv + ["--degree-bound", "2", "--length-bound", "2"], capsys)
        assert code == 0
        assert bounded == plain

    def test_rank_four_certificate_is_pinned(self, capsys):
        # digest pinned after verify() and the benchmark's independent
        # certificate check passed on the same text
        code, out, _ = run_cli(["minkowski", "certify", "--rank", "4"], capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "0d2e493d5545c102233fc995ef21e38ab014cd375b14bdaff0c718a0f9ab58b4"

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--rank", "1"], "9bc98eab5fc31022b516a718a729080b43990347a6a4c2183b536819680aeae5"),
            (["--rank", "4", "--product"], "c569b1753c24dd45752d0e015898e1d7126fa8dc6fe072227dc547297f24ba9d"),
            (["--zsquare"], "187e5005d1e6a3a95c4f2e9bcc4e58d6634582930d1a2ed500f2b3fdf42c4875"),
        ],
    )
    def test_remaining_outputs_are_pinned(self, capsys, flags, digest):
        # with test_rank_four_certificate_is_pinned and the four digests of
        # test_minkowski's test_pinned_serialization, every output of
        # `minkowski certify` is pinned
        code, out, _ = run_cli(["minkowski", "certify"] + flags, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rank_five_is_a_resource_limit(self, capsys):
        code, out, err = run_cli(["minkowski", "certify", "--rank", "5"], capsys)
        assert code == 2
        assert out == ""
        assert "resource limit: culler_reps supports rank <= RANK_BOUND = 4" in err

    @pytest.mark.parametrize("product", [False, True])
    def test_rank_zero_is_an_input_error(self, capsys, product):
        argv = ["minkowski", "certify", "--rank", "0"] + (["--product"] if product else [])
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert "input error: rank must be >= 1" in err


class TestDecideCommand:
    def test_corpus_instance(self, tmp_path, capsys):
        folder = DATA / "12_orientation_shift"
        witness_path = tmp_path / "witness.txt"
        code, out, _ = run_cli(
            [
                "decide",
                "--jsj-a",
                str(folder / "jsj_a.txt"),
                "--jsj-b",
                str(folder / "jsj_b.txt"),
                "--whitelists",
                str(folder / "whitelists.txt"),
                "--witness-out",
                str(witness_path),
            ],
            capsys,
        )
        assert code == 0
        assert "status: isomorphic-fop" in out
        assert witness_path.exists()
        code, out, _ = run_cli(
            [
                "verify-witness",
                "--jsj-a",
                str(folder / "jsj_a.txt"),
                "--jsj-b",
                str(folder / "jsj_b.txt"),
                "--witness",
                str(witness_path),
            ],
            capsys,
        )
        assert code == 0
        assert "witness verified" in out

    def test_edge_cap_gives_exit_two(self, capsys):
        folder = DATA / "12_orientation_shift"
        code, out, _ = run_cli(
            [
                "decide",
                "--jsj-a",
                str(folder / "jsj_a.txt"),
                "--jsj-b",
                str(folder / "jsj_b.txt"),
                "--max-edges",
                "1",
            ],
            capsys,
        )
        assert code == 2
        assert "undecided" in out

    def test_missing_orientation_vertex_is_input_error(self, tmp_path, capsys):
        folder = DATA / "12_orientation_shift"
        text = (folder / "jsj_a.txt").read_text()
        assert "vertex W: 1\n" in text
        jsj_a = tmp_path / "jsj_a.txt"
        jsj_a.write_text(text.replace("vertex W: 1\n", "", 1))
        code, _, err = run_cli(
            ["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(folder / "jsj_b.txt")], capsys
        )
        assert code == 1
        assert "input error" in err
        assert "missing orientation vector for vertex W" in err
        assert "Traceback" not in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(
            ["decide", "--jsj-a", "/nonexistent", "--jsj-b", "/nonexistent"], capsys
        )
        assert code == 1


class TestConjUngCommand:
    @pytest.mark.parametrize(
        "name",
        ["01_identity_f2", "04_twistor_inner_witness", "08_abelianization_negative"],
    )
    def test_corpus_instances(self, name, capsys):
        folder = DATA / name
        expected = (folder / "expected.txt").read_text().strip()
        code, out, _ = run_cli(
            [
                "conj-ung",
                "--alpha",
                str(folder / "alpha.txt"),
                "--beta",
                str(folder / "beta.txt"),
                "--whitelists",
                str(folder / "whitelists.txt"),
            ],
            capsys,
        )
        assert code == 0
        assert f"status: {expected}" in out

    @pytest.mark.parametrize(
        "monodromy",
        ["a -> a, b -> b", "a -> a, b -> b, c -> c, z -> a"],
        ids=["missing-generator", "unknown-generator"],
    )
    def test_malformed_monodromy_is_input_error(self, monodromy, tmp_path, capsys):
        folder = DATA / "02_identity_vs_inner"
        text = (folder / "alpha.txt").read_text()
        assert "monodromy: a -> a, b -> b, c -> c\n" in text
        alpha = tmp_path / "alpha.txt"
        alpha.write_text(text.replace("a -> a, b -> b, c -> c", monodromy, 1))
        code, _, err = run_cli(
            ["conj-ung", "--alpha", str(alpha), "--beta", str(folder / "beta.txt")], capsys
        )
        assert code == 1
        assert "input error" in err

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_monodromy_against_its_jsj_homology(self, side, tmp_path, capsys):
        # c -> c a a with the JSJ of c -> c a: the mapping torus has
        # H_1 == Z/2 + Z^3, the JSJ Z^3
        folder = DATA / "03_twistor_equal"
        text = (folder / "alpha.txt").read_text()
        assert "c -> c a\n" in text
        mutant = tmp_path / "mutant.txt"
        mutant.write_text(text.replace("c -> c a\n", "c -> c a a\n", 1))
        other = str(folder / "beta.txt")
        sides = [str(mutant), other] if side == "alpha" else [other, str(mutant)]
        code, out, err = run_cli(
            ["conj-ung", "--alpha", sides[0], "--beta", sides[1], "--whitelists", str(folder / "whitelists.txt")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"input error: {side}: H_1 of the mapping torus has invariant factors (2, 0, 0, 0), "
            "but H_1 of its JSJ has (0, 0, 0)\n"
        )


CORPUS_FOLDERS = sorted(f.name for f in DATA.iterdir() if (f / "kind.txt").exists())
POSITIVE_FOLDERS = [
    name
    for name in CORPUS_FOLDERS
    if (DATA / name / "expected.txt").read_text().strip() in ("conjugate", "isomorphic-fop")
]

# sha256 of the stdout of `decide`/`conj-ung` on each corpus instance: pins
# the whole verdict, witness and [twists] section included
CORPUS_STDOUT_SHA256 = {
    "01_identity_f2": "6236b0fc66facf6a977c4b5c1f35590ef50e9a8995c9ae77ab0125d4145a19e2",
    "02_identity_vs_inner": "d0ffd4a8d7ddcbe6bfd280aa1ba7a9eee30ecb10a6534ed4ed0ce3b46b75e2c9",
    "03_twistor_equal": "b3eab0379e0c2d9b87a0bd4678a04734a6758ae171b6f6577d335adf67e9a6b8",
    "04_twistor_inner_witness": "b3eab0379e0c2d9b87a0bd4678a04734a6758ae171b6f6577d335adf67e9a6b8",
    "05_twistor_swap": "015338f36b70e1916e2d697568c3b24049eb83e64137e48289526e89a654dfd7",
    "06_twistor_inverse": "6c4abbd717f330818e2c8397a00366bd655fdc2143185115d7c67c3850cc1dbe",
    "07_twistor_rotation": "7296016657be0ec6f8b74e3ec64edf24e7c614321b1cc9ac36fcaf5c72a5f668",
    "08_abelianization_negative": "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
    "09_twistor_mirror": "3fe691b1729bc1f6c21405225816ed23964195fd53bd04a2a06341ac938697cd",
    "10_commutator_negative": "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
    "11_identity_vs_twistor": "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
    "12_orientation_shift": "1488a673c06f60fc920451c251bd859475954630c8cafeafed5caeedb15fa5b7",
    "13_parity_obstruction": "53a0967593e798b8f2194cb59f909fcf5f6697074a00f9d6884df9d6745c4199",
    "14_center_inverted": "6cfb4e32da58707f4f58eb0aaca5ac86afd98adbc99e90a8f3eac64d7bff5b0c",
    "15_fiber_basis_shift": "7e39f1b080856a1f826f2a3b5bdf80aee9d014d1066eedbeb555866ae796404f",
}


@pytest.mark.parametrize("name", CORPUS_FOLDERS)
def test_corpus_stdout_pinned(name, capsys):
    folder = DATA / name
    if (folder / "kind.txt").read_text().strip() == "decide":
        argv = ["decide", "--jsj-a", str(folder / "jsj_a.txt"), "--jsj-b", str(folder / "jsj_b.txt")]
    else:
        argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt")]
    code, out, _ = run_cli(argv + ["--whitelists", str(folder / "whitelists.txt")], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_STDOUT_SHA256[name]


def _seeded_twistor_cases():
    """48 seeded twistor pairs (Z^2 with k <= 4, F_2 x Z with k <= 3, F_3 x Z
    with k == 1), as {case id: (command, poly rank, twists a, twists b)}.  A
    positive b takes a's blocks in another order and relabels P (x0 -> x0^-1
    for Z^2, a signed swap of x0 and x1 for F_2 x Z, a signed 3-cycle for
    F_3 x Z); a negative retwists one block."""
    rng = random.Random("seeded-twistor-pins")
    draws = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 4), (2, 1), (2, 2), (2, 2), (2, 3), (2, 3), (3, 1), (3, 1)]
    relabels = {
        1: {"x0": "x0'", "x0'": "x0"},
        2: {"x0": "x1'", "x0'": "x1", "x1": "x0", "x1'": "x0'"},
        3: {"x0": "x1", "x0'": "x1'", "x1": "x2'", "x1'": "x2", "x2": "x0", "x2'": "x0'"},
    }
    cases = {}
    for n, (rank, k) in enumerate(draws):
        letters = [f"x{i}{s}" for i in range(rank) for s in ("", "'")]
        twists = [" ".join(rng.choices(letters, k=rng.randint(1, 2))) for _ in range(k)]
        order = rng.sample(range(k), k)
        positive = [" ".join(relabels[rank][x] for x in twists[j].split()) for j in order]
        negative = list(twists)
        negative[rng.randrange(k)] = " ".join(rng.choices(letters, k=3))
        for command in ("decide", "conj-ung"):
            for sign, twists_b in (("pos", positive), ("neg", negative)):
                cases[f"{n:02d}-{command}-r{rank}-k{k}-{sign}"] = (command, rank, twists, twists_b)
    return cases


SEEDED_CASES = _seeded_twistor_cases()

# sha256 of (stdout, --witness-out file or "") of each seeded case: pins
# verdicts and witnesses beyond the corpus
SEEDED_SHA256 = {
    "00-conj-ung-r1-k1-neg": (
        "b1f002bda807df848135cc70b3f2270aac61ce289442442ef25c68be45e9d44d",
        "b1f002bda807df848135cc70b3f2270aac61ce289442442ef25c68be45e9d44d",
    ),
    "00-conj-ung-r1-k1-pos": (
        "b1f002bda807df848135cc70b3f2270aac61ce289442442ef25c68be45e9d44d",
        "b1f002bda807df848135cc70b3f2270aac61ce289442442ef25c68be45e9d44d",
    ),
    "00-decide-r1-k1-neg": (
        "c2e43669340c34094d22a99e614abadc1c81740094e721f3275a924b97a65a26",
        "c2e43669340c34094d22a99e614abadc1c81740094e721f3275a924b97a65a26",
    ),
    "00-decide-r1-k1-pos": (
        "c2e43669340c34094d22a99e614abadc1c81740094e721f3275a924b97a65a26",
        "c2e43669340c34094d22a99e614abadc1c81740094e721f3275a924b97a65a26",
    ),
    "01-conj-ung-r1-k2-neg": (
        "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
        "",
    ),
    "01-conj-ung-r1-k2-pos": (
        "17d36f03f977f33180c3a0866b4061c2ab019b911e3155488d84e5c6b296528b",
        "17d36f03f977f33180c3a0866b4061c2ab019b911e3155488d84e5c6b296528b",
    ),
    "01-decide-r1-k2-neg": (
        "0d18b0585f44afbb58dac41aa33b28aa9320b67cc715a2975b3a6e7457cfeb9d",
        "",
    ),
    "01-decide-r1-k2-pos": (
        "985d528baf670b53564fba166d4024e65a331ac96acb2429579f5951d737365c",
        "985d528baf670b53564fba166d4024e65a331ac96acb2429579f5951d737365c",
    ),
    "02-conj-ung-r1-k3-neg": (
        "31fa2faeba8c452ca60d9019a559f28ea652fc69f96d76c54b75533b4835c89d",
        "31fa2faeba8c452ca60d9019a559f28ea652fc69f96d76c54b75533b4835c89d",
    ),
    "02-conj-ung-r1-k3-pos": (
        "31fa2faeba8c452ca60d9019a559f28ea652fc69f96d76c54b75533b4835c89d",
        "31fa2faeba8c452ca60d9019a559f28ea652fc69f96d76c54b75533b4835c89d",
    ),
    "02-decide-r1-k3-neg": (
        "3f70135fcfacb2de352670759f5542db5dab9c546ac3f6418d03d7405f3a653a",
        "3f70135fcfacb2de352670759f5542db5dab9c546ac3f6418d03d7405f3a653a",
    ),
    "02-decide-r1-k3-pos": (
        "3f70135fcfacb2de352670759f5542db5dab9c546ac3f6418d03d7405f3a653a",
        "3f70135fcfacb2de352670759f5542db5dab9c546ac3f6418d03d7405f3a653a",
    ),
    "03-conj-ung-r1-k4-neg": (
        "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
        "",
    ),
    "03-conj-ung-r1-k4-pos": (
        "e07fca80743da13ced4a38d0293db8c0cba69d9c03928412840722de7a615b44",
        "e07fca80743da13ced4a38d0293db8c0cba69d9c03928412840722de7a615b44",
    ),
    "03-decide-r1-k4-neg": (
        "0d18b0585f44afbb58dac41aa33b28aa9320b67cc715a2975b3a6e7457cfeb9d",
        "",
    ),
    "03-decide-r1-k4-pos": (
        "4002a4506ad8277bc38ffc3db453784cc22274912c6828fa1236f90f88fabbe3",
        "4002a4506ad8277bc38ffc3db453784cc22274912c6828fa1236f90f88fabbe3",
    ),
    "04-conj-ung-r1-k4-neg": (
        "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
        "",
    ),
    "04-conj-ung-r1-k4-pos": (
        "df4859486f5afb498038ee6598929a35b0bb040967c0f887b36ba1860747df32",
        "df4859486f5afb498038ee6598929a35b0bb040967c0f887b36ba1860747df32",
    ),
    "04-decide-r1-k4-neg": (
        "0d18b0585f44afbb58dac41aa33b28aa9320b67cc715a2975b3a6e7457cfeb9d",
        "",
    ),
    "04-decide-r1-k4-pos": (
        "3d5901449d26d2d0b5c8f010ce7066545e87780cd848bbd0d5e817aace4b79e3",
        "3d5901449d26d2d0b5c8f010ce7066545e87780cd848bbd0d5e817aace4b79e3",
    ),
    "05-conj-ung-r2-k1-neg": (
        "71543f47b38fac10b84cdfd6c6f06b2fc10db8e64c1bcd558465c5574138dbd1",
        "71543f47b38fac10b84cdfd6c6f06b2fc10db8e64c1bcd558465c5574138dbd1",
    ),
    "05-conj-ung-r2-k1-pos": (
        "3851811b2d640ff1d502aee8f7e65e3e5c9e9b093ba70938f6d8a8c02a3c1053",
        "3851811b2d640ff1d502aee8f7e65e3e5c9e9b093ba70938f6d8a8c02a3c1053",
    ),
    "05-decide-r2-k1-neg": (
        "ee3c4c3f3944b980a386c370b44d5f1f70850fa3f78abcb92c8b182963440c26",
        "ee3c4c3f3944b980a386c370b44d5f1f70850fa3f78abcb92c8b182963440c26",
    ),
    "05-decide-r2-k1-pos": (
        "b1917c1cd19fc348dda51fca3c88ddba03f81479687cf8e7f0a746f126eda7f0",
        "b1917c1cd19fc348dda51fca3c88ddba03f81479687cf8e7f0a746f126eda7f0",
    ),
    "06-conj-ung-r2-k2-neg": (
        "bd62dd6a24af7e5c03246d4fdbaa9cf3a83839b953733be5014ec46a16ccc84d",
        "bd62dd6a24af7e5c03246d4fdbaa9cf3a83839b953733be5014ec46a16ccc84d",
    ),
    "06-conj-ung-r2-k2-pos": (
        "f61295f187df34b1212bdab1bebabde4490e13832cd07f04514a9195b95686d3",
        "f61295f187df34b1212bdab1bebabde4490e13832cd07f04514a9195b95686d3",
    ),
    "06-decide-r2-k2-neg": (
        "710751dda536eb31497e7af0e9893a7f8eb0369258c7b70943ab6ed04816df3e",
        "710751dda536eb31497e7af0e9893a7f8eb0369258c7b70943ab6ed04816df3e",
    ),
    "06-decide-r2-k2-pos": (
        "359ccdf2471cf52a6dedac2e2df5aab704364d5022b9e12483a6c9559c8e2f4a",
        "359ccdf2471cf52a6dedac2e2df5aab704364d5022b9e12483a6c9559c8e2f4a",
    ),
    "07-conj-ung-r2-k2-neg": (
        "eaf9cb6066c849a74279de5ea7c37c36f67eaa2224efccc11a2a1b5cd3f03ac8",
        "eaf9cb6066c849a74279de5ea7c37c36f67eaa2224efccc11a2a1b5cd3f03ac8",
    ),
    "07-conj-ung-r2-k2-pos": (
        "5525393861dcf8c43f1147f447f06ffc402ba605215edf63490184756a17a2db",
        "5525393861dcf8c43f1147f447f06ffc402ba605215edf63490184756a17a2db",
    ),
    "07-decide-r2-k2-neg": (
        "cbde73ba32e670f09d486112f89d2e9c6cfd268f80e773e14916ac56a4f34c50",
        "cbde73ba32e670f09d486112f89d2e9c6cfd268f80e773e14916ac56a4f34c50",
    ),
    "07-decide-r2-k2-pos": (
        "f7e8535c3f76eee94cfbe8752da19000cea2d7b1715c05f54e0451ef64a83a38",
        "f7e8535c3f76eee94cfbe8752da19000cea2d7b1715c05f54e0451ef64a83a38",
    ),
    "08-conj-ung-r2-k3-neg": (
        "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
        "",
    ),
    "08-conj-ung-r2-k3-pos": (
        "657ff9cb0777cb5134f66b7416f89113c4dc019a855af33e0e23dd0c8bff3a9c",
        "657ff9cb0777cb5134f66b7416f89113c4dc019a855af33e0e23dd0c8bff3a9c",
    ),
    "08-decide-r2-k3-neg": (
        "0d18b0585f44afbb58dac41aa33b28aa9320b67cc715a2975b3a6e7457cfeb9d",
        "",
    ),
    "08-decide-r2-k3-pos": (
        "cfb1a6027d8fd7a8cc607cdd9aa793b090e67e92abd188be327f7f2cab17cef4",
        "cfb1a6027d8fd7a8cc607cdd9aa793b090e67e92abd188be327f7f2cab17cef4",
    ),
    "09-conj-ung-r2-k3-neg": (
        "5f4d90da2821f1b5c23eb4fd4ad1e8a68a9f45d516dc8dab81a9fb1e34781e1f",
        "5f4d90da2821f1b5c23eb4fd4ad1e8a68a9f45d516dc8dab81a9fb1e34781e1f",
    ),
    "09-conj-ung-r2-k3-pos": (
        "6d12774790a95257f07ec58919eaffdb0bde067798bc3531128ed3fb415495c0",
        "6d12774790a95257f07ec58919eaffdb0bde067798bc3531128ed3fb415495c0",
    ),
    "09-decide-r2-k3-neg": (
        "92171daab8cf0d52cfdbc38655d65b8a7327bce392127122bd5f41d1120ed47d",
        "92171daab8cf0d52cfdbc38655d65b8a7327bce392127122bd5f41d1120ed47d",
    ),
    "09-decide-r2-k3-pos": (
        "4a0f3630abcc4c04949acee22898a897ce200f8149d20b2e7528f38c4c733119",
        "4a0f3630abcc4c04949acee22898a897ce200f8149d20b2e7528f38c4c733119",
    ),
    "10-conj-ung-r3-k1-neg": (
        "f29290912d737d638e5f0f70d4f57926519849d851d7999b1cbdbbb58e6d3750",
        "f29290912d737d638e5f0f70d4f57926519849d851d7999b1cbdbbb58e6d3750",
    ),
    "10-conj-ung-r3-k1-pos": (
        "12832b83830677eec20be2c91cddd2d5a5349850660676a20ea0e9f406c39e85",
        "12832b83830677eec20be2c91cddd2d5a5349850660676a20ea0e9f406c39e85",
    ),
    "10-decide-r3-k1-neg": (
        "f08a9d7dff797b007c80d45c92e544c88c4b28797ce59cb135649c6e0d96116b",
        "f08a9d7dff797b007c80d45c92e544c88c4b28797ce59cb135649c6e0d96116b",
    ),
    "10-decide-r3-k1-pos": (
        "ac0fb27a902e68814ff6957a19009d7396cae0df0c913c395887d286d9039800",
        "ac0fb27a902e68814ff6957a19009d7396cae0df0c913c395887d286d9039800",
    ),
    "11-conj-ung-r3-k1-neg": (
        "575062c12c92c69e664b259059f86a0f4cfb0f29d1cee771b059874f401eb50a",
        "",
    ),
    "11-conj-ung-r3-k1-pos": (
        "6ad39bb9140bd29310f3c20b2eb2dbf074202833ad98db947c47a34e10c9cff4",
        "6ad39bb9140bd29310f3c20b2eb2dbf074202833ad98db947c47a34e10c9cff4",
    ),
    "11-decide-r3-k1-neg": (
        "0d18b0585f44afbb58dac41aa33b28aa9320b67cc715a2975b3a6e7457cfeb9d",
        "",
    ),
    "11-decide-r3-k1-pos": (
        "721f12aa9e272a624839ffc708530f2e1d55ae0013bfd86dc0f2f1ed78604e70",
        "721f12aa9e272a624839ffc708530f2e1d55ae0013bfd86dc0f2f1ed78604e70",
    ),
}


@pytest.mark.parametrize("case", sorted(SEEDED_CASES))
def test_seeded_twistor_output_pinned(case, tmp_path, capsys):
    from torusconj.pipeline import serialize_jsj

    from .corpus import identity_whitelist, twistor_jsj, twistor_side_text
    from .helpers import serialize_whitelist

    command, rank, twists_a, twists_b = SEEDED_CASES[case]
    jsj_a, jsj_b = twistor_jsj(rank, twists_a), twistor_jsj(rank, twists_b)
    (tmp_path / "wl.txt").write_text(serialize_whitelist(identity_whitelist(jsj_a, jsj_b), jsj_a))
    if command == "decide":
        (tmp_path / "a.txt").write_text(serialize_jsj(jsj_a))
        (tmp_path / "b.txt").write_text(serialize_jsj(jsj_b))
        argv = ["decide", "--jsj-a", str(tmp_path / "a.txt"), "--jsj-b", str(tmp_path / "b.txt")]
    else:
        (tmp_path / "a.txt").write_text(twistor_side_text(rank, twists_a))
        (tmp_path / "b.txt").write_text(twistor_side_text(rank, twists_b))
        argv = ["conj-ung", "--alpha", str(tmp_path / "a.txt"), "--beta", str(tmp_path / "b.txt")]
    witness = tmp_path / "witness.txt"
    code, out, _ = run_cli(argv + ["--whitelists", str(tmp_path / "wl.txt"), "--witness-out", str(witness)], capsys)
    assert code == 0
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() if text else ""
        for text in (out, witness.read_text() if witness.exists() else "")
    )
    assert digests == SEEDED_SHA256[case]


def _seeded_orbit_cases():
    """40 seeded `whitehead orbit` pairs (rank 2 and 3, classes of one or
    two words, plain and --product), as {case id: argv}.  Each draw gives a
    positive, b = phi(a) for phi a random Nielsen product, and a mutant,
    b = phi(a') for a' that changes one letter of a, or for --product
    sometimes one center exponent instead; 11 of the 20 mutants are
    negatives."""
    from torusconj.freegroup import FreeAut, nielsen_generators
    from torusconj.whitehead import ProductGroup

    rng = random.Random("seeded-orbit-pins")
    # (rank, words per class, --product)
    draws = [(2, 1, False)] * 5 + [(2, 2, False)] * 4 + [(3, 1, False)] * 4 + [(3, 2, False)] * 2
    draws += [(2, 1, True)] * 2 + [(2, 2, True)] + [(3, 1, True)] * 2
    cases = {}
    for n, (rank, per_class, product) in enumerate(draws):
        group = ProductGroup.of_rank(rank).free if product else FreeGroup(rank)
        letters = [(i, s) for i in range(rank) for s in (1, -1)]
        max_len = 6 if rank == 2 else 3

        def word():
            w = [rng.choice(letters)]
            for _ in range(rng.randint(0, max_len - 1)):
                w.append(rng.choice([x for x in letters if x != (w[-1][0], -w[-1][1])]))
            return w

        a = [[word() for _ in range(per_class)] for _ in range(rng.randint(1, 2))]
        centers = [[rng.randint(-2, 2) if product else 0 for _ in entry] for entry in a]
        mutant = [[list(w) for w in entry] for entry in a]
        mutant_centers = centers
        if product and rng.random() < 0.5:
            mutant_centers = [list(ks) for ks in centers]
            mutant_centers[0][0] += 1
        else:
            w = rng.choice(rng.choice(mutant))
            k = rng.randrange(len(w))
            w[k] = rng.choice([x for x in letters if x != w[k]])

        def moved(classes):
            nielsen = nielsen_generators(group)
            phi = FreeAut.identity(group)
            for _ in range(rng.randint(1, 4)):
                phi = rng.choice(nielsen) * phi
            return [[phi.apply(group.word(w)).letters for w in entry] for entry in classes]

        def text(classes, ks):
            def item(w, k):
                return group.word(w).format() + (f" * c^{k}" if k else "")

            return " ; ".join(
                "[ " + " , ".join(map(item, entry, entry_ks)) + " ]" for entry, entry_ks in zip(classes, ks)
            )

        kind = f"{n:02d}-r{rank}-w{per_class}" + ("-product" if product else "")
        flags = ["--rank", str(rank)] + (["--product"] if product else [])
        for sign, b, b_centers in (("pos", moved(a), centers), ("mut", moved(mutant), mutant_centers)):
            cases[f"{kind}-{sign}"] = ["whitehead", "orbit", text(a, centers), text(b, b_centers)] + flags
    return cases


SEEDED_ORBIT_CASES = _seeded_orbit_cases()

# sha256 of the stdout of each seeded orbit case: pins verdicts and witnesses
SEEDED_ORBIT_SHA256 = {
    '00-r2-w1-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '00-r2-w1-pos': 'dd1796e55b285d9b30a802c88cb1bc91f89391e594985d27f66ee0a8a3b06935',
    '01-r2-w1-mut': '58e88c8de055b603d6f2db66955a7b776c0c96d86837143192fa04837a6bb5c4',
    '01-r2-w1-pos': '58e88c8de055b603d6f2db66955a7b776c0c96d86837143192fa04837a6bb5c4',
    '02-r2-w1-mut': 'abe92c74425e69af1d8d05ad29e72db42ccc75f59e19b2fb60f577ac46f36f27',
    '02-r2-w1-pos': 'abe92c74425e69af1d8d05ad29e72db42ccc75f59e19b2fb60f577ac46f36f27',
    '03-r2-w1-mut': '69dc976b0fb55220232b6ed343e2a68a63dd201e5866c1c783d38707c68f70e1',
    '03-r2-w1-pos': '605bf6e5c945f992d89652a37d78ca05293a9034e01a997d7d5ff4f77e0d30eb',
    '04-r2-w1-mut': 'fba93b90d92fb6e7e64a8ccf5653854600877a826ad10f25e850d94b4b92c9e4',
    '04-r2-w1-pos': '31d9c44c6391468845a8b5bb38a084b0f09e25cf7282fc4392f3dbd086c989e0',
    '05-r2-w2-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '05-r2-w2-pos': 'a5ea843ced5c6178741200f4281ae37688328f99ad4ac8f4852842821030fd8e',
    '06-r2-w2-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '06-r2-w2-pos': '24ee30e060d3ed7c20c4559cf510dfe3ff34b07afe117f981ea87ccc22fdd33b',
    '07-r2-w2-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '07-r2-w2-pos': 'fba93b90d92fb6e7e64a8ccf5653854600877a826ad10f25e850d94b4b92c9e4',
    '08-r2-w2-mut': '58e88c8de055b603d6f2db66955a7b776c0c96d86837143192fa04837a6bb5c4',
    '08-r2-w2-pos': 'fba93b90d92fb6e7e64a8ccf5653854600877a826ad10f25e850d94b4b92c9e4',
    '09-r3-w1-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '09-r3-w1-pos': 'c7c08711d5ea1bdc4791501965cd7b89688cb9f8702ba0813f1ae19e8b4c4604',
    '10-r3-w1-mut': '7242d0f60aead32eff44e4c0c4edcdc0906cd8b67755aaac46557db7d6fe4d95',
    '10-r3-w1-pos': '6e442b56d29bc074014bbbacb34c1e5fd6e9c826d3cd17735dff4b0b5df80a68',
    '11-r3-w1-mut': '6df26afe3d98e7a56d8a9e3a6fc9610284cd44fcc5b2e61275c63f312501131d',
    '11-r3-w1-pos': '2fd4c7655e4bc1b59864e39bb66ce3e0a23dafc03caf9a131579a956ab9e3bfd',
    '12-r3-w1-mut': '7ea276255cc67afb3d119e4c3b3c2ed173026ce0accf5ad5665f5b09da2d1ecc',
    '12-r3-w1-pos': '141d9574dc8fba509ba2a501805c79290337633953e07c001be9566f516125dd',
    '13-r3-w2-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '13-r3-w2-pos': 'c7c08711d5ea1bdc4791501965cd7b89688cb9f8702ba0813f1ae19e8b4c4604',
    '14-r3-w2-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '14-r3-w2-pos': '8152427bfe5f4a6fca9b837394708bdee96277bbd7bb8daf3f30756bc16f50ec',
    '15-r2-w1-product-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '15-r2-w1-product-pos': '28c83919ac7ed916ad430c0de24e608c3de66f2c79fed73384bdbc4f85615b90',
    '16-r2-w1-product-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '16-r2-w1-product-pos': '16a27be7af9abfbf14eb8d1a4a7998b8f2eb34ef8c9610f58f1fb677e3cfeb1b',
    '17-r2-w2-product-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '17-r2-w2-product-pos': '16a27be7af9abfbf14eb8d1a4a7998b8f2eb34ef8c9610f58f1fb677e3cfeb1b',
    '18-r3-w1-product-mut': 'fedc542e4b6bc59e24a794cb4b32a27ea3fc6327b60182465117274dd133a11e',
    '18-r3-w1-product-pos': '4e0dc34e0ae656801b5dc2aa893c371920e457093683002f06a2dcd1d1b99c7f',
    '19-r3-w1-product-mut': '3e7a144bedd54e6828bec93f424370527d8285e1e8122c2c04548bdf2a306f8d',
    '19-r3-w1-product-pos': '7bd67d6db49a96b56a27ed7c2f88e3c8a952af154d36a6b4ac7fbd798bd1044d',
}


@pytest.mark.parametrize("case", sorted(SEEDED_ORBIT_CASES))
def test_seeded_orbit_output_pinned(case, capsys):
    code, out, _ = run_cli(SEEDED_ORBIT_CASES[case], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEEDED_ORBIT_SHA256[case]


def test_make_corpus_reproduces_committed(tmp_path, capsys):
    from . import make_corpus

    make_corpus.main([str(tmp_path)])
    committed = sorted(p.relative_to(DATA) for p in DATA.rglob("*") if p.is_file())
    assert committed == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    for rel in committed:
        assert (tmp_path / rel).read_bytes() == (DATA / rel).read_bytes(), rel


@pytest.mark.parametrize("b_values, w_value", [("0 0 0", "0"), ("0 1 2", "2")])
def test_black_center_degree_is_input_error(b_values, w_value, tmp_path, capsys):
    # o(W) == o(c) keeps the orientation well defined on both edges
    folder = DATA / "14_center_inverted"
    text = (folder / "jsj_a.txt").read_text()
    assert "vertex B: 0 0 1\nvertex W: 1\n" in text
    jsj_a = tmp_path / "jsj_a.txt"
    jsj_a.write_text(text.replace("vertex B: 0 0 1\nvertex W: 1\n", f"vertex B: {b_values}\nvertex W: {w_value}\n"))
    code, _, err = run_cli(["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(folder / "jsj_b.txt")], capsys)
    assert code == 1
    assert "input error: black vertex B" in err


def test_unknown_black_vertex_in_colors(tmp_path, capsys):
    # a [colors] line naming a vertex the graph lacks gives a verdict or an
    # input error, not a traceback
    folder = DATA / "12_orientation_shift"
    jsj_a = tmp_path / "jsj_a.txt"
    jsj_a.write_text((folder / "jsj_a.txt").read_text().replace("B: black\n", "B: black\nZ: black\n"))
    code, _, err = run_cli(["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(folder / "jsj_b.txt")], capsys)
    assert code in (0, 1)
    assert (code == 1) == ("input error" in err)


@pytest.mark.parametrize(
    "section, line",
    [
        ("[injections]", "e9: x0 -> x0"),
        ("[injections]", "e1: x7 -> x0"),
        ("[colors]", "Q: black"),
        ("[orientation]", "vertex Q: 5"),
        ("[orientation]", "edge e9: 0"),
    ],
    ids=["injection-edge", "injection-generator", "colors-vertex", "orientation-vertex", "orientation-edge"],
)
def test_jsj_line_naming_unknown_name_is_input_error(section, line, tmp_path, capsys):
    # a JSJ line naming an edge, generator or vertex the graph lacks is an
    # input error that quotes the line; each was once read and dropped, and
    # the instance answered isomorphic-fop
    folder = DATA / "12_orientation_shift"
    text = (folder / "jsj_a.txt").read_text()
    assert f"\n{section}\n" in text
    jsj_a = tmp_path / "jsj_a.txt"
    jsj_a.write_text(text.replace(f"\n{section}\n", f"\n{section}\n{line}\n", 1))
    argv = ["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(folder / "jsj_b.txt")]
    code, out, err = run_cli(argv + ["--whitelists", str(folder / "whitelists.txt")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("input error: ") and repr(line) in err


@pytest.mark.parametrize(
    "file, line, mutant, element",
    [
        ("alpha", "e2: x0 -> x0' * c", "e2: x0 -> x0' ** c", "x0' ** c"),
        ("alpha", "e1: x0 -> c", "e1: x0 -> * c", "* c"),
        ("alpha", "e2: x0 -> x0' * c", "e2: x0 -> x0' * c *", "x0' * c *"),
        ("alpha", "h0 = B : (x0)", "h0 = B : (x0 *)", "x0 *"),
        ("alpha", "hs = B : (1) e1~ (1) e2 (1)", "hs = B : (1 * * 1) e1~ (1) e2 (1)", "1 * * 1"),
        ("alpha", "B : (c)", "B : (* c)", "* c"),
        ("whitelists", "iso: x0 -> x0", "iso: x0 -> x0 *", "x0 *"),
    ],
    ids=["injection-double-star", "injection-leading-star", "injection-trailing-star", "fiber-trailing-star",
         "fiber-double-star", "stable-leading-star", "whitelist-trailing-star"],
)
def test_empty_slot_factor_is_input_error(file, line, mutant, element, tmp_path, capsys):
    # an empty `*` factor of a slot element is an input error that quotes
    # the element; it was once read as nothing, so `x0 ** c` meant `x0 * c`
    # and `* c` meant `c`, and each mutant answered conjugate
    folder = DATA / "05_twistor_swap"
    paths = {f: folder / f"{f}.txt" for f in ("alpha", "beta", "whitelists")}
    text = paths[file].read_text()
    assert f"{line}\n" in text
    paths[file] = tmp_path / f"{file}.txt"
    paths[file].write_text(text.replace(f"{line}\n", f"{mutant}\n", 1))
    argv = ["conj-ung", "--alpha", str(paths["alpha"]), "--beta", str(paths["beta"])]
    code, out, err = run_cli(argv + ["--whitelists", str(paths["whitelists"])], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("input error: ") and repr(element) in err


@pytest.mark.parametrize("name", [n for n in CORPUS_FOLDERS if (DATA / n / "kind.txt").read_text().strip() == "decide"])
def test_decide_reads_stored_images(name, monkeypatch, capsys):
    # work-count guard: `decide` reads the image of a slot generator from
    # the homomorphism (`SlotHom` docstring) instead of applying it to an
    # element the slot handed out as a generator, and all slots of one free
    # rank share one free group
    handed, bare, built = {}, [], []
    generator, generators = GroupSlot.generator, GroupSlot.generators
    apply, init = SlotHom.apply, FreeGroup.__init__

    def hand_out(elements):
        handed.update((id(x), x) for x in elements)
        return elements

    def counting_apply(hom, x):
        if handed.get(id(x)) is x and x.slot == hom.src:
            bare.append((hom, x))
        return apply(hom, x)

    def counting_init(group, names):
        built.append(names)
        init(group, names)

    monkeypatch.setattr(GroupSlot, "generator", lambda slot, i: hand_out([generator(slot, i)])[0])
    monkeypatch.setattr(GroupSlot, "generators", lambda slot: hand_out(generators(slot)))
    monkeypatch.setattr(SlotHom, "apply", counting_apply)
    monkeypatch.setattr(FreeGroup, "__init__", counting_init)
    folder = DATA / name
    argv = ["decide", "--jsj-a", str(folder / "jsj_a.txt"), "--jsj-b", str(folder / "jsj_b.txt")]
    code, out, _ = run_cli(argv + ["--whitelists", str(folder / "whitelists.txt")], capsys)
    assert code == 0 and out.startswith("status: ")
    assert bare == []
    ranks = set()
    for side in "ab":
        gog = parse_jsj((folder / f"jsj_{side}.txt").read_text()).gog
        ranks.update(slot.free_rank for slot in (*gog.vertex_slots.values(), *gog.edge_slots.values()))
    assert len(built) <= len(ranks)


@pytest.mark.parametrize("name", ["12_orientation_shift", "13_parity_obstruction", "14_center_inverted", "15_fiber_basis_shift"])
def test_decide_fixed_work(name, monkeypatch, capsys):
    # work-count guard: a slot hands out one shared identity element, and
    # conjugating an element of a slot of free rank 1 (Z, Z^2), which is
    # abelian, does no word work: not in the twist checks of
    # `small_modular_generators`, nor in `validate`, nor in edge transports
    identities, rank_one, inside = {}, [], []
    identity, conjugate, word_conjugate = GroupSlot.identity, SlotElement.conjugate, Word.conjugate

    def counting_identity(slot):
        x = identity(slot)
        identities.setdefault(slot, []).append(x)
        return x

    def counting_conjugate(x, g):
        inside.append(x.slot.free_rank == 1)
        try:
            return conjugate(x, g)
        finally:
            inside.pop()

    def counting_word_conjugate(w, g):
        if inside and inside[-1]:
            rank_one.append((w, g))
        return word_conjugate(w, g)

    monkeypatch.setattr(GroupSlot, "identity", counting_identity)
    monkeypatch.setattr(SlotElement, "conjugate", counting_conjugate)
    monkeypatch.setattr(Word, "conjugate", counting_word_conjugate)
    folder = DATA / name
    argv = ["decide", "--jsj-a", str(folder / "jsj_a.txt"), "--jsj-b", str(folder / "jsj_b.txt")]
    code, out, _ = run_cli(argv + ["--whitelists", str(folder / "whitelists.txt")], capsys)
    assert code == 0 and out.startswith(f"status: {(folder / 'expected.txt').read_text().strip()}\n")
    assert identities
    assert all(x is handed[0] for handed in identities.values() for x in handed)
    assert rank_one == []


@pytest.mark.parametrize("name", [n for n in CORPUS_FOLDERS if (DATA / n / "kind.txt").read_text().strip() == "conj-ung"])
def test_monodromy_check_fold_work(name, monkeypatch):
    # work-count guard: the labeled fold that checks a monodromy and
    # inverts it reduces no letter sequence of its own; the only
    # reductions left are the inverse check's, one per generator
    from torusconj import torus
    from torusconj.freegroup import autos, stallings, words

    calls, inside = [], []
    reduce_letters, is_automorphism = words.reduce_letters, torus.is_automorphism

    def counting_reduce(letters):
        if inside:
            calls.append(letters)
        return reduce_letters(letters)

    def checking(group, images):
        inside.append(True)
        try:
            return is_automorphism(group, images)
        finally:
            inside.pop()

    for module in (words, autos, stallings):
        monkeypatch.setattr(module, "reduce_letters", counting_reduce, raising=False)
    monkeypatch.setattr(torus, "is_automorphism", checking)
    header = dict(
        line.split(":", 1) for line in (DATA / name / "alpha.txt").read_text().partition("[jsj]")[0].splitlines() if ":" in line
    )
    aut = torus.parse_monodromy(header["fiber rank"], header["monodromy"])
    assert len(calls) == aut.group.rank


@pytest.mark.parametrize(
    "header, problem",
    [("[candidates NOPE -> W]", "names unknown vertex 'NOPE'"), ("[candidates W]", "misses a vertex")],
    ids=["unknown-vertex", "missing-vertex"],
)
@pytest.mark.parametrize("name", ["12_orientation_shift", "03_twistor_equal"])
def test_whitelist_header_vertex_is_input_error(name, header, problem, tmp_path, capsys):
    folder = DATA / name
    text = (folder / "whitelists.txt").read_text()
    assert "[candidates W -> W]\n" in text
    whitelists = tmp_path / "whitelists.txt"
    whitelists.write_text(text.replace("[candidates W -> W]", header, 1))
    if (folder / "kind.txt").read_text().strip() == "decide":
        argv = ["decide", "--jsj-a", str(folder / "jsj_a.txt"), "--jsj-b", str(folder / "jsj_b.txt")]
    else:
        argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt")]
    code, out, err = run_cli(argv + ["--whitelists", str(whitelists)], capsys)
    assert (code, out) == (1, "")
    assert f"input error: whitelist header {header!r} {problem}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", CORPUS_FOLDERS)
def test_default_whitelists(name, tmp_path, capsys):
    # without --whitelists each white pair of one kind gets the identity
    # candidate, and a pair of Z slots also x0 -> x0^-1; this gives every
    # corpus instance its expected status, and each positive a witness that
    # verify-witness accepts
    folder = DATA / name
    witness = tmp_path / "witness.txt"
    if (folder / "kind.txt").read_text().strip() == "decide":
        jsj_a, jsj_b = folder / "jsj_a.txt", folder / "jsj_b.txt"
        argv = ["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(jsj_b)]
    else:
        jsj_a, jsj_b = tmp_path / "jsj_a.txt", tmp_path / "jsj_b.txt"
        for path, side in ((jsj_a, "alpha"), (jsj_b, "beta")):
            path.write_text((folder / f"{side}.txt").read_text().partition("[jsj]\n")[2])
        argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt")]
    code, out, _ = run_cli(argv + ["--witness-out", str(witness)], capsys)
    expected = (folder / "expected.txt").read_text().strip()
    assert code == 0
    assert f"status: {expected}\n" in out
    if name in POSITIVE_FOLDERS:
        verify = ["verify-witness", "--jsj-a", str(jsj_a), "--jsj-b", str(jsj_b), "--witness", str(witness)]
        assert run_cli(verify, capsys)[:2] == (0, "witness verified\n")
    else:
        assert not witness.exists()


def _white_flipped(text: str) -> str:
    """The JSJ `text` with its Z white vertex W re-expressed by x0 -> x0^-1:
    fop-isomorphic to it, with the opposite orientation at W."""
    from torusconj.gog import SlotIso
    from torusconj.pipeline import parse_jsj, serialize_jsj

    from .corpus import recoordinatize

    jsj = parse_jsj(text)
    slot = jsj.gog.vslot("W")
    assert slot.kind == "Z"
    return serialize_jsj(recoordinatize(jsj, "W", SlotIso(slot, slot, (slot.generator(0).inverse(),))))


@pytest.mark.parametrize("name", [n for n in CORPUS_FOLDERS if (DATA / n / "jsj_b.txt").exists()])
def test_default_whitelists_flipped_white(name, tmp_path, capsys):
    # the default candidates of a Z white pair are both x0 -> x0^+-1, so
    # flipping side b's W keeps the expected status; with the identity
    # alone every flip answered no-vertexwise-iso
    folder = DATA / name
    jsj_b, witness = tmp_path / "jsj_b.txt", tmp_path / "witness.txt"
    jsj_b.write_text(_white_flipped((folder / "jsj_b.txt").read_text()))
    sides = ["--jsj-a", str(folder / "jsj_a.txt"), "--jsj-b", str(jsj_b)]
    code, out, _ = run_cli(["decide", *sides, "--witness-out", str(witness)], capsys)
    assert code == 0
    assert out.startswith(f"status: {(folder / 'expected.txt').read_text().strip()}\n")
    if name in POSITIVE_FOLDERS:
        assert run_cli(["verify-witness", *sides, "--witness", str(witness)], capsys)[:2] == (0, "witness verified\n")


def test_conj_ung_default_whitelists_flipped_white(tmp_path, capsys):
    # a conjugate pair whose side b has W flipped is still conjugate
    folder = DATA / "03_twistor_equal"
    jsj_b = tmp_path / "jsj_b.txt"
    jsj_b.write_text(_white_flipped((folder / "beta.txt").read_text().partition("[jsj]\n")[2]))
    argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt"), "--jsj-b", str(jsj_b)]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out.splitlines()[0]) == (0, "status: conjugate")


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 1: a supplied list for a Z white pair is trusted as complete"
)
def test_conj_ung_supplied_whitelists_flipped_white(tmp_path, capsys):
    # the same conjugate pair with the instance's own whitelists.txt, which
    # lists only x0 -> x0 for W: it answers not-conjugate
    folder = DATA / "03_twistor_equal"
    jsj_b = tmp_path / "jsj_b.txt"
    jsj_b.write_text(_white_flipped((folder / "beta.txt").read_text().partition("[jsj]\n")[2]))
    argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt"), "--jsj-b", str(jsj_b)]
    code, out, _ = run_cli(argv + ["--whitelists", str(folder / "whitelists.txt")], capsys)
    assert (code, out.splitlines()[0]) == (0, "status: conjugate")


def _slid(loop, rng, wrong_at=None):
    """`loop` with a random nontrivial edge-group element h slid across each
    crossing e: g e g' becomes g i_e~(h) e i_e(h)^-1 g', the same element of
    pi_1, since e i_e(h) e~ == i_e~(h).  At the crossing with index
    `wrong_at` the exponent is +1 instead, which multiplies the element by
    i_e(h)^2 there and so changes it."""
    gog = loop.gog
    parts = list(loop.parts)
    for k in range(1, len(parts), 2):
        e = parts[k]
        gens = gog.eslot(e).generators()
        h = gens[0].slot.identity()
        while h.is_identity():
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(gens)
                h = h * (g if rng.random() < 0.5 else g.inverse())
        moved = gog.injection(e).apply(h)
        parts[k - 1] = parts[k - 1] * gog.injection(bar(e)).apply(h)
        parts[k + 1] = (moved if k == wrong_at else moved.inverse()) * parts[k + 1]
    return BassWord(gog, loop.start, parts)


def _witness_loops_rewritten(text, gog, rewrite):
    """The witness `text` with each loop of its [fiber images] and
    [stable image] sections replaced by `rewrite(loop)`."""
    out, section = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            section = line.strip().strip("[]")
        elif section == "fiber images":
            name, _, loop_text = line.partition("=")
            line = f"{name}= {rewrite(BassWord.parse(gog, loop_text.strip())).format()}\n"
        elif section == "stable image":
            line = rewrite(BassWord.parse(gog, line.strip())).format() + "\n"
        out.append(line)
    return "".join(out)


@pytest.mark.parametrize("name", POSITIVE_FOLDERS)
def test_slid_witness_loops_verify(name, tmp_path, capsys):
    # metamorphic: the recorded fiber and stable images of a witness may be
    # written in any form of the same loop, since Bass words compare as
    # elements of pi_1 (Britton's lemma); sliding an edge-group element
    # across a crossing keeps the element, and sliding it with the wrong
    # exponent at one crossing does not.  Slid images were once rejected
    folder = DATA / name
    witness = tmp_path / "witness.txt"
    if (folder / "kind.txt").read_text().strip() == "decide":
        jsj_a, jsj_b = folder / "jsj_a.txt", folder / "jsj_b.txt"
        argv = ["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(jsj_b)]
    else:
        jsj_a, jsj_b = tmp_path / "jsj_alpha.txt", tmp_path / "jsj_beta.txt"
        for path, side in ((jsj_a, "alpha"), (jsj_b, "beta")):
            path.write_text((folder / f"{side}.txt").read_text().partition("[jsj]\n")[2])
        argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt")]
    argv += ["--whitelists", str(folder / "whitelists.txt"), "--witness-out", str(witness)]
    assert run_cli(argv, capsys)[0] == 0
    text = witness.read_text()
    gog = parse_jsj(jsj_b.read_text()).gog
    slid = tmp_path / "slid.txt"
    verify = ["verify-witness", "--jsj-a", str(jsj_a), "--jsj-b", str(jsj_b), "--witness", str(slid)]
    rng = random.Random(name)
    rejected = 0
    for _ in range(4):
        slid.write_text(_witness_loops_rewritten(text, gog, lambda loop: _slid(loop, rng)))
        assert run_cli(verify, capsys)[:2] == (0, "witness verified\n")
        wrong = []  # the first loop that crosses an edge gets one wrong slide

        def wrong_once(loop):
            if wrong or len(loop.parts) == 1:
                return _slid(loop, rng)
            wrong.append(loop)
            return _slid(loop, rng, wrong_at=rng.randrange(1, len(loop.parts), 2))

        slid.write_text(_witness_loops_rewritten(text, gog, wrong_once))
        if wrong:
            assert run_cli(verify, capsys)[:2] == (1, "witness REJECTED\n")
            rejected += 1
    assert rejected == 4


def _replaced(lines, i, line):
    return "".join(lines[:i] + [line] + lines[i + 1 :])


def deletions(lines):
    for i, line in enumerate(lines):
        yield line, "".join(lines[:i] + lines[i + 1 :])


def duplications(lines):
    for i, line in enumerate(lines):
        yield line, "".join(lines[: i + 1] + lines[i:])


def token_swaps(lines):
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) >= 2:
            tokens[0], tokens[1] = tokens[1], tokens[0]
            yield line, _replaced(lines, i, " ".join(tokens) + "\n")


def digit_replacements(lines):
    """One mutant per run of digits, replaced by `q`."""
    for i, line in enumerate(lines):
        for match in re.finditer(r"\d+", line):
            yield line, _replaced(lines, i, line[: match.start()] + "q" + line[match.end() :])


def bracket_drops(lines):
    for i, line in enumerate(lines):
        if ")" in line:
            yield line, _replaced(lines, i, line.replace(")", "", 1))


class TestMalformedInput:
    """Deleting or duplicating any one line of an input file, swapping the
    first two tokens of a line, replacing a run of digits by a letter or
    dropping a line's first `)` gives a verdict or an input error, never a
    traceback; every positive verdict still carries a witness that
    `verify-witness` accepts.  Conj-ung instances mutate `alpha.txt` and
    `beta.txt`; decide instances mutate `jsj_a.txt` and `whitelists.txt`."""

    @staticmethod
    def _jsj_part(text):
        return text.partition("[jsj]\n")[2]

    def _check_mutants(self, name, mutate, tmp_path, capsys):
        """Runs the instance's command on each (line, mutated text) of
        `mutate`, applied to each mutated file in turn, the others unchanged."""
        folder = DATA / name
        decide = (folder / "kind.txt").read_text().strip() == "decide"
        files = ("jsj_a", "whitelists") if decide else ("alpha", "beta")
        originals = {f: (folder / f"{f}.txt").read_text() for f in files}
        paths = {f: tmp_path / f"{f}.txt" for f in files}
        witness = tmp_path / "witness.txt"
        if decide:
            argv = ["decide", "--jsj-a", str(paths["jsj_a"]), "--jsj-b", str(folder / "jsj_b.txt")]
            argv += ["--whitelists", str(paths["whitelists"])]
            jsj = {"a": paths["jsj_a"], "b": folder / "jsj_b.txt"}
            positive = "isomorphic-fop"
        else:
            argv = ["conj-ung", "--alpha", str(paths["alpha"]), "--beta", str(paths["beta"])]
            argv += ["--whitelists", str(folder / "whitelists.txt")]
            jsj = {"a": tmp_path / "jsj_alpha.txt", "b": tmp_path / "jsj_beta.txt"}
            positive = "conjugate"
        argv += ["--witness-out", str(witness)]
        for mutated_file in files:
            texts = dict(originals)
            verified = 0
            for line, mutated in mutate(originals[mutated_file].splitlines(keepends=True)):
                texts[mutated_file] = mutated
                for f in files:
                    paths[f].write_text(texts[f])
                witness.unlink(missing_ok=True)
                code, out, err = run_cli(argv, capsys)
                where = (mutated_file, line)
                assert code in (0, 1, 2), where
                assert (code == 1) == ("input error" in err), where
                if code == 0 and f"status: {positive}" in out:
                    if not decide:
                        jsj["a"].write_text(self._jsj_part(texts["alpha"]))
                        jsj["b"].write_text(self._jsj_part(texts["beta"]))
                    code, out, _ = run_cli(
                        ["verify-witness", "--jsj-a", str(jsj["a"]), "--jsj-b", str(jsj["b"]),
                         "--witness", str(witness)],
                        capsys,
                    )
                    assert code == 0 and "witness verified" in out, where
                    verified += 1
            expected = (folder / "expected.txt").read_text().strip()
            if expected == positive and "[tree]\n" in originals[mutated_file]:
                # the reader skips the [tree] section, so its mutants keep the verdict
                assert verified > 0, mutated_file

    @pytest.mark.parametrize("name", CORPUS_FOLDERS)
    def test_line_deletions(self, name, tmp_path, capsys):
        self._check_mutants(name, deletions, tmp_path, capsys)

    @pytest.mark.parametrize("name", CORPUS_FOLDERS)
    def test_line_duplications(self, name, tmp_path, capsys):
        self._check_mutants(name, duplications, tmp_path, capsys)

    @pytest.mark.parametrize("name", CORPUS_FOLDERS)
    def test_token_swaps(self, name, tmp_path, capsys):
        self._check_mutants(name, token_swaps, tmp_path, capsys)

    @pytest.mark.parametrize("name", CORPUS_FOLDERS)
    def test_digit_replacements(self, name, tmp_path, capsys):
        self._check_mutants(name, digit_replacements, tmp_path, capsys)

    @pytest.mark.parametrize("name", CORPUS_FOLDERS)
    def test_bracket_drops(self, name, tmp_path, capsys):
        self._check_mutants(name, bracket_drops, tmp_path, capsys)

    @pytest.mark.parametrize("name", POSITIVE_FOLDERS)
    def test_witness_mutants(self, name, tmp_path, capsys):
        """A witness file with one line deleted, duplicated, token-swapped or
        digit-replaced is verified or rejected, never a traceback."""
        folder = DATA / name
        witness = tmp_path / "witness.txt"
        if (folder / "kind.txt").read_text().strip() == "decide":
            jsj_a, jsj_b = folder / "jsj_a.txt", folder / "jsj_b.txt"
            argv = ["decide", "--jsj-a", str(jsj_a), "--jsj-b", str(jsj_b)]
        else:
            jsj_a, jsj_b = tmp_path / "jsj_alpha.txt", tmp_path / "jsj_beta.txt"
            jsj_a.write_text(self._jsj_part((folder / "alpha.txt").read_text()))
            jsj_b.write_text(self._jsj_part((folder / "beta.txt").read_text()))
            argv = ["conj-ung", "--alpha", str(folder / "alpha.txt"), "--beta", str(folder / "beta.txt")]
        argv += ["--whitelists", str(folder / "whitelists.txt"), "--witness-out", str(witness)]
        assert run_cli(argv, capsys)[0] == 0
        verify = ["verify-witness", "--jsj-a", str(jsj_a), "--jsj-b", str(jsj_b), "--witness"]
        code, out, _ = run_cli(verify + [str(witness)], capsys)
        assert code == 0 and "witness verified" in out
        mutant = tmp_path / "mutant.txt"
        lines = witness.read_text().splitlines(keepends=True)
        for mutate in (deletions, duplications, token_swaps, digit_replacements):
            for line, mutated in mutate(lines):
                mutant.write_text(mutated)
                code, out, _ = run_cli(verify + [str(mutant)], capsys)
                assert code in (0, 1), (mutate.__name__, line)

    @pytest.mark.parametrize(
        "deleted, message",
        [
            ("B: Z2 1\n", "edge e1 names undeclared vertex 'B'"),
            # edge lines are then read as vertex lines
            ("[edges]\n", "bad slot kind 'W --> B (Z 1)'"),
        ],
        ids=["undeclared-vertex", "missing-edges-header"],
    )
    def test_named_input_error(self, deleted, message, tmp_path, capsys):
        folder = DATA / "01_identity_f2"
        text = (folder / "alpha.txt").read_text()
        assert deleted in text
        alpha = tmp_path / "alpha.txt"
        alpha.write_text(text.replace(deleted, "", 1))
        code, _, err = run_cli(
            ["conj-ung", "--alpha", str(alpha), "--beta", str(folder / "beta.txt")], capsys
        )
        assert code == 1
        assert f"input error: {message}" in err


class TestParserReuse:
    """One parser serves every call in a process, and a call after an
    argument error answers as it would in a fresh process."""

    DECIDE = [
        "decide",
        "--jsj-a",
        str(DATA / "12_orientation_shift" / "jsj_a.txt"),
        "--jsj-b",
        str(DATA / "12_orientation_shift" / "jsj_b.txt"),
        "--whitelists",
        str(DATA / "12_orientation_shift" / "whitelists.txt"),
    ]
    CALLS = [["whitehead", "orbit", "[ a b ]", "[ b' ]"], ["whitehead", "orbit", "[ a ]"], DECIDE]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_same_outputs_as_separate_processes(self, capsys):
        in_process = []
        for argv in self.CALLS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        separate = []
        for argv in self.CALLS:
            result = subprocess.run(
                [sys.executable, "-m", "torusconj.cli", *argv], capture_output=True, text=True
            )
            separate.append((result.returncode, result.stdout, result.stderr))
        assert [code for code, _, _ in in_process] == [0, 2, 0]
        assert "status: isomorphic-fop" in in_process[2][1]
        assert in_process == separate


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "torusconj.cli", "whitehead", "orbit", "[ a ]", "[ b ]"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("equivalent")
