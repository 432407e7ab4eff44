import pytest

from torusconj.cli import _parse_conj_side
from torusconj.errors import FormatError
from torusconj.freegroup import FreeGroup
from torusconj.torus import parse_monodromy

F2 = FreeGroup(2)


class TestParsing:
    def test_torus_file(self):
        aut = parse_monodromy("2", "a -> a b, b -> b")
        assert aut.group == F2
        assert aut.apply(F2.parse("a")) == F2.parse("a b")
        assert aut.apply(F2.parse("b")) == F2.parse("b")

    def test_trailing_comments_ignored(self, tmp_path):
        side = tmp_path / "alpha.txt"
        side.write_text(
            "fiber rank: 2  # rank of the fiber\n"
            "monodromy: a -> b, b -> a  # swap\n"
            "[jsj]\n"
            "[vertices]\n"
            "W: Z 1\n"
            "[colors]\n"
            "W: white\n"
            "[orientation]\n"
            "vertex W: 1\n"
        )
        parsed = _parse_conj_side(str(side))
        assert parsed.aut.apply(F2.parse("a")) == F2.parse("b")
        assert parsed.aut.apply(F2.parse("b")) == F2.parse("a")
        assert parsed.peripherals == ()

    @pytest.mark.parametrize(
        "rank_text, images_text",
        [
            (None, "a -> a"),
            ("two", "a -> a, b -> b"),
            ("2", "a -> b, b -> b"),
        ],
        ids=["missing-rank", "bad-rank", "not-automorphism"],
    )
    def test_malformed_headers(self, rank_text, images_text):
        with pytest.raises(FormatError):
            parse_monodromy(rank_text, images_text)
