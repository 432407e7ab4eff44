"""Mapping-torus monodromy parsing.

A mapping torus F x|_alpha <t> is given by its fiber rank and the images of
the fiber generators under alpha; the decision pipeline itself models the
torus through its graph of groups.
"""

from __future__ import annotations

from typing import Optional

from .errors import FormatError, parse_int
from .freegroup import FreeAut, FreeGroup, is_automorphism


def parse_monodromy(rank_text: Optional[str], images_text: Optional[str]) -> FreeAut:
    """The automorphism of `fiber rank: n` / `monodromy: a -> w, ...`
    header values; every generator gets exactly one image."""
    if rank_text is None or images_text is None:
        raise FormatError("needs `fiber rank:` and `monodromy:`")
    fiber = FreeGroup(parse_int(rank_text, "fiber rank"))
    images = {}
    for part in images_text.split(","):
        name, _, image = part.partition("->")
        name = name.strip()
        if name not in fiber.names:
            raise FormatError(f"monodromy names unknown generator {name!r}")
        if name in images:
            raise FormatError(f"monodromy gives {name!r} twice")
        images[name] = fiber.parse(image)
    try:
        image_list = [images[name] for name in fiber.names]
    except KeyError as exc:
        raise FormatError(f"monodromy misses generator {exc.args[0]!r}") from exc
    aut = is_automorphism(fiber, image_list)
    if aut is None:
        raise FormatError("monodromy images do not define an automorphism")
    return aut
