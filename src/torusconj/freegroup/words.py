"""Freely reduced words in a finite-rank free group.

Letters are ``(generator_index, sign)`` pairs with 0-based indices and an
explicit sign in ``{+1, -1}``.  Words are immutable and always stored freely
reduced.  Conjugation follows the convention ``a ** g == g^-1 * a * g``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from ..errors import DomainError, FormatError

Letter = Tuple[int, int]

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _inv(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    """Freely reduce a raw letter sequence.  Idempotent."""
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class FreeGroup:
    """A free group of finite rank with named generators."""

    __slots__ = ("names", "rank", "_hash", "_by_length", "_tokens", "_identity")

    def __init__(self, names):
        if isinstance(names, int):
            if names < 1:
                raise DomainError("rank must be >= 1")
            if names <= len(_DEFAULT_NAMES):
                names = tuple(_DEFAULT_NAMES[:names])
            else:
                names = tuple(f"x{i}" for i in range(names))
        names = tuple(names)
        if len(names) < 1:
            raise DomainError("rank must be >= 1")
        if len(set(names)) != len(names):
            raise DomainError(f"generator names must be distinct: {names}")
        # `parse` reads `1` as the identity and `'` as an inverse mark
        for name in names:
            if not name or name.startswith("1") or name.endswith("'") or any(ch.isspace() for ch in name):
                raise FormatError(f"bad generator name: {name!r}")
        self.names = names
        self.rank = len(names)
        self._hash = hash(("FreeGroup", names))
        # longest-match tokenization order for `parse`
        self._by_length = sorted(range(self.rank), key=lambda i: -len(names[i]))
        # whole tokens `parse` reads without scanning: each name and its
        # inverse, and `1` (None)
        self._tokens = {"1": None}
        for i, name in enumerate(names):
            self._tokens[name], self._tokens[name + "'"] = (i, 1), (i, -1)
        self._identity = Word(self, ())

    def __eq__(self, other):
        return self is other or (isinstance(other, FreeGroup) and self.names == other.names)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FreeGroup({', '.join(self.names)})"

    def word(self, letters: Iterable[Letter] = ()) -> "Word":
        letters = tuple(letters)
        for idx, sign in letters:
            if not 0 <= idx < self.rank:
                raise FormatError(f"letter index {idx} out of range for rank {self.rank}")
            if sign not in (1, -1):
                raise FormatError(f"letter sign must be +1 or -1, got {sign}")
        return Word(self, reduce_letters(letters))

    def identity(self) -> "Word":
        """The empty word; one shared immutable object per group."""
        return self._identity

    def generator(self, i: int) -> "Word":
        if not 0 <= i < self.rank:
            raise DomainError(f"no generator {i} in rank {self.rank}")
        return Word(self, ((i, 1),))

    def generators(self) -> list["Word"]:
        return [self.generator(i) for i in range(self.rank)]

    def parse(self, text: str) -> "Word":
        """Parse the textual word syntax: names juxtaposed, `'` marks inverse.

        >>> FreeGroup(2).parse("a b' a").format()
        "a b' a"
        >>> FreeGroup(2).parse("1").format()
        '1'
        """
        text = text.strip()
        if text in ("", "1"):
            return self.identity()
        # a name or inverse name between spaces is read whole: no longer name
        # is a prefix of it, so the scan below would read the same letter
        tokens = self._tokens
        letters: list = []
        for token in text.split():
            if token not in tokens:
                break
            letter = tokens[token]
            if letter:
                letters.append(letter)
        else:
            return Word(self, reduce_letters(letters))
        # longest-match tokenization so multi-character names work unspaced
        by_len = self._by_length
        letters = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            if text[pos] == "1":
                pos += 1
                continue
            for i in by_len:
                name = self.names[i]
                if text.startswith(name, pos):
                    pos += len(name)
                    sign = 1
                    if pos < len(text) and text[pos] == "'":
                        sign = -1
                        pos += 1
                    letters.append((i, sign))
                    break
            else:
                raise FormatError(f"unknown generator symbol at {text[pos:]!r}")
        # the letters are in range by construction: reduce, do not re-check
        return Word(self, reduce_letters(letters))


class Word:
    """A freely reduced word.  Treat as immutable."""

    __slots__ = ("group", "letters", "_hash")

    def __init__(self, group: FreeGroup, letters: Tuple[Letter, ...]):
        self.group = group
        self.letters = letters
        self._hash = None

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group._hash, self.letters))
        return self._hash

    def key(self):
        """Total-order key: by length, then a < a' < b < b' < ..."""
        return (len(self.letters), tuple((i, 0 if s > 0 else 1) for i, s in self.letters))

    def __lt__(self, other):
        return self.key() < other.key()

    def __mul__(self, other: "Word") -> "Word":
        if self.group != other.group:
            raise DomainError("words from different groups")
        return Word(self.group, reduce_letters(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(self.group, tuple(_inv(l) for l in reversed(self.letters)))

    def __invert__(self):
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.group.identity()
        for _ in range(n):
            result = result * self
        return result

    def conjugate(self, g: "Word") -> "Word":
        """g^-1 * self * g, reduced once; the word itself when g is trivial."""
        if g.group is not self.group and g.group != self.group:
            raise DomainError("words from different groups")
        if not g.letters:
            return self
        inv = tuple(_inv(l) for l in reversed(g.letters))
        return Word(self.group, reduce_letters(inv + self.letters + g.letters))

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_reduction(self) -> Tuple["Word", "Word"]:
        """Return (p, core) with self == p * core * p^-1 and core cyclically reduced."""
        letters = self.letters
        i, j = 0, len(letters) - 1
        while i < j and letters[i] == _inv(letters[j]):
            i += 1
            j -= 1
        if i == 0:
            return Word(self.group, ()), self
        return Word(self.group, letters[:i]), Word(self.group, letters[i : j + 1])

    def rotations(self) -> Iterator["Word"]:
        letters = self.letters
        for r in range(max(1, len(letters))):
            yield Word(self.group, letters[r:] + letters[:r])

    def format(self) -> str:
        if not self.letters:
            return "1"
        names = self.group.names
        return " ".join(names[i] + ("" if s > 0 else "'") for i, s in self.letters)

    def __repr__(self):
        return f"<{self.format()}>"


def primitive_root(w: Word) -> Word:
    """The unique u with w in <u> and u not a proper power; w must be nontrivial.

    >>> F = FreeGroup(2)
    >>> primitive_root(F.parse("a b a b")).format()
    'a b'
    """
    if w.is_identity():
        raise DomainError("identity has no primitive root")
    prefix, core = w.cyclic_reduction()
    letters = core.letters
    n = len(letters)
    for d in range(1, n + 1):
        if n % d:
            continue
        if letters == letters[d:] + letters[:d]:
            root_core = Word(w.group, letters[:d])
            return prefix * root_core * prefix.inverse()
    raise AssertionError("unreachable")


def root_power(w: Word) -> Tuple[Word, int]:
    """Return (root, n) with w == root ** n, root primitive, n >= 1."""
    root = primitive_root(w)
    n = len(w.cyclic_reduction()[1]) // len(root.cyclic_reduction()[1])
    return root, n


def _conj_letters(letters: Tuple[Letter, ...], l: Letter) -> Tuple[Letter, ...]:
    """reduce(l^-1 + letters + l) for reduced input; boundary-only work."""
    linv = (l[0], -l[1])
    if letters and letters[0] == l:
        out = letters[1:]
    else:
        out = (linv,) + letters
    if out and out[-1] == linv:
        return out[:-1]
    return out + (l,)


def _end_hits(tup: Tuple[Tuple[Letter, ...], ...], rank: int) -> Tuple[int, list]:
    """(k, hits): k nontrivial words in `tup`, hits[2i + (s < 0)] of them
    starting with the letter l = (i, s) plus those ending with l^-1.  Each
    end of a word loses a letter under conjugation by l if it cancels and
    gains one if not, so the total length changes by 2 * (k - hits[l])."""
    hits, k = [0] * (2 * rank), 0
    for ls in tup:
        if ls:
            (i, s), (j, t) = ls[0], ls[-1]
            hits[2 * i + (s < 0)] += 1
            hits[2 * j + (t > 0)] += 1
            k += 1
    return k, hits


def _descend(tup: Tuple[Tuple[Letter, ...], ...], rank: int):
    """Greedy descent by the first letter, in the order a < a' < b < ...,
    that shortens the tuple, down to its least total length; returns the
    tuple reached and the letters it was conjugated by."""
    g: list = []
    while True:
        k, hits = _end_hits(tup, rank)
        x = next((x for x, h in enumerate(hits) if h > k), None)
        if x is None:
            return tup, g
        l = (x >> 1, -1 if x & 1 else 1)
        tup = tuple(_conj_letters(ls, l) for ls in tup)
        g.append(l)


def conjugacy_length(words: Sequence[Word]) -> int:
    """Least total length of a simultaneous conjugate of `words`: the total
    length of `canonical_conjugate(words)[0]`, found by the descent alone."""
    tup, _ = _descend(tuple(w.letters for w in words), words[0].group.rank)
    return sum(map(len, tup))


def canonical_conjugate(words: Sequence[Word]) -> Tuple[Tuple[Word, ...], Word]:
    """Canonical form of a tuple of words under simultaneous conjugation.

    Returns ``(canonical, g)`` with ``canonical[i] == g^-1 * words[i] * g``.
    The canonical tuple has minimal total length among all simultaneous
    conjugates, with ties broken by the fixed total order on words.  Total
    length is a convex function on the Cayley tree, so greedy descent by
    single letters reaches the minimum; the minimum-level plateau is then
    searched exhaustively.
    """
    words = tuple(words)
    if not words:
        raise DomainError("empty tuple has no canonical conjugate")
    group = words[0].group
    for w in words[1:]:
        if w.group != group:
            raise DomainError("tuple entries from different groups")
    if group.rank == 1:
        # F_1 is abelian: the tuple is its own only conjugate
        return words, group.identity()
    if len(words) == 1:
        return _canonical_single(words[0])
    return _canonical_plateau(group, words)


def _canonical_single(w: Word) -> Tuple[Tuple[Word, ...], Word]:
    """Least rotation of the cyclic reduction; same canonical word as the
    plateau.  The conjugator is the prefix of `w` up to the least rotation,
    already reduced; a word that is already canonical is returned itself."""
    prefix, core = w.cyclic_reduction()
    letters = core.letters
    n = len(letters)
    if n <= 1:
        return (core,), prefix
    keys = [2 * i + (s < 0) for i, s in letters]
    low, doubled = min(keys), keys + keys
    r = min((k for k in range(n) if keys[k] == low), key=lambda k: doubled[k : k + n])
    if r == 0:
        return (core,), prefix
    group, cut = w.group, len(prefix) + r
    return (Word(group, letters[r:] + letters[:r]),), Word(group, w.letters[:cut])


def _canonical_plateau(group: FreeGroup, words: Tuple[Word, ...]):
    rank = group.rank
    current, g = _descend(tuple(w.letters for w in words), rank)
    seen = {current: tuple(g)}
    queue = [current]
    while queue:
        tup = queue.pop()
        base_g = seen[tup]
        k, hits = _end_hits(tup, rank)
        for x, h in enumerate(hits):
            if h == k:
                l = (x >> 1, -1 if x & 1 else 1)
                cand = tuple(_conj_letters(ls, l) for ls in tup)
                if cand not in seen:
                    seen[cand] = base_g + (l,)
                    queue.append(cand)
    # least in the order of `Word.key`, with the int letter key 2i + (s < 0)
    best = min(seen, key=lambda t: [(len(ls), [2 * i + (s < 0) for i, s in ls]) for ls in t])
    conj = Word(group, reduce_letters(seen[best]))
    return tuple(Word(group, ls) for ls in best), conj
