"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns the CoNLL-U text, the
lexicon directory contents (or ``None`` for the bundled lexicons) and the
expected facts of every sentence.  The same seed gives the same bytes.

The expected facts are derived here, from how each sentence was built, and
not from the program's output:

* generated clauses know their verb, its polarity (read from the lexicon
  file), which toponym fills which complement and which preposition heads
  it, and the temporal magnitude;
* the gold and taxonomy shapes carry the hand-known facts of the bundled
  gold corpus (gold-01 and gold-05 give an itinerary, gold-07 and
  tax-inclusion have no main verb, nothing else gives an itinerary).

Workloads:

gold-replica
    The 16 bundled gold and taxonomy sentences, replicated with renamed
    ``sent_id``s (seeded order inside each block), bundled lexicons.
gazetteer-20k
    The same 16 shapes in gold order, with every single-token toponym
    replaced by a 1-3 word name taken from a seeded synthetic gazetteer of
    20,000 entries (bundled entries plus generated names, some sharing a
    prefix), at a fixed rank of its scan order.
itinerary-dense
    Sentences of coordinated motion-verb clauses sharing one subject, each
    clause with 2-4 place complements and one temporal complement, bundled
    lexicons.

The seed changes names, words and order, never the amount of work: the
gazetteer's mix of name lengths, the scan rank of every toponym used and
the shape of every generated sentence are the same for every seed.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "itirel" / "data"
LEXICON_FILES = ("motion_verbs.tsv", "spatial_markers.tsv",
                 "temporal_markers.tsv", "gazetteer.tsv", "units.tsv")

# Role of a place complement by its preposition; an unmarked object takes
# the default side of the verb's polarity.
PREP_ROLE = {"de": "origin", "vers": "destination", "pour": "destination",
             "à": "destination", "par": "intermediate"}
POLARITY_DEFAULT = {"initial": "origin", "median": "intermediate",
                    "final": "destination"}

# Third-person present forms of the bundled motion verbs.
VERB_FORMS = {"quitter": "quitte", "sortir": "sort", "partir": "part",
              "passer": "passe", "traverser": "traverse", "suivre": "suit",
              "arriver": "arrive", "entrer": "entre",
              "atteindre": "atteint"}

SUBJECTS = (("Le", "le", "randonneur", "randonneur"),
            ("La", "le", "cycliste", "cycliste"),
            ("Le", "le", "berger", "berger"),
            ("Mon", "son", "ami", "ami"))

WORD_NUMBERS = (("deux", 2), ("trois", 3), ("quatre", 4), ("cinq", 5),
                ("dix", 10))
DIGIT_NUMBERS = (("2", 2), ("3", 3), ("12", 12), ("25", 25))
TEMPORAL_UNITS = (("jours", "jour"), ("heures", "heure"),
                  ("semaines", "semaine"), ("mois", "mois"), ("ans", "an"))
TEMPORAL_MARKERS = ("depuis", "dans", "après")
SETTLEMENTS = (("une", "un", "ville"), ("un", "un", "village"),
               ("un", "un", "hameau"))

# Every word a generated sentence uses besides toponyms.  Generated
# toponym words are kept apart from it, and from the lexicon phrases, so
# that a name can never be read as a marker, unit, number or month.
_SENTENCE_WORDS = {
    "le", "la", "l", "un", "une", "son", "mon", "ami", "randonneur",
    "cycliste", "berger", "ville", "village", "hameau", "puis", "et",
    "de", "du", "des", "d", "vers", "pour", "à", "au", "aux", "par", "près",
    "ouest", "est", "km", "depuis", "dans", "après", "jours", "heures",
    "semaines", "mois", "ans", ",", "."}
_CALENDAR_WORDS = {
    "janvier", "février", "mars", "avril", "mai", "juin", "juillet", "août",
    "septembre", "octobre", "novembre", "décembre", "un", "une", "deux",
    "trois", "quatre", "cinq", "six", "sept", "huit", "neuf", "dix", "onze",
    "douze", "treize", "quatorze", "quinze", "seize", "vingt", "cent",
    "mille"}

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cr", "gr", "tr", "ch", "pl", "gu")
_VOWELS = ("a", "e", "i", "o", "u", "ou", "ai", "é", "è", "au", "ei")
_CODAS = ("", "", "", "n", "r", "l", "s", "x")
_FEATURE_TYPES = ("city", "village", "peak", "")


def _norm(word: str) -> str:
    return unicodedata.normalize("NFC", word).casefold()


def _lexicon_words(lexicon_dir: Path) -> set[str]:
    """Every word of every marker, verb and unit in a lexicon directory."""
    words: set[str] = set()
    for name in LEXICON_FILES:
        if name == "gazetteer.tsv":
            continue
        for line in (lexicon_dir / name).read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                key = line.split("\t")[0]
                words.update(_norm(key.replace("'", " ")).split())
    return words


def read_polarities(lexicon_dir: Path) -> dict[str, str]:
    out = {}
    for line in (lexicon_dir / "motion_verbs.tsv").read_text(
            encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            lemma, polarity = line.split("\t")
            out[lemma.strip()] = polarity.strip()
    return out


def read_gazetteer(lexicon_dir: Path) -> list[str]:
    names = []
    for line in (lexicon_dir / "gazetteer.tsv").read_text(
            encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            names.append(line.split("\t")[0].strip())
    return names


# --- expected facts --------------------------------------------------------

@dataclass(frozen=True)
class Place:
    """One expected spatial entity: kind, anchors, magnitude, direction."""
    kind: str
    anchors: tuple[str, ...]
    magnitude: Optional[tuple[int, str]] = None
    direction: Optional[str] = None


@dataclass(frozen=True)
class Itinerary:
    verb: str
    polarity: str
    actor: str
    origin: tuple[Place, ...]
    intermediate: tuple[Place, ...]
    destination: tuple[Place, ...]
    temporal: tuple[tuple[str, Optional[tuple[int, str]]], ...]


@dataclass(frozen=True)
class Expected:
    """What the program must output for one sentence."""
    itineraries: tuple[Itinerary, ...]
    skips: tuple[str, ...] = ()
    same_as: Optional[str] = None  # sent_id whose output must be identical


@dataclass
class Workload:
    name: str
    conllu: str
    expected: dict[str, Expected]       # in corpus order
    lexicon_files: Optional[dict[str, bytes]]  # None: bundled lexicons
    probe: str                          # sent_id of the set-up probe
    passes: int                         # sentence passes per round
    setup_reps: int                     # set-ups per round
    make_up: str


# --- CoNLL-U building ------------------------------------------------------

@dataclass
class _Tok:
    form: str
    lemma: str
    upos: str
    head: int = 0
    deprel: str = "root"
    space_after: bool = True


@dataclass
class _Sentence:
    toks: list[_Tok] = field(default_factory=list)

    def add(self, form, lemma, upos, space_after=True) -> int:
        self.toks.append(_Tok(form, lemma, upos, space_after=space_after))
        return len(self.toks)

    def link(self, dep: int, head: int, deprel: str) -> None:
        self.toks[dep - 1].head = head
        self.toks[dep - 1].deprel = deprel

    def text(self) -> str:
        out = []
        for t in self.toks:
            out.append(t.form)
            if t.space_after:
                out.append(" ")
        return "".join(out).rstrip()

    def conllu(self, sent_id: str) -> str:
        lines = [f"# sent_id = {sent_id}", f"# text = {self.text()}"]
        for i, t in enumerate(self.toks, 1):
            misc = "_" if t.space_after else "SpaceAfter=No"
            lines.append("\t".join((str(i), t.form, t.lemma, t.upos, "_", "_",
                                    str(t.head), t.deprel, "_", misc)))
        return "\n".join(lines) + "\n"


def _add_name(s: _Sentence, name: str) -> int:
    """Toponym tokens; extra words hang off the first as flat:name."""
    words = name.split()
    first = s.add(words[0], words[0], "PROPN")
    for w in words[1:]:
        s.link(s.add(w, w, "PROPN"), first, "flat:name")
    return first


# --- gazetteer -------------------------------------------------------------

# Name families in a fixed cycle, so that every seed gets the same number of
# one-, two- and three-word names: a base name alone, the base extended by
# one word, by one and then one more (a chain of prefixes), or by two words.
_FAMILIES = ((1,), (1,), (1, 2), (1,), (1, 2, 3), (1,), (1, 3), (1,),
             (1, 2), (1, 3))


def synthetic_gazetteer(rng: random.Random, size: int,
                        bundled: list[str],
                        reserved: set[str]) -> list[str]:
    """``size`` distinct toponyms: the bundled ones plus 1-3 word names.

    Four in ten generated one-word names head a family of longer names that
    extend them ("Brailo", "Brailo Temaux", ...), so longest match has real
    prefixes to choose between.
    """
    seen_words: set[str] = set()

    def word() -> str:
        while True:
            w = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                        for _ in range(rng.randint(2, 3))) + rng.choice(_CODAS)
            n = _norm(w)
            if n not in reserved and n not in seen_words:
                seen_words.add(n)
                return w.capitalize()

    names = list(bundled)
    family = 0
    while len(names) < size:
        words = [word()]
        for length in _FAMILIES[family % len(_FAMILIES)]:
            while len(words) < length:
                words.append(word())
            names.append(" ".join(words[:length]))
        family += 1
    return names[:size]


def scan_order(names: list[str]) -> list[str]:
    """The order in which the gazetteer is matched: longest names first,
    then by name."""
    return sorted(names, key=lambda n: (-len(n.split()), n))


def _gazetteer_tsv(rng: random.Random, names: list[str]) -> bytes:
    lines = ["# Synthetic gazetteer: name<TAB>optional feature type."]
    order = list(names)
    rng.shuffle(order)
    for n in order:
        ftype = rng.choice(_FEATURE_TYPES)
        lines.append(f"{n}\t{ftype}" if ftype else n)
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- gold and taxonomy shapes ----------------------------------------------

def _read_conllu_blocks(path: Path) -> list[tuple[str, str, list[list[str]]]]:
    """(sent_id, block text, token rows) of each sentence, read without
    the program."""
    out = []
    for block in path.read_text(encoding="utf-8").strip().split("\n\n"):
        sent_id, rows = None, []
        for line in block.splitlines():
            if line.startswith("# sent_id ="):
                sent_id = line.split("=", 1)[1].strip()
            elif line and not line.startswith("#"):
                rows.append(line.split("\t"))
        out.append((sent_id, block + "\n", rows))
    return out


def gold_shapes() -> list[tuple[str, str, list[list[str]]]]:
    return (_read_conllu_blocks(DATA / "gold" / "gold.conllu")
            + _read_conllu_blocks(DATA / "gold" / "taxonomy.conllu"))


def _gold_expected(sid: str, names: dict[str, str]) -> Expected:
    """Hand-known facts of a gold shape; ``names`` maps each bundled
    toponym of the shape to the name that replaced it."""
    if sid == "gold-01":
        return Expected((Itinerary(
            "quitter", "initial", "Le frère de mon ami",
            origin=(Place("absolute", (names["Pau"],)),),
            intermediate=(),
            destination=(Place("adjacency", (names["Lyon"],)),),
            temporal=(("distance", (2, "semaine")),)),))
    if sid == "gold-05":
        return Expected((Itinerary(
            "sortir", "initial", "je",
            origin=(Place("absolute", (names["Pau"],)),),
            intermediate=(),
            destination=(Place("absolute", (names["Laruns"],)),),
            temporal=(("distance", (3, "jour")),)),))
    if sid in ("gold-07", "tax-inclusion"):
        return Expected((), skips=("no main verb",))
    return Expected(())


def _render_shape(rows: list[list[str]], names: dict[str, str]) -> _Sentence:
    """A gold shape with its single-token toponyms replaced by ``names``."""
    s = _Sentence()
    new_id = {}
    for r in rows:
        form = r[1]
        space = "SpaceAfter=No" not in r[9]
        if form in names:
            new_id[int(r[0])] = _add_name(s, names[form])
            s.toks[-1].space_after = space
        else:
            new_id[int(r[0])] = s.add(form, r[2], r[3], space)
    for r in rows:
        head = int(r[6])
        s.link(new_id[int(r[0])], new_id[head] if head else 0, r[7])
    return s


def gold_replica(seed: int, blocks: int) -> Workload:
    rng = random.Random(seed)
    shapes = gold_shapes()
    bundled = {n: n for n in read_gazetteer(DATA / "lexicons")}
    parts, expected = [], {}
    for b in range(blocks):
        order = list(shapes)
        rng.shuffle(order)
        for sid, block, _ in order:
            new_sid = f"{sid}~{b:04d}"
            parts.append(block.replace(f"# sent_id = {sid}\n",
                                       f"# sent_id = {new_sid}\n"))
            facts = _gold_expected(sid, bundled)
            expected[new_sid] = Expected(facts.itineraries, facts.skips,
                                         same_as=f"{sid}~0000")
    return Workload("gold-replica", "\n".join(parts), expected, None,
                    probe="gold-05~0000", passes=1, setup_reps=5,
                    make_up=f"{blocks} blocks x 16 gold/taxonomy sentences, "
                            f"{blocks * 16} sentences, bundled lexicons")


def gazetteer_workload(seed: int, blocks: int, size: int = 20_000) -> Workload:
    rng = random.Random(seed)
    lexdir = DATA / "lexicons"
    bundled = read_gazetteer(lexdir)
    reserved = _SENTENCE_WORDS | _CALENDAR_WORDS | _lexicon_words(lexdir)
    for n in bundled:
        reserved.update(_norm(n).split())
    names = synthetic_gazetteer(rng, size, bundled, reserved)
    generated = set(names[len(bundled):])
    files = {n: (lexdir / n).read_bytes() for n in LEXICON_FILES
             if n != "gazetteer.tsv"}
    files["gazetteer.tsv"] = _gazetteer_tsv(rng, names)
    single = {n for n in bundled if " " not in n}
    shapes = [(sid, rows, sorted({r[1] for r in rows if r[1] in single}))
              for sid, _, rows in gold_shapes()]
    # Toponym slot k of n takes the generated name at rank (k + 1/2) / n of
    # the scan order.  A name's rank sets how long a linear scan takes to
    # reach it, so picking ranks at random would move the cost of a
    # sentence with the seed; picking them by slot moves only the names.
    order = [n for n in scan_order(names) if n in generated]
    slots = blocks * sum(len(used) for _, _, used in shapes)
    picks = iter(order[(2 * k + 1) * len(order) // (2 * slots)]
                 for k in range(slots))
    parts, expected = [], {}
    for b in range(blocks):
        # gold order in every block: the sentence after a slow one runs
        # with cold caches, so a seeded order would move the fast
        # sentences' times with the seed
        for sid, rows, used in shapes:
            mapping = {n: next(picks) for n in used}
            new_sid = f"{sid}~{b:03d}"
            parts.append(_render_shape(rows, mapping).conllu(new_sid))
            expected[new_sid] = _gold_expected(sid, mapping)
    return Workload(f"gazetteer-{size}", "\n".join(parts), expected, files,
                    probe="gold-05~000", passes=3, setup_reps=1,
                    make_up=f"{blocks} blocks x 16 gold/taxonomy shapes with "
                            f"drawn toponyms, {blocks * 16} sentences; "
                            f"{size} gazetteer entries")


# --- itinerary-dense -------------------------------------------------------

def _place(s: _Sentence, rng: random.Random, verb: int, kind: str,
           toponym: str) -> tuple[str, Place]:
    """Add one place complement to clause ``verb``; return its role side
    (a preposition, or 'obj') and the expected entity."""
    if kind == "obj":
        s.link(_add_name(s, toponym), verb, "obj")
        return "obj", Place("absolute", (toponym,))
    if kind == "prep":
        prep = rng.choice(("de", "vers", "par", "pour"))
        case = s.add(prep, prep, "ADP")
        head = _add_name(s, toponym)
        s.link(case, head, "case")
        s.link(head, verb, "obl")
        return prep, Place("absolute", (toponym,))
    if kind == "near":
        # <prep> une ville près de <toponym>
        prep = rng.choice(("de", "vers", "par", "pour"))
        det_form, det_lemma, noun = rng.choice(SETTLEMENTS)
        case = s.add(prep, prep, "ADP")
        det = s.add(det_form, det_lemma, "DET")
        nom = s.add(noun, noun, "NOUN")
        pres = s.add("près", "près", "ADP")
        de = s.add("de", "de", "ADP")
        head = _add_name(s, toponym)
        s.link(case, nom, "case")
        s.link(det, nom, "det")
        s.link(nom, verb, "obl")
        s.link(pres, head, "case")
        s.link(de, pres, "fixed")
        s.link(head, nom, "nmod")
        return prep, Place("adjacency", (toponym,))
    if kind == "metric":
        # à <n> km de <toponym>
        value = rng.choice((2, 5, 10, 15, 30))
        a = s.add("à", "à", "ADP")
        num = s.add(str(value), str(value), "NUM")
        km = s.add("km", "km", "NOUN")
        de = s.add("de", "de", "ADP")
        head = _add_name(s, toponym)
        s.link(a, km, "case")
        s.link(num, km, "nummod")
        s.link(km, verb, "obl")
        s.link(de, head, "case")
        s.link(head, km, "nmod")
        return "à", Place("metric", (toponym,), magnitude=(value, "km"))
    # orientation: à l'ouest de <toponym> / à l'est de <toponym>
    direction = rng.choice(("ouest", "est"))
    a = s.add("à", "à", "ADP")
    det = s.add("l'", "le", "DET", space_after=False)
    nom = s.add(direction, direction, "NOUN")
    de = s.add("de", "de", "ADP")
    head = _add_name(s, toponym)
    s.link(a, nom, "case")
    s.link(det, nom, "det")
    s.link(nom, verb, "obl")
    s.link(de, head, "case")
    s.link(head, nom, "nmod")
    return "à", Place("orientation", (toponym,), direction=direction)


def _clause_shape(rng: random.Random):
    """Place kinds of one clause (2-4; at most one unmarked object, first),
    the place that takes a multi-word toponym (or None), and whether the
    temporal number is written in digits."""
    kinds = [rng.choice(("prep", "prep", "near", "metric", "orient"))
             for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.4:
        kinds[0] = "obj"
    long_at = rng.randrange(len(kinds)) if rng.random() < 0.3 else None
    return tuple(kinds), long_at, rng.random() < 0.5


def _dense_sentence(rng: random.Random, shape, toponyms: list[str],
                    polarities: dict[str, str]) -> tuple[_Sentence, Expected]:
    """One sentence of coordinated clauses, a ``_clause_shape`` each."""
    short = [t for t in toponyms if " " not in t]
    long = [t for t in toponyms if " " in t]
    s = _Sentence()
    det_form, det_lemma, noun, noun_lemma = rng.choice(SUBJECTS)
    det = s.add(det_form, det_lemma, "DET")
    subj = s.add(noun, noun_lemma, "NOUN")
    s.link(det, subj, "det")
    actor = f"{det_form} {noun}"
    main = None
    itineraries = []
    verbs = sorted(VERB_FORMS)
    for c, (kinds, long_at, digits) in enumerate(shape):
        lemma = rng.choice(verbs)
        if c:
            comma = s.add(",", ",", "PUNCT")
            s.toks[comma - 2].space_after = False
            word = rng.choice(("puis", "et"))
            cc = s.add(word, word, "CCONJ")
        verb = s.add(VERB_FORMS[lemma], lemma, "VERB")
        if main is None:
            main = verb
            s.link(subj, main, "nsubj")
        else:
            s.link(verb, main, "conj")
            s.link(comma, verb, "punct")
            s.link(cc, verb, "cc")
        picked = rng.sample(short, len(kinds))
        if long_at is not None:
            picked[long_at] = rng.choice(long)
        polarity = polarities[lemma]
        sides: dict[str, list[Place]] = {"origin": [], "intermediate": [],
                                         "destination": []}
        for kind, toponym in zip(kinds, picked):
            prep, place = _place(s, rng, verb, kind, toponym)
            side = PREP_ROLE.get(prep, POLARITY_DEFAULT[polarity])
            sides[side].append(place)
        # temporal complement: <marker> <number> <unit>
        marker = rng.choice(TEMPORAL_MARKERS)
        num_form, value = rng.choice(DIGIT_NUMBERS if digits
                                     else WORD_NUMBERS)
        unit_form, unit = rng.choice(TEMPORAL_UNITS)
        case = s.add(marker, marker, "ADP")
        num = s.add(num_form, num_form, "NUM")
        u = s.add(unit_form, unit, "NOUN")
        s.link(case, u, "case")
        s.link(num, u, "nummod")
        s.link(u, verb, "obl")
        itineraries.append(Itinerary(
            lemma, polarity, actor, tuple(sides["origin"]),
            tuple(sides["intermediate"]), tuple(sides["destination"]),
            (("distance", (value, unit)),)))
    s.toks[-1].space_after = False
    s.link(s.add(".", ".", "PUNCT"), main, "punct")
    return s, Expected(tuple(itineraries))


def itinerary_dense(seed: int, sentences: int) -> Workload:
    rng = random.Random(seed)
    lexdir = DATA / "lexicons"
    toponyms = read_gazetteer(lexdir)
    polarities = read_polarities(lexdir)
    # The shape of each sentence (clause count, place kinds, which place
    # has the multi-word toponym, how numbers are written) comes from a
    # fixed generator, with equal numbers of each clause count; the seed
    # fills in the words.  So the seed moves the content but not the amount
    # or the kind of work.  The set-up probe, sentence 0, is the same for
    # every seed.
    shaper = random.Random(0)
    probe = [_clause_shape(shaper) for _ in range(3)]
    shapes = [[_clause_shape(shaper) for _ in range(1 + i % 8)]
              for i in range(sentences - 1)]
    shaper.shuffle(shapes)
    parts, expected = [], {}
    for i, shape in enumerate([probe] + shapes):
        s, facts = _dense_sentence(rng if i else random.Random(0), shape,
                                   toponyms, polarities)
        sid = f"dense-{i:04d}"
        parts.append(s.conllu(sid))
        expected[sid] = facts
    return Workload("itinerary-dense", "\n".join(parts), expected, None,
                    probe="dense-0000", passes=2, setup_reps=5,
                    make_up=f"{sentences} sentences of 1-8 coordinated "
                            "motion clauses (equal numbers of each count), "
                            "2-4 places and 1 temporal complement each, "
                            "bundled lexicons")


def make(name: str, seed: int) -> Workload:
    if name == "gold-replica":
        return gold_replica(seed, blocks=200)
    if name == "gazetteer-20k":
        return gazetteer_workload(seed, blocks=1)
    if name == "itinerary-dense":
        return itinerary_dense(seed, sentences=100)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("gold-replica", "gazetteer-20k", "itinerary-dense")
