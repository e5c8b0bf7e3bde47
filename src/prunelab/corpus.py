"""Synthetic multilingual corpus: seeded grammars, MLM batches, probe task.

Each language gets a token inventory and a tiny first-order Markov grammar.
Languages in the same family share part of their inventory, so family
structure is learnable from text alone.  Every sentence also carries a
global marker token injected at one of two rates chosen by a fair coin;
whether the realized marker fraction clears a threshold between the two
rates defines a balanced, capacity-sensitive sentence classification task.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ContractError, InputError, open_text

PAD_ID = 0
MASK_ID = 1
CLS_ID = 2
MARKER_ID = 3

PAD_TOKEN = "<pad>"
MASK_TOKEN = "<mask>"
CLS_TOKEN = "<cls>"
MARKER_TOKEN = "mrk"
RESERVED_IDS = {PAD_TOKEN: PAD_ID, MASK_TOKEN: MASK_ID, CLS_TOKEN: CLS_ID,
                MARKER_TOKEN: MARKER_ID}

# marker injection rates (fair coin per sentence) and the label threshold
# between them
MARKER_RATE_HI = 0.25
MARKER_RATE_LO = 0.05
MARKER_THRESHOLD = 0.15

# sentence lengths are uniform on [SENT_LEN_LO, SENT_LEN_HI]
SENT_LEN_LO = 4
SENT_LEN_HI = 20
MEAN_SENT_LEN = 0.5 * (SENT_LEN_LO + SENT_LEN_HI)

# per-language token budgets are log-uniform over this range
TOKEN_BUDGET_LO = 10_000
TOKEN_BUDGET_HI = 200_000

# successors per state in the sentence grammar
K_SUCC = 4

# floor on the Jaccard overlap of two same-family inventories
FAMILY_OVERLAP = 0.5

FAMILIES = frozenset({
    "Afro-Asiatic", "Austro-Asiatic", "Austronesian", "Constructed language",
    "Dravidian", "Indo-European", "Japonic", "Kartvelian", "Koreanic",
    "Kra-Dai", "Language isolate", "Niger-Congo", "Sino-Tibetan", "Turkic",
    "Uralic", "Missing",
})

_RESERVED = re.compile(r"^<.*>$")


def _seed_key(seed, salt: int) -> list[int]:
    """Entropy key for a batch stream; seed may be an int or a sequence."""
    return [int(s) for s in np.atleast_1d(seed)] + [salt]


@dataclass(frozen=True)
class LanguageSpec:
    """One language: id, family label, sentence count, grammar seed, inventory."""

    id: str
    family: str
    corpus_size: int
    grammar_seed: int
    token_inventory: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id or "," in self.id or self.id != self.id.strip():
            raise InputError(f"bad language id {self.id!r}")
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r} for language {self.id}")
        if self.corpus_size < 1:
            raise InputError(f"corpus_size must be >= 1, got {self.corpus_size}")
        for tok in self.token_inventory:
            if not tok or _RESERVED.match(tok) or any(c.isspace() for c in tok):
                raise InputError(f"bad inventory token {tok!r} in language {self.id}")


def _family_slug(family: str) -> str:
    return "".join(c for c in family.lower() if c.isalnum())


def build_inventories(specs, inventory_size: int = 40):
    """Fill inventories so same-family Jaccard overlap is >= FAMILY_OVERLAP.

    Every language gets the same inventory size n: s family-shared tokens
    plus n - s of its own, with s = ceil(2 n J / (1 + J)) so that the
    pairwise Jaccard s / (2n - s) clears the floor J.
    """
    if inventory_size < 2:
        raise ContractError("inventory_size must be >= 2")
    shared = math.ceil(2.0 * inventory_size * FAMILY_OVERLAP / (1.0 + FAMILY_OVERLAP))
    shared = min(shared, inventory_size - 1)
    own = inventory_size - shared
    out = []
    for spec in specs:
        slug = _family_slug(spec.family)
        inventory = tuple(f"{slug}_s{j:03d}" for j in range(shared))
        inventory += tuple(f"{spec.id}_w{j:03d}" for j in range(own))
        out.append(replace(spec, token_inventory=inventory))
    return out


def default_language_specs(seed: int = 11) -> list[LanguageSpec]:
    """Desk-scale default: 8 languages over 4 families, log-uniform budgets."""
    codes = [("en", "Indo-European"), ("de", "Indo-European"),
             ("ar", "Afro-Asiatic"), ("he", "Afro-Asiatic"),
             ("tr", "Turkic"), ("kk", "Turkic"),
             ("fi", "Uralic"), ("hu", "Uralic")]
    rng = np.random.default_rng([seed, 0])
    specs = []
    for i, (code, family) in enumerate(codes):
        budget = math.exp(rng.uniform(math.log(TOKEN_BUDGET_LO), math.log(TOKEN_BUDGET_HI)))
        size = max(1, int(round(budget / MEAN_SENT_LEN)))
        specs.append(LanguageSpec(code, family, size, int(rng.integers(1, 2 ** 31)) + i))
    return build_inventories(specs)


def build_vocab(specs) -> dict[str, int]:
    """Specials, the marker, per-language tags, then the inventory union."""
    vocab = dict(RESERVED_IDS)
    for spec in sorted(specs, key=lambda s: s.id):
        vocab[f"<{spec.id}>"] = len(vocab)
    for tok in sorted({t for spec in specs for t in spec.token_inventory}):
        if tok in vocab:
            raise InputError(f"inventory token {tok!r} collides with a reserved token")
        vocab[tok] = len(vocab)
    return vocab


@dataclass
class Corpus:
    """Per-language sentences as id arrays, plus the vocabulary that maps them."""

    specs: list[LanguageSpec]
    vocab: dict[str, int]
    sentences: dict[str, list[np.ndarray]]

    def languages(self) -> list[str]:
        return sorted(self.sentences)

    def content_ids(self) -> np.ndarray:
        """Ids eligible as random-replacement targets: every non-reserved token."""
        return np.array(sorted(i for t, i in self.vocab.items() if not _RESERVED.match(t)),
                        dtype=np.int64)

    def save(self, root):
        os.makedirs(root, exist_ok=True)
        inverse = {i: t for t, i in self.vocab.items()}
        with open(os.path.join(root, "languages.csv"), "w") as f:
            f.write("id,family,size,seed\n")
            for spec in sorted(self.specs, key=lambda s: s.id):
                f.write(f"{spec.id},{spec.family},{spec.corpus_size},{spec.grammar_seed}\n")
        with open(os.path.join(root, "vocab.tsv"), "w") as f:
            for tok, idx in sorted(self.vocab.items(), key=lambda kv: kv[1]):
                f.write(f"{tok}\t{idx}\n")
        for lang, rows in self.sentences.items():
            with open(os.path.join(root, f"{lang}.txt"), "w") as f:
                for row in rows:
                    f.write(" ".join(inverse[int(i)] for i in row) + "\n")

    @classmethod
    def load(cls, root):
        """Read a corpus that save wrote; only generation reads inventories, so specs get none."""
        vocab_path = os.path.join(root, "vocab.tsv")
        if not os.path.exists(vocab_path):
            raise InputError(f"no vocabulary file at {vocab_path}")
        vocab: dict[str, int] = {}
        id_lines: dict[int, int] = {}  # id -> the line that lists it
        with open_text(vocab_path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    tok, idx = line.split("\t")
                    idx = int(idx)
                except ValueError:
                    raise InputError(f"{vocab_path}:{lineno}: expected token<TAB>index") from None
                if tok in vocab:
                    raise InputError(f"{vocab_path}:{lineno}: second row for token {tok!r}")
                if idx < 0 or idx in id_lines:
                    raise InputError(f"{vocab_path}:{lineno}: id {idx} negative or listed twice")
                # the code hard-codes ids 0..3 for the reserved tokens
                reserved = RESERVED_IDS.get(tok)
                if (reserved is not None or idx < len(RESERVED_IDS)) and reserved != idx:
                    raise InputError(f"{vocab_path}:{lineno}: {tok!r} at id {idx}; ids 0..3 are "
                                     f"{', '.join(RESERVED_IDS)} in that order")
                vocab[tok] = idx
                id_lines[idx] = lineno
        # n distinct non-negative ids are 0..n-1 exactly when none reaches n
        gap = max(id_lines, default=-1)
        if gap >= len(id_lines):
            raise InputError(f"{vocab_path}:{id_lines[gap]}: id {gap} leaves a gap; "
                             f"ids must run 0..{len(id_lines) - 1}")
        if len(vocab) < len(RESERVED_IDS):
            raise InputError(f"{vocab_path}: no row for {list(RESERVED_IDS)[len(vocab)]}")
        rows_by_lang: dict[str, list[np.ndarray]] = {}
        specs = []
        langs_path = os.path.join(root, "languages.csv")
        with open_text(langs_path) as f:
            header = f.readline().strip()
            if header != "id,family,size,seed":
                raise InputError(f"{langs_path}:1: expected header id,family,size,seed, "
                                 f"got {header!r}")
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                try:
                    lang, family, size, seed = line.split(",")
                    size, seed = int(size), int(seed)
                except ValueError:
                    raise InputError(f"{langs_path}:{lineno}: expected id,family,size,seed "
                                     "with integer size and seed") from None
                if lang in rows_by_lang:
                    raise InputError(f"{langs_path}:{lineno}: second row for language {lang!r}")
                rows = []
                text_path = os.path.join(root, f"{lang}.txt")
                with open_text(text_path) as g:
                    for text_lineno, sent in enumerate(g, 1):
                        toks = sent.split()
                        try:
                            rows.append(np.array([vocab[t] for t in toks], dtype=np.int64))
                        except KeyError as e:
                            raise InputError(f"{text_path}:{text_lineno}: token {e.args[0]!r} "
                                             "not in vocabulary") from None
                if len(rows) != size:
                    raise InputError(f"{langs_path}:{lineno}: size {size} for {lang!r}, but "
                                     f"{text_path} has {len(rows)} rows")
                specs.append(LanguageSpec(lang, family, size, seed))
                rows_by_lang[lang] = rows
        return cls(specs, vocab, rows_by_lang)


def _gen_language(spec: LanguageSpec, vocab: dict[str, int], seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, spec.grammar_seed])
    ids = np.array([vocab[t] for t in spec.token_inventory], dtype=np.int64)
    n = len(ids)
    k = min(K_SUCC, n)
    succ = np.stack([rng.choice(n, size=k, replace=False) for _ in range(n)])
    probs = rng.dirichlet(np.ones(k), size=n)
    # Generator.choice(k, p=row) draws one double u and returns
    # searchsorted(cumsum(row) / cumsum(row)[-1], u, side="right"); the same
    # cdfs, built once, and one draw per token keep the random stream as it was
    cdfs = probs.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    cdfs = cdfs.tolist()
    succ = succ.tolist()
    ids = ids.tolist()
    rows = []
    for _ in range(spec.corpus_size):
        length = int(rng.integers(SENT_LEN_LO, SENT_LEN_HI + 1))
        walk = np.empty(length, dtype=np.int64)
        state = int(rng.integers(n))
        for j, u in enumerate(rng.random(length).tolist()):
            walk[j] = ids[state]
            state = succ[state][bisect_right(cdfs[state], u)]
        rate = MARKER_RATE_HI if rng.random() < 0.5 else MARKER_RATE_LO
        walk[rng.random(length) < rate] = MARKER_ID
        rows.append(walk)
    return rows


def gen_corpus(specs, seed: int = 0) -> Corpus:
    """Generate every language's sentences from its seeded grammar."""
    specs = list(specs)
    if not specs:
        raise InputError("gen_corpus: no language specs supplied")
    ids = [spec.id for spec in specs]
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate language ids in {ids}")
    if any(not spec.token_inventory for spec in specs):
        specs = build_inventories(specs)
    vocab = build_vocab(specs)
    # per-language streams are seeded independently, so generation order
    # does not matter and languages could be generated in parallel
    sentences = {spec.id: _gen_language(spec, vocab, seed) for spec in specs}
    return Corpus(specs, vocab, sentences)


@dataclass
class MLMBatch:
    """Masked rows with their gold ids and per-row language."""

    tokens: np.ndarray
    mask_positions: np.ndarray
    gold_ids: np.ndarray
    languages: tuple[str, ...]
    pad_id: int = PAD_ID


def _mask_row(tokens, row, length, rng, mask_rate, content_ids):
    hit = np.flatnonzero(rng.random(length) < mask_rate)
    if hit.size == 0:
        hit = np.array([rng.integers(length)])
    for j in hit:
        u = rng.random()
        if u < 0.8:
            tokens[row, j] = MASK_ID
        elif u < 0.9:
            tokens[row, j] = content_ids[rng.integers(len(content_ids))]
    return hit


@dataclass(frozen=True, eq=False)
class MLMStream:
    """``n_batches`` masked batches, drawn one at a time as a pass reaches them.

    Every pass opens its own generator on ``key``, so each pass yields the
    same batches and holds only the current one.  ``pool`` is the
    (language, sentence) list rows are picked from.
    """

    pool: list = field(repr=False)
    content_ids: np.ndarray = field(repr=False)
    n_batches: int
    batch_size: int
    seq_len: int
    mask_rate: float
    key: list

    def __len__(self) -> int:
        return self.n_batches

    def __iter__(self):
        rng = np.random.default_rng(self.key)
        shape = (self.batch_size, self.seq_len)
        for _ in range(self.n_batches):
            picks = rng.integers(len(self.pool), size=self.batch_size)
            tokens = np.full(shape, PAD_ID, dtype=np.int64)
            gold = np.full(shape, PAD_ID, dtype=np.int64)
            mask = np.zeros(shape, dtype=bool)
            langs = []
            for r, p in enumerate(picks):
                lang, row = self.pool[p]
                length = min(len(row), self.seq_len)
                tokens[r, :length] = row[:length]
                gold[r, :length] = row[:length]
                mask[r, _mask_row(tokens, r, length, rng, self.mask_rate,
                                  self.content_ids)] = True
                langs.append(lang)
            yield MLMBatch(tokens, mask, gold, tuple(langs))


def mlm_batches(corpus: Corpus, n_batches: int, batch_size: int, seq_len: int,
                mask_rate: float = 0.15, seed: int = 0,
                languages=None) -> MLMStream:
    """Masked batches, drawn on demand; rows mix languages in proportion to corpus size.

    Per masked position: 80% mask token, 10% random content token, 10% left
    unchanged.  Every row gets at least one mask.  Sentences shorter than
    two tokens are skipped.  Bad arguments raise here, not at the first batch.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ContractError(f"mask_rate must be in (0, 1), got {mask_rate}")
    if n_batches < 1 or batch_size < 1 or seq_len < 2:
        raise ContractError("need n_batches >= 1, batch_size >= 1, seq_len >= 2")
    if languages is None:
        languages = corpus.languages()
    pool: list[tuple[str, np.ndarray]] = []
    for lang in languages:
        if lang not in corpus.sentences:
            raise InputError(f"unknown language {lang!r}")
        pool.extend((lang, row) for row in corpus.sentences[lang] if len(row) >= 2)
    if not pool:
        raise InputError("no usable sentences after skipping short ones")
    return MLMStream(pool, corpus.content_ids(), n_batches, batch_size, seq_len, mask_rate,
                     _seed_key(seed, 1))


def marker_fraction(rows):
    """Fraction of marker tokens among real (non-pad, non-cls) positions.

    Counts along the last axis, so a matrix of rows gives one fraction per
    row; a row without real positions gives 0.
    """
    rows = np.asarray(rows)
    real = ((rows != PAD_ID) & (rows != CLS_ID)).sum(axis=-1)
    markers = (rows == MARKER_ID).sum(axis=-1)
    return np.where(real > 0, markers / np.maximum(real, 1), 0.0)[()]


def probe_label(rows):
    """1 when the realized marker fraction clears the threshold, per row."""
    return (marker_fraction(rows) >= MARKER_THRESHOLD).astype(np.int64)[()]


@dataclass
class ProbeBatch:
    """Classification rows: cls-prefixed tokens, binary labels, languages."""

    tokens: np.ndarray
    labels: np.ndarray
    languages: tuple[str, ...]
    pad_id: int = PAD_ID


@dataclass
class ProbeSplits:
    train: list[ProbeBatch]
    dev: list[ProbeBatch]
    test: list[ProbeBatch]


def _probe_rows(sents, seq_len) -> np.ndarray:
    """Non-empty sentences as cls-prefixed rows, padded or truncated to seq_len."""
    sents = [sent for sent in sents if len(sent)]
    lengths = np.array([len(sent) for sent in sents], dtype=np.int64)
    rows = np.full((len(sents), seq_len), PAD_ID, dtype=np.int64)
    rows[:, 0] = CLS_ID
    if sents:
        cols = np.arange(seq_len - 1)
        keep = cols < np.minimum(lengths, seq_len - 1)[:, None]
        starts = np.cumsum(lengths) - lengths
        rows[:, 1:][keep] = np.concatenate(sents)[(starts[:, None] + cols)[keep]]
    return rows


def probe_batches(corpus: Corpus, batch_size: int, seq_len: int, seed: int = 0) -> ProbeSplits:
    """Split labeled rows 70/15/15 per language and batch each split.

    A label reads the truncated row, so it stays a deterministic function of
    exactly what the model sees.
    """
    if batch_size < 1 or seq_len < 2:
        raise ContractError("need batch_size >= 1 and seq_len >= 2")
    if not corpus.sentences:
        raise InputError("probe_batches: the corpus has no languages")
    rng = np.random.default_rng(_seed_key(seed, 2))
    parts: dict[str, list] = {"train": [], "dev": [], "test": []}
    for lang in corpus.languages():
        rows = _probe_rows(corpus.sentences[lang], seq_len)
        order = rng.permutation(len(rows))
        n_train = int(round(0.7 * len(rows)))
        n_dev = int(round(0.15 * len(rows)))
        for name, idx in zip(parts, np.split(order, [n_train, n_train + n_dev])):
            parts[name].append((rows[idx], np.full(idx.size, lang)))
    out = {}
    for name, chunks in parts.items():
        tokens = np.concatenate([c[0] for c in chunks])
        langs = np.concatenate([c[1] for c in chunks])
        order = rng.permutation(len(tokens))
        tokens, langs = tokens[order], langs[order]
        labels = probe_label(tokens)
        out[name] = [ProbeBatch(tokens[i: i + batch_size], labels[i: i + batch_size],
                                tuple(langs[i: i + batch_size].tolist()))
                     for i in range(0, len(tokens), batch_size)]
    return ProbeSplits(out["train"], out["dev"], out["test"])
