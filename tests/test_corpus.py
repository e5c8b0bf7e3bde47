"""Corpus generation, masking statistics, and probe task tests."""

import hashlib
import math
import re
from collections.abc import Iterable, Sized

import numpy as np
import pytest

from prunelab.corpus import (CLS_ID, FAMILIES, MARKER_ID, MARKER_THRESHOLD,
                             MASK_ID, MEAN_SENT_LEN, PAD_ID, SENT_LEN_HI,
                             SENT_LEN_LO, TOKEN_BUDGET_HI, TOKEN_BUDGET_LO,
                             Corpus, LanguageSpec, build_inventories,
                             build_vocab, default_language_specs, gen_corpus,
                             marker_fraction, mlm_batches, probe_batches,
                             probe_label)
from prunelab.exceptions import ContractError, InputError
from prunelab.tensor import Tensor
from prunelab.encoder import mlm_loss


def small_specs(size=120):
    specs = [LanguageSpec("aa", "Turkic", size, 7),
             LanguageSpec("bb", "Turkic", size, 8),
             LanguageSpec("cc", "Uralic", size, 9)]
    return build_inventories(specs, inventory_size=20)


def jaccard(a, b):
    a, b = set(a), set(b)
    return len(a & b) / len(a | b)


def test_default_specs_families_and_ids():
    specs = default_language_specs()
    assert len(specs) == 8
    assert len({s.id for s in specs}) == 8
    assert all(s.family in FAMILIES for s in specs)
    families = {}
    for s in specs:
        families.setdefault(s.family, []).append(s.id)
    assert len(families) == 4
    assert all(len(v) == 2 for v in families.values())
    assert all(s.corpus_size >= 1 and s.token_inventory for s in specs)


def test_budgets_follow_log_uniform_sampler():
    # the size histogram should match a log-uniform draw over the budget range
    logs = []
    for seed in range(50):
        for s in default_language_specs(seed=seed):
            logs.append(math.log(s.corpus_size * MEAN_SENT_LEN))
    logs = np.array(logs)
    lo, hi = math.log(TOKEN_BUDGET_LO), math.log(TOKEN_BUDGET_HI)
    # rounding to whole sentences wiggles each budget by under one sentence
    assert logs.min() >= lo - 0.01 and logs.max() <= hi + 0.01
    mid = 0.5 * (lo + hi)
    below = float((logs < mid).mean())
    assert 0.35 < below < 0.65
    quarter = 0.25 * (hi - lo)
    assert (logs < lo + quarter).any() and (logs > hi - quarter).any()


def test_family_overlap_floor():
    specs = default_language_specs()
    for a in specs:
        for b in specs:
            if a.id >= b.id:
                continue
            j = jaccard(a.token_inventory, b.token_inventory)
            if a.family == b.family:
                assert j >= 0.5
            else:
                assert j == 0.0


def test_spec_validation():
    with pytest.raises(InputError):
        LanguageSpec("aa", "NotAFamily", 5, 1)
    with pytest.raises(InputError):
        LanguageSpec("aa", "Turkic", 0, 1)
    with pytest.raises(InputError):
        LanguageSpec("a,a", "Turkic", 5, 1)
    with pytest.raises(InputError):
        LanguageSpec("aa", "Turkic", 5, 1, ("two words",))


def test_gen_corpus_reproducible_and_seed_sensitive():
    specs = small_specs(size=40)
    c1 = gen_corpus(specs, seed=5)
    c2 = gen_corpus(specs, seed=5)
    c3 = gen_corpus(specs, seed=6)
    assert c1.vocab == c2.vocab
    for lang in c1.languages():
        assert all(np.array_equal(a, b) for a, b in zip(c1.sentences[lang], c2.sentences[lang]))
    assert any(not np.array_equal(a, b)
               for lang in c1.languages()
               for a, b in zip(c1.sentences[lang], c3.sentences[lang]))


def test_gen_corpus_rejects_duplicate_ids():
    specs = [LanguageSpec("aa", "Turkic", 5, 1), LanguageSpec("aa", "Uralic", 5, 2)]
    with pytest.raises(InputError):
        gen_corpus(specs, seed=0)


def test_vocab_layout():
    specs = small_specs()
    vocab = build_vocab(specs)
    assert vocab["<pad>"] == PAD_ID
    assert vocab["<mask>"] == MASK_ID
    assert vocab["<cls>"] == CLS_ID
    assert vocab["mrk"] == MARKER_ID
    for spec in specs:
        assert f"<{spec.id}>" in vocab
        assert all(t in vocab for t in spec.token_inventory)
    assert sorted(vocab.values()) == list(range(len(vocab)))


def test_sentence_lengths_and_corpus_sizes():
    corpus = gen_corpus(small_specs(size=60), seed=3)
    for spec in corpus.specs:
        rows = corpus.sentences[spec.id]
        assert len(rows) == spec.corpus_size
        assert all(SENT_LEN_LO <= len(r) <= SENT_LEN_HI for r in rows)


def test_marker_rates_are_bimodal():
    corpus = gen_corpus(small_specs(size=400), seed=4)
    fracs = np.array([marker_fraction(r) for lang in corpus.languages()
                      for r in corpus.sentences[lang]])
    # fair coin between the two rates: mean near their midpoint, and both
    # sides of the threshold well populated
    assert abs(fracs.mean() - 0.15) < 0.02
    over = float((fracs >= MARKER_THRESHOLD).mean())
    assert 0.3 < over < 0.7


def test_save_load_round_trip(tmp_path):
    corpus = gen_corpus(small_specs(size=50), seed=9)
    corpus.save(tmp_path)
    loaded = Corpus.load(tmp_path)
    assert loaded.vocab == corpus.vocab
    for lang in corpus.languages():
        assert all(np.array_equal(a, b)
                   for a, b in zip(corpus.sentences[lang], loaded.sentences[lang]))
    by_id = {s.id: s for s in loaded.specs}
    for spec in corpus.specs:
        got = by_id[spec.id]
        assert (got.family, got.corpus_size, got.grammar_seed) == (
            spec.family, spec.corpus_size, spec.grammar_seed)
    a = mlm_batches(corpus, n_batches=3, batch_size=4, seq_len=12, seed=2)
    b = mlm_batches(loaded, n_batches=3, batch_size=4, seq_len=12, seed=2)
    for x, y in zip(a, b):
        assert np.array_equal(x.tokens, y.tokens)
        assert np.array_equal(x.mask_positions, y.mask_positions)


def test_file_formats(tmp_path):
    corpus = gen_corpus(small_specs(size=10), seed=1)
    corpus.save(tmp_path)
    lines = (tmp_path / "languages.csv").read_text().splitlines()
    assert lines[0] == "id,family,size,seed"
    assert lines[1].startswith("aa,Turkic,10,")
    vocab_lines = (tmp_path / "vocab.tsv").read_text().splitlines()
    assert vocab_lines[0] == "<pad>\t0"
    assert vocab_lines[3] == "mrk\t3"
    text = (tmp_path / "aa.txt").read_text().splitlines()
    assert len(text) == 10
    assert all(tok in corpus.vocab for tok in text[0].split())


@pytest.mark.parametrize("name, lineno, text", [
    ("vocab.tsv", 4, "mrk 3"),
    ("vocab.tsv", 2, "<mask>\tone"),
    ("languages.csv", 2, "aa,Turkic,many,7"),
    ("languages.csv", 3, "bb,Turkic,10"),
    ("languages.csv", 1, "id,family,size"),
])
def test_malformed_corpus_files_name_path_and_line(tmp_path, name, lineno, text):
    gen_corpus(small_specs(size=10), seed=1).save(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = text + "\n"
    path.write_text("".join(lines))
    with pytest.raises(InputError, match=re.escape(f"{path}:{lineno}: expected")):
        Corpus.load(tmp_path)


def test_unknown_sentence_token_names_path_and_line(tmp_path):
    gen_corpus(small_specs(size=10), seed=1).save(tmp_path)
    path = tmp_path / "bb.txt"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "zzz " + lines[4]
    path.write_text("".join(lines))
    with pytest.raises(InputError, match=re.escape(f"{path}:5: token 'zzz' not in vocabulary")):
        Corpus.load(tmp_path)


def test_repeated_language_row_names_path_and_line(tmp_path):
    gen_corpus(small_specs(size=10), seed=1).save(tmp_path)
    path = tmp_path / "languages.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[-1:]))
    with pytest.raises(InputError, match=re.escape(
            f"{path}:{len(lines) + 1}: second row for language 'cc'")):
        Corpus.load(tmp_path)


@pytest.mark.parametrize("lineno, edit, fault", [
    (6, lambda rows: rows[5].__setitem__(1, str(int(rows[5][1]) + 100)), "leaves a gap"),
    (7, lambda rows: rows[6].__setitem__(0, rows[5][0]), "second row for token"),
    (7, lambda rows: rows[6].__setitem__(1, rows[5][1]), "listed twice"),
    (7, lambda rows: rows[6].__setitem__(1, "-1"), "negative"),
])
def test_vocab_ids_run_from_0_once_each(tmp_path, lineno, edit, fault):
    gen_corpus(small_specs(size=10), seed=1).save(tmp_path)
    path = tmp_path / "vocab.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    with pytest.raises(InputError, match=re.escape(f"{path}:{lineno}: ") + ".*" + fault):
        Corpus.load(tmp_path)


def test_reserved_tokens_keep_their_ids(tmp_path):
    gen_corpus(small_specs(size=10), seed=1).save(tmp_path)
    path = tmp_path / "vocab.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    # swap the ids of <mask> (line 2) and the last content token
    rows[1][1], rows[-1][1] = rows[-1][1], rows[1][1]
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    with pytest.raises(InputError, match=re.escape(f"{path}:2: '<mask>' at id {rows[1][1]}")):
        Corpus.load(tmp_path)
    path.write_text("<pad>\t0\n<mask>\t1\n")
    with pytest.raises(InputError, match=re.escape(f"{path}: no row for <cls>")):
        Corpus.load(tmp_path)


def test_language_size_matches_its_text_rows(tmp_path):
    gen_corpus(small_specs(size=10), seed=1).save(tmp_path)
    path = tmp_path / "languages.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace("bb,Turkic,10,", "bb,Turkic,5000,")
    path.write_text("".join(lines))
    with pytest.raises(InputError, match=re.escape(
            f"{path}:3: size 5000 for 'bb', but {tmp_path / 'bb.txt'} has 10 rows")):
        Corpus.load(tmp_path)


def test_mask_counts_match_binomial_oracle():
    corpus = gen_corpus(small_specs(size=300), seed=12)
    p = 0.15
    out = mlm_batches(corpus, n_batches=40, batch_size=16, seq_len=24, mask_rate=p, seed=7)
    total = 0
    expected = 0.0
    var_bound = 0.0
    for batch in out:
        real = batch.gold_ids != PAD_ID
        lengths = real.sum(axis=1)
        total += int(batch.mask_positions.sum())
        # forcing one mask when the binomial draw is empty adds (1-p)^L
        expected += float((lengths * p + (1 - p) ** lengths).sum())
        var_bound += float((lengths * p).sum()) + len(lengths) * 0.25
    assert abs(total - expected) < 6.0 * math.sqrt(var_bound)


def test_mask_split_follows_eighty_ten_ten():
    corpus = gen_corpus(small_specs(size=300), seed=13)
    out = mlm_batches(corpus, n_batches=60, batch_size=16, seq_len=24, seed=8)
    as_mask = changed = unchanged = 0
    for batch in out:
        m = batch.mask_positions
        tok, gold = batch.tokens[m], batch.gold_ids[m]
        as_mask += int((tok == MASK_ID).sum())
        changed += int(((tok != MASK_ID) & (tok != gold)).sum())
        unchanged += int(((tok != MASK_ID) & (tok == gold)).sum())
    n = as_mask + changed + unchanged
    assert abs(as_mask / n - 0.8) < 0.03
    # a random replacement can collide with the original token, so the
    # changed bucket sits slightly under 10%
    assert abs(changed / n - 0.1) < 0.03
    assert abs(unchanged / n - 0.1) < 0.03


def test_mask_rows_and_positions_are_well_formed():
    corpus = gen_corpus(small_specs(size=80), seed=14)
    out = mlm_batches(corpus, n_batches=10, batch_size=8, seq_len=10, seed=9)
    for batch in out:
        assert batch.mask_positions.sum(axis=1).min() >= 1
        # masks only land on real positions
        assert np.all(batch.gold_ids[batch.mask_positions] != PAD_ID)
        # positions outside the mask are passed through untouched
        keep = ~batch.mask_positions
        assert np.array_equal(batch.tokens[keep], batch.gold_ids[keep])
        assert len(batch.languages) == batch.tokens.shape[0]


def test_short_sentences_are_skipped():
    corpus = gen_corpus(small_specs(size=30), seed=15)
    corpus.sentences["bb"] = [np.array([MARKER_ID], dtype=np.int64), np.array([], dtype=np.int64)]
    out = mlm_batches(corpus, n_batches=20, batch_size=4, seq_len=8, seed=1)
    assert isinstance(out, Sized) and isinstance(out, Iterable) and len(out) == 20
    assert all("bb" not in b.languages for b in out)
    with pytest.raises(InputError, match="no usable sentences"):
        mlm_batches(corpus, n_batches=1, batch_size=4, seq_len=8, languages=["bb"])


def test_mlm_batches_language_restriction_and_errors():
    corpus = gen_corpus(small_specs(size=30), seed=16)
    out = mlm_batches(corpus, n_batches=4, batch_size=6, seq_len=8, seed=3, languages=["bb"])
    assert all(set(b.languages) == {"bb"} for b in out)
    with pytest.raises(InputError):
        mlm_batches(corpus, n_batches=1, batch_size=2, seq_len=8, languages=["zz"])
    with pytest.raises(ContractError):
        mlm_batches(corpus, n_batches=1, batch_size=2, seq_len=8, mask_rate=0.0)
    with pytest.raises(ContractError):
        mlm_batches(corpus, n_batches=0, batch_size=2, seq_len=8)


# sha256 over every batch's tokens, mask and gold ids, recorded when
# mlm_batches still built its batches as a list
STREAM_DIGESTS = {
    "mixed": "fe4719bd8604f068f343bd6947729823e18bdb7b9de5b2710123fd8574f02c13",
    "bb": "3f9ca94b7e2ec0f5d2817d753294b13ea1049dfbcf44b8a10940dec077a280b8",
}


def test_mlm_batches_stream_contract():
    corpus = gen_corpus(small_specs(size=30), seed=22)
    # bad arguments raise at the call, before any batch is drawn
    for kwargs, error in ((dict(mask_rate=1.0), ContractError),
                          (dict(n_batches=0), ContractError),
                          (dict(batch_size=0), ContractError),
                          (dict(seq_len=1), ContractError),
                          (dict(languages=["zz"]), InputError)):
        with pytest.raises(error):
            mlm_batches(corpus, **{"n_batches": 5, "batch_size": 4, "seq_len": 10, **kwargs})
    for name, kwargs in (("mixed", dict(seed=23)), ("bb", dict(seed=[5, 9, 1], languages=["bb"]))):
        stream = mlm_batches(corpus, n_batches=5, batch_size=4, seq_len=10, **kwargs)
        assert len(stream) == 5
        passes = [list(stream), list(stream)]
        digest = hashlib.sha256()
        for a, b in zip(*passes, strict=True):
            for x, y in ((a.tokens, b.tokens), (a.mask_positions, b.mask_positions),
                         (a.gold_ids, b.gold_ids)):
                assert np.array_equal(x, y)
            assert a.languages == b.languages
            digest.update(a.tokens.tobytes() + a.mask_positions.tobytes() + a.gold_ids.tobytes())
        assert len(passes[0]) == 5
        assert digest.hexdigest() == STREAM_DIGESTS[name]


def test_marker_fraction_and_label_by_hand():
    row = np.array([CLS_ID, MARKER_ID, 9, 9, 9, PAD_ID, PAD_ID])
    assert marker_fraction(row) == 0.25
    assert probe_label(row) == 1
    assert probe_label(np.array([CLS_ID, 9, 9, 9, 9, 9, 9, 9])) == 0
    # threshold is inclusive
    assert probe_label(np.array([MARKER_ID, 9, 9, 9] * 5)) == 1


def test_probe_labels_roughly_balanced():
    corpus = gen_corpus(small_specs(size=500), seed=17)
    splits = probe_batches(corpus, batch_size=32, seq_len=24, seed=4)
    labels = np.concatenate([b.labels for part in (splits.train, splits.dev, splits.test)
                             for b in part])
    mean = float(labels.mean())
    assert abs(mean - 0.5) < 0.08


def test_probe_splits_cover_rows_and_languages():
    corpus = gen_corpus(small_specs(size=60), seed=18)
    splits = probe_batches(corpus, batch_size=16, seq_len=12, seed=5)
    counts = {}
    for name, part in (("train", splits.train), ("dev", splits.dev), ("test", splits.test)):
        n = sum(b.tokens.shape[0] for b in part)
        counts[name] = n
        langs = {l for b in part for l in b.languages}
        assert langs == set(corpus.languages())
        for b in part:
            assert np.all(b.tokens[:, 0] == CLS_ID)
            assert set(np.unique(b.labels)) <= {0, 1}
    total = sum(len(corpus.sentences[l]) for l in corpus.languages())
    assert sum(counts.values()) == total
    assert abs(counts["train"] - 0.7 * total) <= 3
    again = probe_batches(corpus, batch_size=16, seq_len=12, seed=5)
    assert all(np.array_equal(a.tokens, b.tokens) and np.array_equal(a.labels, b.labels)
               for a, b in zip(splits.train, again.train))


def test_probe_batches_validation():
    corpus = gen_corpus(small_specs(size=10), seed=19)
    with pytest.raises(ContractError):
        probe_batches(corpus, batch_size=0, seq_len=12)
    with pytest.raises(ContractError):
        probe_batches(corpus, batch_size=4, seq_len=1)
    with pytest.raises(InputError):
        probe_batches(Corpus(corpus.specs, corpus.vocab, {}), batch_size=4, seq_len=12)


def test_unmasked_logits_never_reach_the_loss():
    corpus = gen_corpus(small_specs(size=20), seed=20)
    batch = next(iter(mlm_batches(corpus, n_batches=1, batch_size=4, seq_len=8, seed=6)))
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(4, 8, len(corpus.vocab)))
    base = mlm_loss(Tensor(raw), batch.mask_positions, batch.gold_ids).item()
    r, c = np.argwhere(~batch.mask_positions)[0]
    bumped = raw.copy()
    bumped[r, c] += 50.0
    after = mlm_loss(Tensor(bumped), batch.mask_positions, batch.gold_ids).item()
    assert after == base
