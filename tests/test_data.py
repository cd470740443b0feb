import numpy as np
import pytest

from clipforge.data import (
    BASE_LANGUAGE,
    BASE_WORDS,
    BOS_ID,
    COLORS,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CaptionedImage,
    Vocabulary,
    aesthetic_filter,
    choose_language,
    cipher_code,
    generate_synthetic_corpus,
    load_dataset,
    load_split,
    manifest_digest,
    pixel_batch,
    read_pixel_file,
    sample_epoch,
    save_dataset,
    save_split,
    split,
    tokenize,
)
from clipforge.errors import ConfigError, DatasetFormatError


def rec(i, score, langs=("eng_Latn",)):
    return CaptionedImage(
        id=f"r{i}",
        aesthetic_score=score,
        captions={lang: f"caption {i}" for lang in langs},
        pixels=np.zeros((8, 8, 3), dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# aesthetic filter
# ---------------------------------------------------------------------------

def test_filter_strict_inequality_at_threshold():
    records = [rec(0, 4.5), rec(1, 4.51), rec(2, 4.4999)]
    kept = aesthetic_filter(records)
    assert [r.id for r in kept] == ["r1"]


def test_filter_keeps_original_order():
    scores = [5.0, 1.0, 6.2, 4.5, 4.6, 2.2, 9.9, 0.1, 4.7, 3.3]
    records = [rec(i, s) for i, s in enumerate(scores)]
    kept = aesthetic_filter(records)
    expected = [r for r in records if r.aesthetic_score > 4.5]
    assert kept == expected
    assert len(kept) == 5


def test_filter_custom_threshold():
    records = [rec(i, float(i)) for i in range(5)]
    assert [r.id for r in aesthetic_filter(records, threshold=2.0)] == ["r3", "r4"]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_published_counts():
    train, val = split(list(range(106246)), 0.15, seed=0)
    assert len(val) == 15937
    assert len(train) == 90309


def test_split_half():
    train, val = split(list(range(10)), 0.5, seed=3)
    assert len(train) == 5 and len(val) == 5


def test_split_disjoint_exhaustive_and_deterministic():
    items = list(range(500))
    t1, v1 = split(items, 0.15, seed=9)
    t2, v2 = split(items, 0.15, seed=9)
    assert t1 == t2 and v1 == v2
    assert sorted(t1 + v1) == items
    t3, v3 = split(items, 0.15, seed=10)
    assert v3 != v1


def test_split_validates_inputs():
    with pytest.raises(ConfigError):
        split([1, 2], 0.0, seed=0)
    with pytest.raises(ConfigError):
        split([1, 2], 1.0, seed=0)
    with pytest.raises(DatasetFormatError):
        split([], 0.5, seed=0)


# ---------------------------------------------------------------------------
# epoch sampling
# ---------------------------------------------------------------------------

def test_single_language_always_chosen():
    records = [rec(i, 5.0) for i in range(20)]
    plan = sample_epoch(records, epoch=0, seed=1, languages=["eng_Latn"])
    assert set(plan.values()) == {"eng_Latn"}


def test_plan_deterministic_and_order_independent():
    langs = ("eng_Latn", "aab_Ciph", "aac_Ciph")
    records = [rec(i, 5.0, langs=langs) for i in range(30)]
    a = sample_epoch(records, epoch=5, seed=2, languages=langs)
    b = sample_epoch(list(reversed(records)), epoch=5, seed=2, languages=langs)
    assert a == b
    c = sample_epoch(records, epoch=6, seed=2, languages=langs)
    assert c != a


def test_choice_independent_of_language_listing_order():
    langs = ["b_Ciph", "a_Ciph", "c_Ciph"]
    assert choose_language("img1", langs, 0, 7) == choose_language("img1", sorted(langs), 0, 7)


def test_empty_language_set_rejected():
    with pytest.raises(ConfigError):
        sample_epoch([rec(0, 5.0)], epoch=0, seed=0, languages=[])


def test_language_counts_within_binomial_bounds():
    # one epoch, 201 languages over the published train count
    langs = ["eng_Latn"] + [f"x{i:03d}_Ciph" for i in range(200)]
    ids = [f"img{i:06d}" for i in range(90309)]
    counts = {}
    for rid in ids:
        lang = choose_language(rid, langs, 0, 4)
        counts[lang] = counts.get(lang, 0) + 1
    n, p = len(ids), 1.0 / len(langs)
    mu = n * p  # 449.3 per language
    sigma = (n * p * (1 - p)) ** 0.5
    values = np.array([counts.get(lang, 0) for lang in langs])
    assert values.sum() == n
    assert (np.abs(values - mu) <= 4 * sigma).all()


def test_per_pair_frequency_over_epochs():
    # bundled sampler seed; every (image, language) cell within 3 sigma
    langs = [f"l{i}" for i in range(8)]
    ids = [f"img{i:06d}" for i in range(50)]
    counts = {}
    for epoch in range(1000):
        for rid in ids:
            key = (rid, choose_language(rid, langs, epoch, 4))
            counts[key] = counts.get(key, 0) + 1
    n, p = 1000, 1.0 / 8
    mu, sigma = n * p, (n * p * (1 - p)) ** 0.5
    values = np.array([counts.get((rid, lang), 0) for rid in ids for lang in langs])
    assert (np.abs(values - mu) <= 3 * sigma).all()


# ---------------------------------------------------------------------------
# tokenizer and vocabulary
# ---------------------------------------------------------------------------

def small_vocab():
    return Vocabulary.from_tokens(["circle", "red", "small"])


def test_tokenize_empty_text():
    ids, length = tokenize("", small_vocab(), 6)
    assert length == 2
    assert list(ids) == [BOS_ID, EOS_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]


def test_tokenize_known_words():
    vocab = small_vocab()
    ids, length = tokenize("red circle", vocab, 6)
    assert length == 4
    assert list(ids[:4]) == [BOS_ID, vocab.id_of("red"), vocab.id_of("circle"), EOS_ID]
    assert list(ids[4:]) == [PAD_ID, PAD_ID]


def test_tokenize_truncates_keeping_frame():
    text = " ".join(["red"] * 100)
    ids, length = tokenize(text, small_vocab(), 16)
    assert length == 16
    assert ids[0] == BOS_ID and ids[15] == EOS_ID
    assert (ids[1:15] == small_vocab().id_of("red")).all()


def test_tokenize_unknown_and_case():
    vocab = small_vocab()
    ids, _ = tokenize("RED mystery", vocab, 6)
    assert ids[1] == vocab.id_of("red")
    assert ids[2] == UNK_ID


def test_tokenize_min_length_validated():
    with pytest.raises(ConfigError):
        tokenize("x", small_vocab(), 2)


def test_vocabulary_reserved_and_dense():
    vocab = Vocabulary.build(["red circle", "small red square"])
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    ids = sorted(vocab.token_to_id.values())
    assert ids == list(range(4, 4 + len(ids)))
    assert vocab.size == 4 + len(ids)


def test_vocabulary_serialization_roundtrip():
    vocab = Vocabulary.build(["red circle", "blue cross top"])
    again = Vocabulary.from_tokens(vocab.ordered_tokens())
    assert again.token_to_id == vocab.token_to_id


def test_vocabulary_splits_each_distinct_caption_once():
    lowered = []

    class Caption(str):  # hashes and compares as the plain string
        def lower(self):
            lowered.append(str(self))
            return super().lower()

    captions = [Caption("Red circle"), Caption("blue cross"), Caption("Red circle")] * 4
    vocab = Vocabulary.build(captions)
    assert sorted(lowered) == ["Red circle", "blue cross"]
    assert vocab.ordered_tokens() == ["blue", "circle", "cross", "red"]


def test_vocabulary_for_dataset_lists_every_word_in_sorted_order():
    ds = generate_synthetic_corpus(40, 3, image_size=16, seed=5)
    words = {w for r in ds.records for text in r.captions.values() for w in text.lower().split()}
    assert Vocabulary.for_dataset(ds).ordered_tokens() == sorted(words)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_corpus_identical_across_runs(tmp_path):
    a = generate_synthetic_corpus(40, 3, image_size=16, seed=5)
    b = generate_synthetic_corpus(40, 3, image_size=16, seed=5)
    save_dataset(a, tmp_path / "a")
    save_dataset(b, tmp_path / "b")
    assert (tmp_path / "a/manifest.tsv").read_bytes() == (tmp_path / "b/manifest.tsv").read_bytes()
    for record in a.records[:5]:
        assert (tmp_path / f"a/pixels/{record.id}.rgb").read_bytes() == (
            tmp_path / f"b/pixels/{record.id}.rgb"
        ).read_bytes()


def test_corpus_language_codes():
    ds = generate_synthetic_corpus(2, 4, image_size=16, seed=0)
    assert ds.languages == ["eng_Latn", "aab_Ciph", "aac_Ciph", "aad_Ciph"]
    assert cipher_code(26) == "aba_Ciph"


def test_cipher_is_invertible_to_base_caption():
    ds = generate_synthetic_corpus(30, 5, image_size=16, seed=3)
    for lang in ds.languages[1:]:
        inverse = {surface: base for base, surface in ds.ciphers[lang].items()}
        assert len(inverse) == len(BASE_WORDS)
        for record in ds.records:
            deciphered = " ".join(inverse[w] for w in record.captions[lang].split())
            assert deciphered == record.captions[BASE_LANGUAGE]


def test_cipher_tokens_never_collide_across_languages():
    ds = generate_synthetic_corpus(5, 6, image_size=16, seed=1)
    seen = set(BASE_WORDS)
    for lang in ds.languages[1:]:
        surfaces = set(ds.ciphers[lang].values())
        assert not (surfaces & seen)
        seen |= surfaces


def test_corpus_filter_fraction_near_two_thirds():
    ds = generate_synthetic_corpus(1000, 1, image_size=16, seed=0)
    kept = aesthetic_filter(ds.records)
    assert abs(len(kept) / 1000 - 2.0 / 3.0) <= 0.05


def test_corpus_equal_representation():
    ds = generate_synthetic_corpus(25, 4, image_size=16, seed=2)
    for record in ds.records:
        assert list(record.captions) == ds.languages
        assert all(record.captions.values())


def test_rendered_shape_sits_in_captioned_quadrant():
    ds = generate_synthetic_corpus(60, 1, image_size=32, seed=8)
    for record in ds.records:
        words = record.captions[BASE_LANGUAGE].split()
        color = COLORS[words[1]]
        mask = (record.pixels == np.asarray(color, dtype=np.uint8)).all(axis=2)
        assert mask.any(), record.captions
        ys, xs = np.nonzero(mask)
        assert (ys.mean() < 16) == (words[3] == "top")
        assert (xs.mean() < 16) == (words[4] == "left")


def test_corpus_validates_arguments():
    with pytest.raises(ConfigError):
        generate_synthetic_corpus(5, 0)
    with pytest.raises(ConfigError):
        generate_synthetic_corpus(5, 1, image_size=4)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def write_manifest(tmp_path, lines):
    (tmp_path / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_roundtrip_preserves_everything(tmp_path):
    ds = generate_synthetic_corpus(12, 3, image_size=16, seed=4)
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.languages == ds.languages
    assert len(loaded) == len(ds)
    for original, back in zip(ds.records, loaded.records):
        assert back.id == original.id
        assert back.aesthetic_score == original.aesthetic_score
        assert back.captions == original.captions
        assert np.array_equal(back.get_pixels(), original.pixels)


def test_loader_is_lazy_about_pixels(tmp_path):
    header = "id\taesthetic_score\tpixels\teng_Latn"
    rows = [f"img{i}\t5.0\tpixels/img{i}.rgb\tred circle" for i in range(5000)]
    write_manifest(tmp_path, [header] + rows)
    ds = load_dataset(tmp_path)  # pixel files do not exist; must not be touched
    assert len(ds) == 5000
    assert ds.records[0].pixels is None
    with pytest.raises(DatasetFormatError, match="pixels/img0.rgb"):
        ds.records[0].get_pixels()


def test_loader_rejects_missing_caption(tmp_path):
    header = "id\taesthetic_score\tpixels\teng_Latn\taab_Ciph"
    rows = ["img0\t5.0\tpixels/img0.rgb\tred circle\t"]
    write_manifest(tmp_path, [header] + rows)
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(tmp_path)
    assert "img0" in str(exc.value) and "aab_Ciph" in str(exc.value)


def test_loader_rejects_wrong_field_count(tmp_path):
    header = "id\taesthetic_score\tpixels\teng_Latn\taab_Ciph"
    rows = ["img0\t5.0\tpixels/img0.rgb\tred circle"]
    write_manifest(tmp_path, [header] + rows)
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(tmp_path)
    assert "img0" in str(exc.value)


def test_loader_rejects_duplicate_id(tmp_path):
    header = "id\taesthetic_score\tpixels\teng_Latn"
    rows = [
        "img0\t5.0\tpixels/img0.rgb\tred circle",
        "img0\t5.1\tpixels/img0.rgb\tblue square",
    ]
    write_manifest(tmp_path, [header] + rows)
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(tmp_path)
    assert "img0" in str(exc.value)


def test_loader_rejects_bad_scores(tmp_path):
    header = "id\taesthetic_score\tpixels\teng_Latn"
    write_manifest(tmp_path, [header, "img0\tnot-a-number\tp.rgb\tred"])
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path)
    write_manifest(tmp_path, [header, "img0\tnan\tp.rgb\tred"])
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path)


def test_loader_rejects_bad_headers(tmp_path):
    write_manifest(tmp_path, ["id\taesthetic_score\tpixels"])
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path)
    write_manifest(tmp_path, ["id\taesthetic_score\tpixels\teng_Latn\teng_Latn"])
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path)
    write_manifest(tmp_path, ["wrong\theader\trow\teng_Latn"])
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "nowhere")


def test_pixel_file_size_validation(tmp_path):
    bad = tmp_path / "bad.rgb"
    bad.write_bytes(b"\x00" * 100)  # not a multiple of 3
    with pytest.raises(DatasetFormatError):
        read_pixel_file(bad)
    bad.write_bytes(b"\x00" * (5 * 7 * 3))  # not square
    with pytest.raises(DatasetFormatError):
        read_pixel_file(bad)


@pytest.mark.parametrize("odd", [0, 2], ids=["first", "middle"])
def test_pixel_batch_names_the_record_of_another_shape(odd):
    records = [rec(i, 5.0) for i in range(4)]
    records[odd].pixels = np.zeros((4, 4, 3), dtype=np.uint8)
    with pytest.raises(DatasetFormatError, match=rf"^record r{odd}: pixel array of shape \(4, 4, 3\)"):
        pixel_batch(records)
    assert pixel_batch(records[odd + 1 :]).shape == (3 - odd, 3, 8, 8)


def test_split_file_roundtrip(tmp_path):
    save_split(tmp_path, ["a", "b"], ["c"])
    train_ids, val_ids = load_split(tmp_path)
    assert train_ids == ["a", "b"]
    assert val_ids == ["c"]


def test_split_file_bad_label(tmp_path):
    (tmp_path / "splits.tsv").write_text("a\tmaybe\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_split(tmp_path)


@pytest.mark.parametrize(
    "lines, rid, lineno",
    [
        (["img1\ttrain", "img2\ttrain", "img1\tval", "img2\ttrain"], "img1", 3),
        (["a\tval", "b\tval", "b\tval"], "b", 3),
    ],
    ids=["train-and-val", "twice-in-val"],
)
def test_split_file_listing_a_record_twice_is_refused(tmp_path, lines, rid, lineno):
    (tmp_path / "splits.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load_split(tmp_path)
    assert repr(rid) in str(exc.value) and f":{lineno}:" in str(exc.value)


def test_manifest_digest_tracks_content(tmp_path):
    ds = generate_synthetic_corpus(6, 2, image_size=16, seed=11)
    save_dataset(ds, tmp_path / "x")
    save_dataset(ds, tmp_path / "y")
    assert manifest_digest(tmp_path / "x") == manifest_digest(tmp_path / "y")
    other = generate_synthetic_corpus(6, 2, image_size=16, seed=12)
    save_dataset(other, tmp_path / "z")
    assert manifest_digest(tmp_path / "z") != manifest_digest(tmp_path / "x")
