import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipforge.data import (
    BASE_LANGUAGE,
    BASE_WORDS,
    BOS_ID,
    COLORS,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CaptionedImage,
    Dataset,
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


def test_a_caption_with_unicode_line_separators_round_trips(tmp_path):
    # str.splitlines would split at each of these; a manifest line ends only at \n, \r\n or \r
    ds = generate_synthetic_corpus(4, 2, image_size=8, seed=4)
    ds.records[1].captions[BASE_LANGUAGE] = "red\u2028circle\u0085top\x0cleft"
    save_dataset(ds, tmp_path)
    assert [r.captions for r in load_dataset(tmp_path).records] == [r.captions for r in ds.records]


@pytest.mark.parametrize(
    "field, value",
    [("caption", "red\tcircle"), ("caption", "red\ncircle"), ("id", "img\r1"), ("language", "x\ty")],
)
def test_a_field_with_a_tab_or_a_line_break_is_refused_before_anything_is_written(
    tmp_path, field, value
):
    ds = generate_synthetic_corpus(4, 2, image_size=8, seed=4)
    record = ds.records[-1]  # the last: nothing may be written before it is checked
    if field == "caption":
        record.captions[BASE_LANGUAGE] = value
    elif field == "id":
        record.id = value
    else:
        ds.languages[1] = value
        for r in ds.records:
            r.captions[value] = r.captions.pop(cipher_code(1))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{value!r} holds a tab or a line break")):
        save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("captions", {BASE_LANGUAGE: "", "aab_Ciph": "x"}, "'img000003' is missing its eng_Latn caption"),
        ("aesthetic_score", float("nan"), "'img000003' has non-finite aesthetic score"),
        ("aesthetic_score", float("inf"), "'img000003' has non-finite aesthetic score"),
        ("id", "img000001", "duplicate record id 'img000001'"),
        ("id", "img/3", "'img/3' holds '/' or NUL"),
        ("id", "img\x003", "'img\\x003' holds '/' or NUL"),
        ("languages", [BASE_LANGUAGE, ""], "language codes, got ['eng_Latn', '']"),
        ("languages", [], "language codes, got []"),
        ("pixels", np.zeros((8, 8, 3)), "'img000003': pixel array of float64 (8, 8, 3)"),
        ("pixels", np.zeros((4, 16, 3), np.uint8), "'img000003': pixel array of uint8 (4, 16, 3)"),
        ("pixels", np.zeros((8, 8, 4), np.uint8), "'img000003': pixel array: size 256"),
        ("captions", {BASE_LANGUAGE: "red\ud800", "aab_Ciph": "x"}, "field 'red\\ud800' holds a lone surrogate"),
        ("id", "\u00e9" * 126, "pixel file name over 255 bytes"),
        ("aesthetic_score", "high", "'img000003' has bad aesthetic score 'high'"),
    ],
    ids=["empty caption", "nan score", "inf score", "repeated id", "id with a slash", "id with a NUL",
         "empty language", "no languages", "float pixels", "4x16 pixels", "4 channels",
         "lone surrogate", "id of 252 utf-8 bytes", "score 'high'"],
)
def test_save_dataset_refuses_what_load_dataset_refuses_before_anything_is_written(tmp_path, field, value, named):
    ds = generate_synthetic_corpus(4, 2, image_size=8, seed=4)
    if field == "languages":
        ds.languages = value
        for r in ds.records:
            r.captions = dict(zip(value, r.captions.values()))
    else:
        setattr(ds.records[-1], field, value)  # the last record: nothing may be written before it is checked
    with pytest.raises(DatasetFormatError, match=re.escape(named)):
        save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "train_ids, val_ids, named",
    [(["a", "b"], ["c", "a"], "'a' is already listed on line 1"), (["a"], ["b\tc"], "'b\\tc' holds a tab")],
    ids=["repeated id", "id with a tab"],
)
def test_save_split_refuses_what_load_split_refuses_before_writing(tmp_path, train_ids, val_ids, named):
    with pytest.raises(DatasetFormatError, match=re.escape(named)):
        save_split(tmp_path, train_ids, val_ids)
    assert not (tmp_path / "splits.tsv").exists()


# a line reader splitting at more than "\n", "\r\n" and "\r" would split at the last three
GOOD = st.text(alphabet="ab\u00e9 \u2028\x85\x0c", min_size=1, max_size=3)
ANY = st.text(alphabet="ab/\x00\t\n\r", max_size=2)  # text some rule may refuse
PIXELS = [np.zeros((8, 8, 3)), np.zeros((4, 16, 3), np.uint8), np.zeros((8, 8, 4), np.uint8),
          np.ones((8, 8, 3), np.uint8)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_what_save_dataset_writes_load_dataset_reads_back_equal(data):
    languages = data.draw(st.lists(GOOD, min_size=1, max_size=3, unique=True))
    records = [
        CaptionedImage(rid, data.draw(st.floats(-1e300, 1e300)), {lang: data.draw(GOOD) for lang in languages},
                       np.arange(192, dtype=np.uint8).reshape(8, 8, 3) + i)
        for i, rid in enumerate(data.draw(st.lists(GOOD, min_size=1, max_size=3, unique=True)))
    ]
    record = data.draw(st.sampled_from(records))  # at most one field is replaced, maybe by one refused
    fault = data.draw(st.sampled_from([None, "language", "id", "caption", "score", "pixels"]))
    if fault == "language":
        old, new = languages[-1], data.draw(ANY)
        languages[-1] = new
        for r in records:
            r.captions[new] = r.captions.pop(old)
    elif fault == "id":
        record.id = data.draw(ANY)
    elif fault == "caption":
        record.captions[languages[0]] = data.draw(ANY)
    elif fault == "score":
        record.aesthetic_score = data.draw(st.floats())
    elif fault == "pixels":
        record.pixels = data.draw(st.sampled_from(PIXELS))
    ds = Dataset(records, languages)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "ds"
        try:
            save_dataset(ds, target)
        except DatasetFormatError:
            assert not target.exists()
            return
        back = load_dataset(target)
        assert back.languages == ds.languages
        assert [(r.id, r.aesthetic_score, r.captions, r.get_pixels().tobytes()) for r in back.records] == [
            (r.id, r.aesthetic_score, r.captions, r.pixels.tobytes()) for r in ds.records
        ]


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(GOOD, min_size=1, max_size=6, unique=True),
    cut=st.integers(0, 6),
    fault=st.one_of(st.none(), st.text(alphabet="a\t\n\r", min_size=1, max_size=2)),
)
def test_what_save_split_writes_load_split_reads_back_equal(ids, cut, fault):
    if fault is not None:
        ids[-1] = fault  # maybe a repeat, or an id with a tab or a line break
    train_ids, val_ids = ids[:cut], ids[cut:]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            save_split(tmp, train_ids, val_ids)
        except DatasetFormatError:
            assert not (Path(tmp) / "splits.tsv").exists()
            return
        assert load_split(tmp) == (train_ids, val_ids)


def test_loader_is_lazy_about_pixels(tmp_path):
    header = "id\taesthetic_score\tpixels\teng_Latn"
    rows = [f"img{i}\t5.0\tpixels/img{i}.rgb\tred circle" for i in range(5000)]
    write_manifest(tmp_path, [header] + rows)
    ds = load_dataset(tmp_path)  # pixel files do not exist; must not be touched
    assert len(ds) == 5000
    assert ds.records[0].pixels is None
    with pytest.raises(DatasetFormatError, match="pixels/img0.rgb"):
        ds.records[0].get_pixels()


def test_a_record_read_from_disk_rereads_its_pixel_file_and_keeps_nothing(tmp_path):
    ds = generate_synthetic_corpus(4, 1, image_size=16, seed=4)
    save_dataset(ds, tmp_path)
    record = load_dataset(tmp_path).records[1]
    first, second = record.get_pixels(), record.get_pixels()
    assert np.array_equal(first, ds.records[1].pixels) and np.array_equal(first, second)
    assert first is not second and record.pixels is None
    first[:] = 0  # a caller's array is its own
    assert np.array_equal(record.get_pixels(), second)


def test_a_generated_record_keeps_its_in_memory_pixels():
    record = generate_synthetic_corpus(3, 1, image_size=16, seed=4).records[0]
    pixels = record.pixels
    assert pixels is not None and record.pixel_path is None
    assert record.get_pixels() is pixels and record.pixels is pixels


@pytest.mark.parametrize("cell", ["../outside.bin", "/abs/outside.bin"], ids=["relative", "absolute"])
def test_loader_refuses_a_pixels_cell_other_than_the_records_own_file(tmp_path, cell):
    # without this rule the loader would read these bytes as img1's image
    (tmp_path / "outside.bin").write_bytes(bytes(192))
    cell = cell.replace("/abs", str(tmp_path))
    (tmp_path / "ds").mkdir()
    header = "id\taesthetic_score\tpixels\teng_Latn"
    write_manifest(tmp_path / "ds", [header, "img0\t5.0\tpixels/img0.rgb\tred", f"img1\t5.0\t{cell}\tblue"])
    named = f":3: record 'img1': pixels cell {cell!r} is not pixels/img1.rgb"
    with pytest.raises(DatasetFormatError, match=re.escape(named)):
        load_dataset(tmp_path / "ds")


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
