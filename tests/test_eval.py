import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipforge import data, evaluation
from clipforge import model as M
from clipforge.data import Vocabulary, generate_synthetic_corpus, pixel_batch, tokenize_batch
from clipforge.errors import ComparisonError, ConfigError, EvaluationError
from clipforge.evaluation import (
    ALL_CAPTIONS,
    FIRST_CAPTION,
    IMAGE_TO_TEXT,
    METRIC_NAMES,
    TABLE_TO_FLORES,
    TEXT_TO_IMAGE,
    BaselineTable,
    MetricRow,
    RetrievalTask,
    baseline_from_report,
    baseline_keys,
    compare_to_baseline,
    evaluate,
    list_baseline_tables,
    load_baseline_table,
    metric_row_from_ranks,
    mrr_at_k,
    rank_items,
    read_report_jsonl,
    recall_at_k,
    write_report_csv,
    write_report_jsonl,
)


def task(queries, relevance, candidates, direction=TEXT_TO_IMAGE):
    return RetrievalTask(
        direction=direction,
        queries=np.asarray(queries, dtype=np.float64),
        relevance=tuple(frozenset(r) for r in relevance),
        candidates=np.asarray(candidates, dtype=np.float64),
    )


def oracle_ranks(queries, relevance, candidates):
    scores = np.asarray(queries) @ np.asarray(candidates).T
    out = []
    for i, relevant in enumerate(relevance):
        order = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        out.append(next(pos + 1 for pos, j in enumerate(order) if j in relevant))
    return np.asarray(out)


def loop_ranks(task):
    """The per-query loop rank_items used to run over a full score matrix,
    kept as the reference for the blocked, vectorized one."""
    scores = task.queries @ task.candidates.T
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    for i, relevant in enumerate(task.relevance):
        row = scores[i]
        relevant = sorted(relevant)
        best = relevant[int(np.argmax(row[relevant]))]  # argmax keeps the first of equal maxima
        top = row[best]
        ranks[i] = 1 + np.count_nonzero(row > top) + np.count_nonzero(row[:best] == top)
    return ranks


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_exact_match_ranks_first():
    candidates = np.eye(5)
    ranks = rank_items(task(candidates[3][None, :], [{3}], candidates))
    assert list(ranks) == [1]


def test_tie_break_is_ascending_index():
    candidates = np.ones((6, 3))
    t = task(np.ones((3, 3)), [{0}, {4}, {2, 5}], candidates)
    assert list(rank_items(t)) == [1, 5, 3]


def test_ranks_match_sort_oracle():
    rng = np.random.default_rng(0)
    queries = rng.normal(size=(50, 16))
    candidates = rng.normal(size=(200, 16))
    relevance = [{int(rng.integers(200))} for _ in range(50)]
    got = rank_items(task(queries, relevance, candidates))
    assert np.array_equal(got, oracle_ranks(queries, relevance, candidates))


def test_ranks_match_oracle_with_ties_and_multi_relevant():
    rng = np.random.default_rng(1)
    # low-entropy integer embeddings force plenty of exact score ties
    queries = rng.integers(-1, 2, size=(40, 6)).astype(np.float64)
    candidates = rng.integers(-1, 2, size=(500, 6)).astype(np.float64)
    relevance = [
        set(rng.choice(500, size=rng.integers(1, 4), replace=False).tolist())
        for _ in range(40)
    ]
    got = rank_items(task(queries, relevance, candidates))
    assert np.array_equal(got, oracle_ranks(queries, relevance, candidates))


@pytest.mark.parametrize("queries", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("max_relevant", [1, 4])
def test_rank_items_equals_the_per_query_loop(queries, max_relevant):
    # small integer embeddings tie often; query counts straddle RANK_BLOCK (256)
    rng = np.random.default_rng(queries * 10 + max_relevant)
    candidates = rng.integers(-1, 2, size=(300, 4)).astype(np.float32)
    relevance = [
        set(rng.choice(300, size=rng.integers(1, max_relevant + 1), replace=False).tolist())
        for _ in range(queries)
    ]
    t = task(rng.integers(-1, 2, size=(queries, 4)), relevance, candidates)
    assert np.array_equal(rank_items(t), loop_ranks(t))


def test_rank_items_holds_no_queries_by_candidates_array():
    rng = np.random.default_rng(3)
    n = 2000
    t = RetrievalTask(
        direction=TEXT_TO_IMAGE,
        queries=rng.normal(size=(n, 64)).astype(np.float32),
        relevance=tuple(frozenset({i}) for i in range(n)),
        candidates=rng.normal(size=(n, 64)).astype(np.float32),
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ranks = rank_items(t)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n * n * 4
    assert np.array_equal(ranks, loop_ranks(t))


def test_task_contract_errors():
    eye = np.eye(3)
    with pytest.raises(EvaluationError):
        task(eye, [{0}] * 3, np.empty((0, 3)))
    with pytest.raises(EvaluationError):
        task(eye, [{0}, set(), {1}], eye)
    with pytest.raises(EvaluationError):
        task(eye, [{0}, {1}, {3}], eye)
    with pytest.raises(EvaluationError):
        task(eye, [{0}] * 3, np.eye(4))
    with pytest.raises(EvaluationError):
        task(eye, [{0}] * 2, eye)
    with pytest.raises(EvaluationError):
        RetrievalTask("sideways", eye, (frozenset({0}),) * 3, eye)


# ---------------------------------------------------------------------------
# recall and mrr
# ---------------------------------------------------------------------------

def test_recall_counts_hits_within_k():
    assert recall_at_k([1, 3, 11, 2], 10) == 0.75
    assert recall_at_k([1, 1, 1], 1) == 1.0
    assert recall_at_k([1, 1, 1], 7) == 1.0


def test_mrr_truncates_beyond_k():
    assert mrr_at_k([1, 2, 4], 10) == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert mrr_at_k([3], 1) == 0.0


def test_metric_oracles_on_simulated_ranks():
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 40, size=1000)
    for k in (1, 5, 10, 25):
        assert recall_at_k(ranks, k) == sum(1 for r in ranks if r <= k) / 1000
        assert mrr_at_k(ranks, k) == pytest.approx(
            sum(1.0 / r for r in ranks if r <= k) / 1000, abs=1e-15
        )


def test_metric_argument_validation():
    with pytest.raises(EvaluationError):
        recall_at_k([1, 2], 0)
    with pytest.raises(EvaluationError):
        mrr_at_k([1, 2], 0)
    with pytest.raises(EvaluationError):
        recall_at_k([], 5)


@settings(max_examples=60, deadline=None)
@given(
    ranks=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40),
    k=st.integers(min_value=1, max_value=30),
)
def test_metric_ordering_properties(ranks, k):
    assert mrr_at_k(ranks, k) <= recall_at_k(ranks, k)
    assert recall_at_k(ranks, k) <= recall_at_k(ranks, k + 1)
    assert mrr_at_k(ranks, k) <= mrr_at_k(ranks, k + 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(2, 500))
def test_rank_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(4, 5)).round(1)  # rounding induces occasional ties
    candidates = rng.normal(size=(n, 5)).round(1)
    relevance = [{int(rng.integers(n))} for _ in range(4)]
    got = rank_items(task(queries, relevance, candidates))
    assert np.array_equal(got, oracle_ranks(queries, relevance, candidates))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@dataclass
class StubRecord:
    id: str
    captions: dict
    pixel_array: np.ndarray = field(default=None)

    def get_pixels(self):
        return self.pixel_array


@dataclass
class StubDataset:
    records: list
    languages: list


def micro_model(vocab_size, max_len, seed=0):
    config = M.ModelConfig(
        image_size=16,
        patch_size=8,
        image_layers=1,
        image_heads=2,
        image_dim=8,
        text_layers=1,
        text_heads=2,
        text_dim=8,
        vocab_size=vocab_size,
        max_text_len=max_len,
        embed_dim=4,
    )
    return M.DualEncoderModel(config, init_seed=seed)


def constant_model(vocab_size, max_len):
    """Every image and every caption maps to the same embedding."""
    model = micro_model(vocab_size, max_len)
    p = model.params
    p["image/patch_embed/w"].data[:] = 0.0
    p["image/patch_embed/b"].data[:] = np.linspace(0.1, 0.9, 8, dtype=np.float32)
    p["text/token_embed"].data[:] = p["text/token_embed"].data[4]
    return model


def pixels(seed):
    return np.random.default_rng(seed).integers(0, 256, size=(16, 16, 3), dtype=np.uint8)


def single_caption_dataset(n):
    words = ["red", "blue", "green", "dark", "pale", "deep", "dim", "hot"]
    records = [
        StubRecord(f"img{i}", {"eng_Latn": f"{words[i]} thing"}, pixels(i))
        for i in range(n)
    ]
    return StubDataset(records, ["eng_Latn"]), Vocabulary.build(words + ["thing"])


def test_constant_embeddings_give_index_ranks():
    dataset, vocab = single_caption_dataset(7)
    model = constant_model(vocab.size, 6)
    report = evaluate(model, dataset, vocab)
    row = report.rows["eng_Latn"]
    # all scores tie, so caption i lands on rank i+1 and R@K = K/N exactly
    assert row.r_at_1 == 100.0 * (1 / 7)
    assert row.r_at_5 == 100.0 * (5 / 7)
    assert row.mrr_at_5 == pytest.approx(100.0 * sum(1 / r for r in range(1, 6)) / 7)
    assert report.average == row


def test_caption_modes_with_multiple_captions():
    base = single_caption_dataset(3)[0]
    records = [
        StubRecord("img0", {"eng_Latn": ["red thing", "dark thing"]}, base.records[0].pixel_array),
        StubRecord("img1", {"eng_Latn": "blue thing"}, base.records[1].pixel_array),
        StubRecord("img2", {"eng_Latn": ["green thing"]}, base.records[2].pixel_array),
    ]
    dataset = StubDataset(records, ["eng_Latn"])
    vocab = Vocabulary.build(["red dark blue green thing"])
    model = constant_model(vocab.size, 6)

    first = evaluate(model, dataset, vocab, caption_mode=FIRST_CAPTION)
    assert first.rows["eng_Latn"].r_at_1 == 100.0 * (1 / 3)

    both = evaluate(model, dataset, vocab, caption_mode=ALL_CAPTIONS)
    # queries now [img0, img0, img1, img2] -> ranks [1, 1, 2, 3]
    assert both.rows["eng_Latn"].r_at_1 == 100.0 * (2 / 4)

    i2t_first = evaluate(model, dataset, vocab, direction=IMAGE_TO_TEXT)
    assert i2t_first.rows["eng_Latn"].r_at_1 == 100.0 * (1 / 3)

    i2t_all = evaluate(model, dataset, vocab, direction=IMAGE_TO_TEXT, caption_mode=ALL_CAPTIONS)
    # caption pool [img0, img0, img1, img2]; relevant sets {0,1}, {2}, {3} -> ranks 1, 3, 4
    assert i2t_all.rows["eng_Latn"].r_at_1 == 100.0 * (1 / 3)
    assert i2t_all.rows["eng_Latn"].r_at_5 == 100.0


def test_average_row_is_exact_mean():
    ds = generate_synthetic_corpus(10, 3, image_size=16, seed=0)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=1)
    report = evaluate(model, ds, vocab)
    assert len(report.rows) == 3
    for name in METRIC_NAMES:
        values = [getattr(row, name) for row in report.rows.values()]
        assert getattr(report.average, name) == float(np.mean(values))


def test_evaluate_is_deterministic(tmp_path):
    ds = generate_synthetic_corpus(12, 2, image_size=16, seed=3)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=2)
    a = evaluate(model, ds, vocab, metadata={"run": "x"})
    b = evaluate(model, ds, vocab, metadata={"run": "x"})
    assert a == b
    write_report_csv(a, tmp_path / "a.csv")
    write_report_csv(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_batch_size_does_not_change_query_count():
    ds = generate_synthetic_corpus(9, 2, image_size=16, seed=5)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=4)
    whole = evaluate(model, ds, vocab, batch_size=64)
    chunked = evaluate(model, ds, vocab, batch_size=2)
    assert chunked == whole


def test_evaluate_language_selection_and_errors():
    ds = generate_synthetic_corpus(6, 2, image_size=16, seed=6)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8)
    only = evaluate(model, ds, vocab, languages=["eng_Latn"])
    assert list(only.rows) == ["eng_Latn"]
    with pytest.raises(EvaluationError):
        evaluate(model, ds, vocab, languages=["xx_None"])
    with pytest.raises(ConfigError):
        evaluate(model, ds, vocab, direction="both")
    with pytest.raises(ConfigError):
        evaluate(model, ds, vocab, caption_mode="last")
    with pytest.raises(EvaluationError):
        # vocabulary shares no token with the captions
        evaluate(model, ds, Vocabulary.from_tokens(["zzz", "qqq"]), languages=["eng_Latn"])


def two_caption_dataset(n, seed):
    """A synthetic corpus whose records carry two captions per language: their
    own and the previous record's, and every fifth record its own twice.  Its
    384 caption templates repeat across records, so every pool repeats."""
    ds = generate_synthetic_corpus(n, 3, image_size=16, seed=seed)
    records = []
    for i, r in enumerate(ds.records):
        second = r if i % 5 == 0 else ds.records[i - 1]
        captions = {lang: [r.captions[lang], second.captions[lang]] for lang in ds.languages}
        records.append(StubRecord(r.id, captions, r.get_pixels()))
    return StubDataset(records, ds.languages), Vocabulary.for_dataset(ds)


def caption_pool(dataset, language, caption_mode):
    pool = []
    for record in dataset.records:
        captions = record.captions[language]
        captions = [captions] if isinstance(captions, str) else list(captions)
        pool.append(captions[:1] if caption_mode == FIRST_CAPTION else captions)
    return pool


def every_row_rows(model, dataset, vocab, direction, caption_mode, batch_size):
    """Per-language rows of an evaluate that tokenizes and embeds every caption
    row, repeats included, and stacks every image at once, kept as the
    reference for the one that embeds each distinct caption once."""
    records = dataset.records
    pixels = pixel_batch(records)
    image_emb = np.concatenate(
        [M.encode_image(model, pixels[a : a + batch_size]).data for a in range(0, len(records), batch_size)]
    )
    rows = {}
    for language in dataset.languages:
        pool = caption_pool(dataset, language, caption_mode)
        texts = [caption for captions in pool for caption in captions]
        owners = [index for index, captions in enumerate(pool) for _ in captions]
        tokens, lengths = tokenize_batch(texts, vocab, model.config.max_text_len)
        text_emb = np.concatenate(
            [
                M.encode_text(model, tokens[a : a + batch_size], lengths[a : a + batch_size]).data
                for a in range(0, len(texts), batch_size)
            ]
        )
        if direction == TEXT_TO_IMAGE:
            t = RetrievalTask(direction, text_emb, tuple(frozenset({o}) for o in owners), image_emb)
        else:
            relevance = tuple(
                frozenset(row for row, owner in enumerate(owners) if owner == index)
                for index in range(len(records))
            )
            t = RetrievalTask(direction, image_emb, relevance, text_emb)
        rows[language] = metric_row_from_ranks(loop_ranks(t))
    return rows


@pytest.fixture
def counted(monkeypatch):
    """Rows of each encode_text call, and tokenize calls."""
    seen = {"text_rows": [], "tokenize_calls": 0}
    encode_text, tokenize = M.encode_text, data.tokenize

    def counting_encode_text(model, tokens, lengths):
        seen["text_rows"].append(len(tokens))
        return encode_text(model, tokens, lengths)

    def counting_tokenize(text, vocab, max_len):
        seen["tokenize_calls"] += 1
        return tokenize(text, vocab, max_len)

    monkeypatch.setattr(M, "encode_text", counting_encode_text)
    monkeypatch.setattr(data, "tokenize", counting_tokenize)
    return seen


@pytest.mark.parametrize("caption_mode", [FIRST_CAPTION, ALL_CAPTIONS])
def test_evaluate_embeds_each_distinct_caption_once(counted, caption_mode):
    dataset, vocab = two_caption_dataset(120, seed=11)
    model = micro_model(vocab.size, 8, seed=5)
    for language in dataset.languages:
        pool = caption_pool(dataset, language, caption_mode)
        distinct = len({caption for captions in pool for caption in captions})
        assert distinct < sum(map(len, pool))  # the corpus repeats captions
        counted["text_rows"].clear()
        counted["tokenize_calls"] = 0
        evaluate(model, dataset, vocab, caption_mode=caption_mode, languages=[language], batch_size=16)
        assert sum(counted["text_rows"]) == distinct
        assert counted["tokenize_calls"] == distinct


@pytest.mark.parametrize("caption_mode", [FIRST_CAPTION, ALL_CAPTIONS])
@pytest.mark.parametrize("direction", [TEXT_TO_IMAGE, IMAGE_TO_TEXT])
def test_distinct_caption_reports_equal_an_every_row_encode(direction, caption_mode):
    dataset, vocab = two_caption_dataset(120, seed=12)
    model = micro_model(vocab.size, 8, seed=6)
    report = evaluate(model, dataset, vocab, direction=direction, caption_mode=caption_mode, batch_size=16)
    expected = every_row_rows(model, dataset, vocab, direction, caption_mode, batch_size=16)
    assert report.rows == expected
    assert report.average == evaluation._mean_row(expected)


def test_all_distinct_captions_are_each_encoded_once(counted):
    corpus = generate_synthetic_corpus(60, 2, image_size=16, seed=13)
    first = {}
    for r in corpus.records:  # the cipher is one-to-one, so this dedups every language
        first.setdefault(r.captions["eng_Latn"], r)
    dataset = StubDataset(list(first.values()), corpus.languages)
    vocab = Vocabulary.for_dataset(corpus)
    model = micro_model(vocab.size, 8, seed=7)
    n = len(dataset.records)
    for direction in (TEXT_TO_IMAGE, IMAGE_TO_TEXT):
        counted["text_rows"].clear()
        counted["tokenize_calls"] = 0
        report = evaluate(model, dataset, vocab, direction=direction, batch_size=16)
        assert sum(counted["text_rows"]) == counted["tokenize_calls"] == 2 * n
        assert report.rows == every_row_rows(model, dataset, vocab, direction, FIRST_CAPTION, 16)


def test_perfectly_separable_embeddings_hit_rank_one():
    eye = np.eye(20)
    t = task(eye, [{i} for i in range(20)], eye)
    row = metric_row_from_ranks(rank_items(t))
    assert row.r_at_1 == 100.0
    assert row.mrr_at_10 == 100.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def small_report():
    ds = generate_synthetic_corpus(8, 2, image_size=16, seed=7)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=3)
    return evaluate(model, ds, vocab, metadata={"config_hash": "abc", "seed": "11"})


def test_csv_layout(tmp_path):
    report = small_report()
    write_report_csv(report, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "language," + ",".join(METRIC_NAMES)
    assert len(lines) == 2 + len(report.rows)
    assert lines[-1].startswith("average,")
    for cell in lines[1].split(",")[1:]:
        assert len(cell.split(".")[1]) == 2


def test_jsonl_roundtrip(tmp_path):
    report = small_report()
    write_report_jsonl(report, tmp_path / "r.jsonl")
    back = read_report_jsonl(tmp_path / "r.jsonl")
    assert back == report


def test_jsonl_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n", encoding="utf-8")
    with pytest.raises(EvaluationError):
        read_report_jsonl(bad)
    with pytest.raises(EvaluationError):
        read_report_jsonl(tmp_path / "missing.jsonl")


# ---------------------------------------------------------------------------
# bundled baselines
# ---------------------------------------------------------------------------

def test_bundled_tables_enumerate():
    pairs = list_baseline_tables()
    assert ("crossmodal3600", "nllb-clip-large") in pairs
    assert ("xtd10", "m-clip") in pairs
    assert ("coco_it", "italian-clip") in pairs
    assert ("coco_flickr30k", "altclip") in pairs


def test_large_model_average_recomputes():
    table = load_baseline_table("crossmodal3600", "nllb-clip-large")
    assert len(table.entries) == 36
    recomputed = table.recompute_average()
    assert recomputed["r_at_1"] == pytest.approx(42.96, abs=0.005)
    assert recomputed["r_at_5"] == pytest.approx(69.65, abs=0.005)
    assert recomputed["r_at_10"] == pytest.approx(78.87, abs=0.005)
    assert table.average_discrepancies() == {}


def test_base_model_and_single_metric_averages_recompute():
    base = load_baseline_table("crossmodal3600", "nllb-clip-base")
    recomputed = base.recompute_average()
    assert recomputed["r_at_1"] == pytest.approx(33.99, abs=0.005)
    assert recomputed["r_at_5"] == pytest.approx(61.11, abs=0.005)
    assert recomputed["r_at_10"] == pytest.approx(71.85, abs=0.005)
    for model, value in (("msiglip", 34.87), ("pali", 28.46)):
        table = load_baseline_table("crossmodal3600", model)
        assert set(table.recompute_average()) == {"r_at_1"}
        assert table.recompute_average()["r_at_1"] == pytest.approx(value, abs=0.005)
        assert table.average_discrepancies() == {}


def test_known_rows_parse():
    xtd = load_baseline_table("xtd10", "nllb-clip-base")
    assert xtd.entries["en"] == {"r_at_1": 47.2, "r_at_5": 76.9, "r_at_10": 87.6}
    assert xtd.average == {}
    coco_it = load_baseline_table("coco_it", "nllb-clip-large")
    assert coco_it.entries["coco_it"] == {"mrr_at_1": 45.4, "mrr_at_5": 56.7, "mrr_at_10": 58.1}
    mural = load_baseline_table("xtd10", "mural")
    assert set(mural.entries) == {"zh", "es", "it", "tr", "ru", "ko", "pl"}
    assert all(set(v) == {"r_at_10"} for v in mural.entries.values())


def test_unknown_baseline_errors():
    with pytest.raises(ComparisonError):
        load_baseline_table("nope", "nllb-clip-base")
    with pytest.raises(ComparisonError):
        load_baseline_table("xtd10", "nope")


def test_compare_report_to_itself_is_zero():
    report = small_report()
    mirror = baseline_from_report(report, "self", "run")
    cmp = compare_to_baseline(report, mirror)
    for language in report.rows:
        assert all(v == 0.0 for v in cmp.deltas[language].values())
    assert all(v == 0.0 for v in cmp.average_delta.values())
    assert cmp.average_flags == {}


def test_compare_requires_shared_languages():
    report = small_report()
    table = load_baseline_table("coco_it", "nllb-clip-base")
    with pytest.raises(ComparisonError):
        compare_to_baseline(report, table)


def test_table_codes_match_flores_languages():
    xtd = load_baseline_table("xtd10", "nllb-clip-base")
    xm = load_baseline_table("crossmodal3600", "nllb-clip-base")
    assert baseline_keys(["jpn_Jpan", "eng_Latn", "aab_Ciph", "en"], xtd) == {
        "jpn_Jpan": "jp", "eng_Latn": "en", "en": "en"
    }
    assert baseline_keys(["jpn_Jpan", "quy_Latn"], xm) == {"jpn_Jpan": "ja"}
    assert "quz" in xm.entries and "quz" not in TABLE_TO_FLORES
    cmp = compare_to_baseline(small_report(), xtd)
    assert cmp.languages == ("eng_Latn",)
    assert set(cmp.deltas) == {"eng_Latn"}


def test_compare_flags_inconsistent_average():
    report = small_report()
    language = next(iter(report.rows))
    table = BaselineTable(
        model="x",
        source="y",
        entries={language: {"r_at_1": 10.0}, "other": {"r_at_1": 20.0}},
        average={"r_at_1": 16.0},  # true mean is 15.0
    )
    cmp = compare_to_baseline(report, table)
    assert cmp.average_flags == {"r_at_1": pytest.approx(1.0)}
    assert cmp.recomputed_average["r_at_1"] == 15.0
    assert cmp.deltas[language]["r_at_1"] == pytest.approx(
        report.rows[language].r_at_1 - 10.0
    )
    # stored average wins for the delta even when flagged
    assert cmp.average_delta["r_at_1"] == pytest.approx(report.average.r_at_1 - 16.0)


def test_metric_row_helpers():
    row = MetricRow(1, 2, 3, 4, 5, 6)
    assert list(row.as_dict()) == list(METRIC_NAMES)
