"""Retrieval metrics, per-language reports, and published-baseline comparison.

A record holds one caption string per language, so in ``evaluate`` query i's
relevant candidate is candidate i in either direction.  The primitive is the
1-based rank of the best-ranked relevant candidate under descending
inner-product score (ties broken by ascending candidate index).
Recall@K and MRR@K are pure functions of those ranks.  Reports carry one row
per language plus an average row that is the exact arithmetic mean of the
language rows; rounding to two decimals happens only at serialization time.

Baseline numbers for four public benchmarks ship as CSV files next to this
module.  The package never claims to reproduce them, it only compares runs
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

from . import model as M
from .data import UNK_ID, pixel_batch, tokenize_batch
from .errors import ComparisonError, ConfigError, EvaluationError

TEXT_TO_IMAGE = "text_to_image"
IMAGE_TO_TEXT = "image_to_text"
DIRECTIONS = (TEXT_TO_IMAGE, IMAGE_TO_TEXT)

METRIC_NAMES = ("r_at_1", "r_at_5", "r_at_10", "mrr_at_1", "mrr_at_5", "mrr_at_10")

AVERAGE_ROW = "average"
AVERAGE_TOLERANCE = 0.005
# query rows scored per block in rank_items: a block's scores against 2000
# candidates take 2 MB, not the 16 MB of a whole 2000 x 2000 float32 matrix
RANK_BLOCK = 256


# ---------------------------------------------------------------------------
# ranking primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetrievalTask:
    """Queries with per-query relevance sets against a candidate pool."""

    direction: str
    queries: np.ndarray
    relevance: tuple
    candidates: np.ndarray

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise EvaluationError(
                f"unknown direction {self.direction!r}; expected one of {DIRECTIONS}"
            )
        if self.queries.ndim != 2 or self.candidates.ndim != 2:
            raise EvaluationError(
                f"queries and candidates must be 2-D, got {self.queries.shape}"
                f" and {self.candidates.shape}"
            )
        if self.candidates.shape[0] == 0:
            raise EvaluationError("candidate pool is empty")
        if self.queries.shape[1] != self.candidates.shape[1]:
            raise EvaluationError(
                f"embedding widths differ: queries {self.queries.shape[1]},"
                f" candidates {self.candidates.shape[1]}"
            )
        if len(self.relevance) != self.queries.shape[0]:
            raise EvaluationError(
                f"{len(self.relevance)} relevance sets for {self.queries.shape[0]} queries"
            )
        n = self.candidates.shape[0]
        for i, relevant in enumerate(self.relevance):
            if not relevant:
                raise EvaluationError(f"query {i}: relevance set is empty")
            if min(relevant) < 0 or max(relevant) >= n:
                raise EvaluationError(
                    f"query {i}: relevance set {sorted(relevant)} outside 0..{n - 1}"
                )


def rank_items(task: RetrievalTask) -> np.ndarray:
    """1-based rank of the best-ranked relevant candidate for each query.

    Counted, not sorted: the best relevant candidate is the highest-scoring
    one (lowest index on a tie), and its rank is one plus the candidates
    scoring higher plus those scoring the same at a lower index.  Queries are
    scored ``RANK_BLOCK`` rows at a time, so no queries x candidates array
    exists at once.
    """
    n = task.candidates.shape[0]
    sizes = np.fromiter(map(len, task.relevance), dtype=np.int64, count=len(task.relevance))
    # relevance as flat (query, candidate) pairs; query i owns pairs starts[i]:starts[i + 1]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    owner = np.repeat(np.arange(sizes.size), sizes)
    relevant = np.fromiter(chain.from_iterable(task.relevance), dtype=np.int64, count=int(starts[-1]))
    index = np.arange(n)
    ranks = np.empty(sizes.size, dtype=np.int64)
    for a in range(0, sizes.size, RANK_BLOCK):
        b = min(a + RANK_BLOCK, sizes.size)
        scores = task.queries[a:b] @ task.candidates.T
        lo, hi = starts[a], starts[b]
        rows = owner[lo:hi] - a
        pair_scores = scores[rows, relevant[lo:hi]]
        groups = starts[a:b] - lo
        top = np.maximum.reduceat(pair_scores, groups)
        best = np.minimum.reduceat(np.where(pair_scores == top[rows], relevant[lo:hi], n), groups)
        top = top[:, None]
        higher = np.count_nonzero(scores > top, axis=1)
        tied_before = np.count_nonzero((scores == top) & (index < best[:, None]), axis=1)
        ranks[a:b] = 1 + higher + tied_before
    return ranks


def _check_ranks(ranks, k) -> np.ndarray:
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise EvaluationError("no query ranks to aggregate")
    return ranks


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries whose first relevant hit lands in the top k."""
    ranks = _check_ranks(ranks, k)
    return float(np.mean(ranks <= k))


def mrr_at_k(ranks, k: int) -> float:
    """Mean reciprocal rank, truncated to 0 for ranks beyond k."""
    ranks = _check_ranks(ranks, k)
    return float(np.mean(np.where(ranks <= k, 1.0 / ranks, 0.0)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRow:
    """Six retrieval metrics in percent."""

    r_at_1: float
    r_at_5: float
    r_at_10: float
    mrr_at_1: float
    mrr_at_5: float
    mrr_at_10: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


@dataclass(frozen=True)
class MetricReport:
    direction: str
    rows: dict
    average: MetricRow
    metadata: dict


def metric_row_from_ranks(ranks) -> MetricRow:
    return MetricRow(
        r_at_1=100.0 * recall_at_k(ranks, 1),
        r_at_5=100.0 * recall_at_k(ranks, 5),
        r_at_10=100.0 * recall_at_k(ranks, 10),
        mrr_at_1=100.0 * mrr_at_k(ranks, 1),
        mrr_at_5=100.0 * mrr_at_k(ranks, 5),
        mrr_at_10=100.0 * mrr_at_k(ranks, 10),
    )


def _mean_row(rows: dict) -> MetricRow:
    return MetricRow(
        **{
            name: float(np.mean([getattr(row, name) for row in rows.values()]))
            for name in METRIC_NAMES
        }
    )


def _batched(apply, arrays, batch_size: int):
    n = len(arrays[0])
    outs = []
    for start in range(0, n, batch_size):
        outs.append(apply(*(a[start : start + batch_size] for a in arrays)))
    return np.concatenate(outs, axis=0)


def evaluate(
    model: M.DualEncoderModel,
    dataset,
    vocab,
    direction: str = TEXT_TO_IMAGE,
    languages=None,
    batch_size: int = 256,
    metadata: dict | None = None,
) -> MetricReport:
    """Embed a dataset once and score retrieval per language.

    A record holds one caption per language, so record i gives image i and
    caption i, and query i's one relevant candidate is candidate i:
    text_to_image ranks the images for each caption, image_to_text ranks the
    language's captions for each image.

    Images are embedded ``batch_size`` records at a time, one row per
    record; ``encode_image`` refuses another image size.  Per
    language, each distinct caption string is tokenized and embedded once,
    and its row is gathered back to every record that repeats it.  Each row
    depends only on its own caption, up to the last bits that the batch's
    GEMM shapes set when caption lengths are mixed.
    """
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    records = dataset.records
    if not records:
        raise EvaluationError("dataset has no records")
    languages = list(dataset.languages) if languages is None else list(languages)
    if not languages:
        raise EvaluationError("no language to evaluate")
    missing = [lang for lang in languages if lang not in dataset.languages]
    if missing:
        raise EvaluationError(
            f"languages not in the dataset: {missing}; it has {sorted(dataset.languages)}"
        )
    repeated = sorted({lang for lang in languages if languages.count(lang) > 1})
    if repeated:
        raise EvaluationError(f"languages listed more than once: {repeated}")

    model = M.frozen(model)  # no forward records a graph, whatever the caller's requires_grad
    image_emb = _batched(
        lambda chunk: M.encode_image(model, chunk).data, (pixel_batch(records),), batch_size
    )

    max_len = model.config.max_text_len
    relevance = tuple(frozenset({i}) for i in range(len(records)))
    rows = {}
    covered = False
    for language in languages:
        distinct = {}  # caption -> row, in first-occurrence order
        row_of = [distinct.setdefault(r.captions[language], len(distinct)) for r in records]
        tokens, lengths = tokenize_batch(list(distinct), vocab, max_len)
        covered = covered or bool((tokens[:, 1:] > UNK_ID).any())
        text_emb = _batched(
            lambda t, n: M.encode_text(model, t, n).data, (tokens, lengths), batch_size
        )
        if len(distinct) < len(row_of):  # else row_of is 0..n-1 and the gather would only copy
            text_emb = text_emb[row_of]
        queries, candidates = (
            (text_emb, image_emb) if direction == TEXT_TO_IMAGE else (image_emb, text_emb)
        )
        task = RetrievalTask(direction, queries, relevance, candidates)
        rows[language] = metric_row_from_ranks(rank_items(task))
    if not covered:
        raise EvaluationError(
            "model vocabulary covers no caption token in any requested language"
        )
    return MetricReport(
        direction=direction,
        rows=rows,
        average=_mean_row(rows),
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def write_metric_csv(path, rows, cell) -> None:
    """CSV of a language column and one column per metric: one line per
    (name, {metric: value}) pair of ``rows``, each value as ``cell(value)``, a
    metric the pair lacks left blank."""
    lines = [",".join(["language", *METRIC_NAMES])]
    for name, values in rows:
        cells = [cell(values[m]) if m in values else "" for m in METRIC_NAMES]
        lines.append(",".join([name, *cells]))
    M.write_lines(path, lines)


def write_report_csv(report: MetricReport, path) -> None:
    """Two-decimal CSV: one row per language, average row last."""
    rows = [(language, row.as_dict()) for language, row in report.rows.items()]
    write_metric_csv(path, rows + [(AVERAGE_ROW, report.average.as_dict())], "{:.2f}".format)


def write_report_jsonl(report: MetricReport, path) -> None:
    """Line-delimited full-precision variant carrying run metadata."""
    M.write_json_lines(path, [
        {"record": "run", "direction": report.direction, "metadata": report.metadata},
        *({"record": "language", "language": language, **row.as_dict()}
          for language, row in report.rows.items()),
        {"record": AVERAGE_ROW, **report.average.as_dict()},
    ])


def read_report_jsonl(path) -> MetricReport:
    """Inverse of ``write_report_jsonl``.  A report that lacks a line or a field,
    or holds one of another type, is refused with one ``E_EVAL`` line naming it."""
    entries = M.read_json_lines(path, EvaluationError)
    if not entries or entries[0].get("record") != "run" or entries[-1].get("record") != AVERAGE_ROW:
        raise EvaluationError(f"report {path} is missing its run or average line")
    head, *language_lines, tail = entries
    direction, metadata = head.get("direction"), head.get("metadata", {})
    names = [entry.get("language") for entry in language_lines]
    metrics = [[entry.get(m) for m in METRIC_NAMES] for entry in [*language_lines, tail]]
    if not (
        all(isinstance(v, str) for v in (direction, *names)) and isinstance(metadata, dict)
        and all(type(v) in (int, float) for values in metrics for v in values)
    ):
        raise EvaluationError(
            f"report {path}: a field is missing or of another type (the direction and the"
            " languages are strings, the metadata an object, the metrics numbers)"
        )
    *rows, average = [MetricRow(*values) for values in metrics]
    return MetricReport(direction, dict(zip(names, rows)), average, metadata)


# ---------------------------------------------------------------------------
# bundled baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineTable:
    """Published per-language metrics for one model on one benchmark."""

    model: str
    source: str
    entries: dict
    average: dict

    def recompute_average(self) -> dict:
        out = {}
        for metric in METRIC_NAMES:
            values = [e[metric] for e in self.entries.values() if metric in e]
            if values:
                out[metric] = float(np.mean(values))
        return out

    def average_discrepancies(self, tolerance: float = AVERAGE_TOLERANCE) -> dict:
        """Stored-average cells that disagree with the recomputed mean."""
        recomputed = self.recompute_average()
        return {
            metric: abs(recomputed[metric] - stored)
            for metric, stored in self.average.items()
            if metric in recomputed and abs(recomputed[metric] - stored) > tolerance
        }


# Bundled-table language code -> FLORES-200 code, the naming of datagen and
# NLLB.  A macrolanguage maps to the written standard FLORES-200 lists for it
# (ar, fa, sw; both tables' Chinese captions are in simplified script).  Left
# out: "no" (Bokmal and Nynorsk are separate FLORES-200 entries), "fil"
# (FLORES-200 has Tagalog), "quz" (Cusco Quechua; FLORES-200 has Ayacucho) and
# dataset names such as "coco_cn".
TABLE_TO_FLORES = {
    "ar": "arb_Arab", "bn": "ben_Beng", "cs": "ces_Latn", "da": "dan_Latn",
    "de": "deu_Latn", "el": "ell_Grek", "en": "eng_Latn", "es": "spa_Latn",
    "fa": "pes_Arab", "fi": "fin_Latn", "fr": "fra_Latn", "he": "heb_Hebr",
    "hi": "hin_Deva", "hr": "hrv_Latn", "hu": "hun_Latn", "id": "ind_Latn",
    "it": "ita_Latn", "ja": "jpn_Jpan", "jp": "jpn_Jpan", "ko": "kor_Hang",
    "mi": "mri_Latn", "nl": "nld_Latn", "pl": "pol_Latn", "pt": "por_Latn",
    "ro": "ron_Latn", "ru": "rus_Cyrl", "sv": "swe_Latn", "sw": "swh_Latn",
    "te": "tel_Telu", "th": "tha_Thai", "tr": "tur_Latn", "uk": "ukr_Cyrl",
    "vi": "vie_Latn", "zh": "zho_Hans",
}


def _baseline_root():
    return resources.files(__package__).joinpath("baselines")


def list_baseline_tables() -> list:
    """Sorted (source, model) pairs available via load_baseline_table."""
    pairs = set()
    for entry in _baseline_root().iterdir():
        if entry.name.endswith(".csv"):
            lines = entry.read_text(encoding="utf-8").splitlines()[1:]
            pairs.update((line.split(",")[8], line.split(",")[0]) for line in lines if line)
    return sorted(pairs)


def load_baseline_table(source: str, model: str) -> BaselineTable:
    path = _baseline_root().joinpath(f"{source}.csv")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (FileNotFoundError, OSError):
        known = sorted({s for s, _ in list_baseline_tables()})
        raise ComparisonError(f"no baseline source {source!r}; bundled: {known}") from None
    entries, average = {}, {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] != model:
            continue
        metrics = {
            name: float(cell) for name, cell in zip(METRIC_NAMES, cells[2:8]) if cell
        }
        if cells[1] == AVERAGE_ROW:
            average = metrics
        else:
            entries[cells[1]] = metrics
    if not entries:
        known = sorted({m for s, m in list_baseline_tables() if s == source})
        raise ComparisonError(f"no model {model!r} in source {source!r}; has {known}")
    return BaselineTable(model=model, source=source, entries=entries, average=average)


def baseline_from_report(report: MetricReport, model: str, source: str) -> BaselineTable:
    """View a run report as a baseline table (useful for run-to-run deltas)."""
    return BaselineTable(
        model=model,
        source=source,
        entries={language: row.as_dict() for language, row in report.rows.items()},
        average=report.average.as_dict(),
    )


def baseline_keys(languages, baseline: BaselineTable) -> dict:
    """{language: baseline entry name} for those of ``languages`` the table
    covers, under the same code or through ``TABLE_TO_FLORES``."""
    keys = {code: code for code in baseline.entries}
    keys.update({TABLE_TO_FLORES[c]: c for c in baseline.entries if c in TABLE_TO_FLORES})
    return {lang: keys[lang] for lang in languages if lang in keys}


@dataclass(frozen=True)
class BaselineComparison:
    model: str
    source: str
    languages: tuple
    deltas: dict
    average_delta: dict


def compare_to_baseline(report: MetricReport, baseline: BaselineTable) -> BaselineComparison:
    """Per-language and average report-minus-baseline deltas.

    Report languages are matched to table entries by ``baseline_keys`` and
    keep their own names in the deltas.

    Average deltas use the table's stored average cell when present,
    otherwise the mean of its per-language entries.
    """
    keys = baseline_keys(report.rows, baseline)
    if not keys:
        raise ComparisonError(
            f"no shared languages: report has {sorted(report.rows)},"
            f" baseline {baseline.source}/{baseline.model} has {sorted(baseline.entries)}"
        )
    deltas = {}
    for language, key in keys.items():
        row = report.rows[language]
        deltas[language] = {
            metric: getattr(row, metric) - value
            for metric, value in baseline.entries[key].items()
        }
    reference = baseline.recompute_average()
    reference.update(baseline.average)
    average_delta = {
        metric: getattr(report.average, metric) - value
        for metric, value in reference.items()
    }
    return BaselineComparison(
        model=baseline.model,
        source=baseline.source,
        languages=tuple(keys),
        deltas=deltas,
        average_delta=average_delta,
    )
