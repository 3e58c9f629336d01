"""The seven benchmark datasets (paper Table 1 / Appendix B), synthesized.

Each ``make_*`` builder returns a :class:`Dataset`: the relational table
with the exact Appendix-B field names, the declared functional
dependencies, per-row ground-truth labels for the filter/RAG accuracy
study, the field carrying the label signal (``key_field``, used by the
order-sensitive judges), and the Table-1 output-length profile per query
type.

``scale`` multiplies the paper's row counts (``scale=1.0`` reproduces the
full sizes; tests use much smaller scales). All randomness is derived from
``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fd import FunctionalDependencies
from repro.data.textgen import TextGenerator
from repro.errors import DataGenError
from repro.relational.table import Table


@dataclass
class Dataset:
    """One benchmark dataset plus the metadata the harness needs."""

    name: str
    table: Table
    fds: FunctionalDependencies
    labels: List[str]
    label_domain: Tuple[str, ...]
    key_field: str
    output_tokens: Dict[str, int]
    paper_rows: int
    paper_fields: int
    paper_input_avg: int
    corpus: Optional[List[str]] = None
    questions: Optional[List[str]] = None

    @property
    def n_rows(self) -> int:
        return self.table.n_rows


def _n_rows(paper_rows: int, scale: float) -> int:
    if scale <= 0:
        raise DataGenError(f"scale must be positive, got {scale}")
    if not math.isfinite(scale):
        raise DataGenError(f"scale must be finite, got {scale}")
    return max(30, int(paper_rows * scale))


# --------------------------------------------------------------------- Movies
KID_GENRES = ("Animation", "Family", "Adventure")
ALL_GENRES = KID_GENRES + (
    "Horror", "Thriller", "Drama", "Comedy", "Romance", "Sci-Fi", "Crime",
)


def make_movies(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Rotten Tomatoes reviews joined with movie metadata.

    The join repeats ``movieinfo``/``movietitle``/``rottentomatoeslink``
    (a declared FD group) across each movie's reviews while
    ``reviewcontent`` stays unique — exactly the structure §6.2 credits for
    GGR's gains on review datasets.
    """
    n = _n_rows(15000, scale)
    tg = TextGenerator(seed=seed, domain="movies")
    n_movies = max(4, n // 12)
    companies = [tg.name(tg.rng("comp", i)) + " Pictures" for i in range(20)]

    movies = []
    for m in range(n_movies):
        rng = tg.rng("movie", m)
        title = tg.name(rng, 2)
        kid = rng.random() < 0.4
        genre = rng.choice(KID_GENRES if kid else ALL_GENRES[3:])
        movies.append(
            {
                "movietitle": title,
                "movieinfo": tg.paragraph(rng, 105),
                "rottentomatoeslink": "rt.com/m/" + title.lower().replace(" ", "_"),
                "genres": genre + "|" + rng.choice(ALL_GENRES),
                "productioncompany": rng.choice(companies),
                "kid": kid,
            }
        )

    rows, labels = [], []
    for i in range(n):
        rng = tg.rng("review", i)
        movie = movies[tg.zipf_index(rng, n_movies)]
        # Default column order starts with the per-review (distinct) text,
        # matching the paper's observation that joined review tables "often
        # begin with a review content field" (§6.2) — the worst case for a
        # fixed ordering.
        rows.append(
            {
                "reviewcontent": tg.paragraph(rng, 55),
                "reviewtype": rng.choice(("Fresh", "Rotten")),
                "genres": movie["genres"],
                "movieinfo": movie["movieinfo"],
                "movietitle": movie["movietitle"],
                "productioncompany": movie["productioncompany"],
                "rottentomatoeslink": movie["rottentomatoeslink"],
                "topcritic": rng.random() < 0.3,
            }
        )
        labels.append("Yes" if movie["kid"] else "No")

    return Dataset(
        name="Movies",
        table=Table.from_records(rows, name="movies"),
        fds=FunctionalDependencies.from_groups(
            [["movieinfo", "movietitle", "rottentomatoeslink"]]
        ),
        labels=labels,
        label_domain=("Yes", "No"),
        key_field="movieinfo",
        output_tokens={"T1": 2, "T2": 29, "T3": 16, "T4": 2},
        paper_rows=15000,
        paper_fields=8,
        paper_input_avg=276,
    )


# ------------------------------------------------------------------- Products
def make_products(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Amazon product reviews joined with product metadata."""
    n = _n_rows(14890, scale)
    tg = TextGenerator(seed=seed, domain="products")
    n_products = max(4, n // 15)

    products = []
    for p in range(n_products):
        rng = tg.rng("product", p)
        products.append(
            {
                "parent_asin": f"B{p:08d}",
                "product_title": tg.name(rng, 3),
                "description": tg.paragraph(rng, 170),
            }
        )

    rows, labels = [], []
    for i in range(n):
        rng = tg.rng("review", i)
        prod = products[tg.zipf_index(rng, n_products)]
        sentiment_draw = rng.random()
        if sentiment_draw < 0.55:
            label, rating = "POSITIVE", rng.choice((4, 5))
        elif sentiment_draw < 0.8:
            label, rating = "NEGATIVE", rng.choice((1, 2))
        else:
            label, rating = "NEUTRAL", 3
        # Review text and unique id lead the default order (see Movies).
        rows.append(
            {
                "text": tg.paragraph(rng, 110),
                "review_title": tg.sentence(rng, 4),
                "id": f"R{i:09d}",
                "rating": rating,
                "verified_purchase": rng.random() < 0.8,
                "description": prod["description"],
                "parent_asin": prod["parent_asin"],
                "product_title": prod["product_title"],
            }
        )
        labels.append(label)

    return Dataset(
        name="Products",
        table=Table.from_records(rows, name="products"),
        fds=FunctionalDependencies.from_groups([["parent_asin", "product_title"]]),
        labels=labels,
        label_domain=("POSITIVE", "NEGATIVE", "NEUTRAL"),
        key_field="text",
        output_tokens={"T1": 3, "T2": 107, "T3": 62, "T4": 2},
        paper_rows=14890,
        paper_fields=8,
        paper_input_avg=377,
    )


# ----------------------------------------------------------------------- BIRD
def make_bird(scale: float = 1.0, seed: int = 0) -> Dataset:
    """BIRD Posts x Comments joined by PostId (the paper's footnote 1)."""
    n = _n_rows(14920, scale)
    tg = TextGenerator(seed=seed, domain="bird")
    n_posts = max(4, n // 8)

    posts = []
    for p in range(n_posts):
        rng = tg.rng("post", p)
        stats = rng.random() < 0.5
        posts.append(
            {
                "PostId": str(100000 + p),
                "Body": tg.paragraph(rng, 420),
                "PostDate": f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                "stats": stats,
            }
        )

    rows, labels = [], []
    for i in range(n):
        rng = tg.rng("comment", i)
        post = posts[tg.zipf_index(rng, n_posts)]
        # The per-comment Text leads the default order (distinct values
        # first — the joined BIRD Posts x Comments shape, original PHR ~10%).
        rows.append(
            {
                "Text": tg.paragraph(rng, 240),
                "PostDate": post["PostDate"],
                "Body": post["Body"],
                "PostId": post["PostId"],
            }
        )
        labels.append("YES" if post["stats"] else "NO")

    return Dataset(
        name="BIRD",
        table=Table.from_records(rows, name="bird"),
        fds=FunctionalDependencies.from_groups([["Body", "PostId"]]),
        labels=labels,
        label_domain=("YES", "NO"),
        key_field="Body",
        output_tokens={"T1": 2, "T2": 43},
        paper_rows=14920,
        paper_fields=4,
        paper_input_avg=765,
    )


# ----------------------------------------------------------------------- PDMX
_PDMX_EXTRA_BOOLS = (
    "hascustomaudio", "hascustomvideo", "haslyrics", "haspaywall",
    "isbestarrangement", "isbestpath", "isbestuniquearrangement",
    "isoriginal", "isuserpro", "isuserstaff",
    "subsetdeduplicated", "subsetrated", "subsetrateddeduplicated",
)
_PDMX_COUNTS = (
    "nannotations", "ncomments", "nfavorites", "nlyrics", "notesperbar",
    "nnotes", "nratings", "ntracks", "ntokens", "nviews",
)


def make_pdmx(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Public Domain MusicXML: 57 mostly-short fields, long unique text.

    Two Appendix-B FD groups hold exactly by construction:
    ``[metadata, path]`` (both derive from the song id) and the boolean
    group ``[hasannotations, hasmetadata, isdraft, isofficial,
    isuserpublisher, subsetall]`` (all bijective images of one latent flag).

    Songs belong to latent *families* (same arranger community / genre):
    the structural fields — genre, complexity, consistency scores, track
    layout, flags — repeat within a family, the way real MusicXML corpora
    repeat arrangement metadata. That correlated mass is what GGR's
    reordering recovers (the paper lifts PDMX from 12% to 57% PHR); the
    long per-song ``text`` stays unique, which is why PDMX's hit rate
    stays the lowest of all datasets.
    """
    n = _n_rows(10000, scale)
    tg = TextGenerator(seed=seed, domain="pdmx")
    artists = [tg.name(tg.rng("artist", i)) for i in range(max(3, n // 25))]
    composers = [tg.name(tg.rng("composer", i)) for i in range(max(3, n // 40))]
    genres = [tg.name(tg.rng("genre", i), 1) for i in range(15)]
    licenses = ["CC0", "CC-BY", "CC-BY-SA", "PD"]

    n_families = max(3, n // 50)
    families = []
    for f in range(n_families):
        rng = tg.rng("family", f)
        flag = rng.random() < 0.5
        lic = rng.choice(licenses)
        fam = {
            "artistname": artists[tg.zipf_index(rng, len(artists))],
            "bestarrangement": str(rng.random() < 0.5).lower(),
            "bestpath": f"/best/{rng.randint(0, 6)}",
            "bestuniquearrangement": str(rng.random() < 0.5).lower(),
            "composername": composers[tg.zipf_index(rng, len(composers))],
            "complexity": rng.randint(1, 5),
            "genre": rng.choice(genres),
            "grooveconsistency": round(rng.random(), 3),
            "groups": f"g{rng.randint(0, 8)}",
            "hasannotations": str(flag).lower(),
            "hasmetadata": str(flag).lower(),
            "isdraft": str(not flag).lower(),
            "isofficial": str(flag).lower(),
            "isuserpublisher": str(flag).lower(),
            "license": lic,
            "licenseurl": (
                f"https://creativecommons.example.org/licenses/{lic.lower()}"
                "/4.0/legalcode.en"
            ),
            "pitchclassentropy": round(rng.random() * 4, 3),
            "publisher": artists[tg.zipf_index(rng, len(artists))],
            "scaleconsistency": round(rng.random(), 3),
            "subsetall": str(flag).lower(),
            "tags": ",".join(sorted(rng.choice(genres) for _ in range(3))),
            "tracks": f"t{rng.randint(1, 6)}",
            "version": f"v{rng.randint(1, 4)}",
        }
        for name in _PDMX_EXTRA_BOOLS:
            fam[name] = str(rng.random() < 0.5).lower()
        families.append(fam)

    rows, labels = [], []
    for i in range(n):
        rng = tg.rng("song", i)
        fam = families[tg.zipf_index(rng, n_families)]
        person = rng.random() < 0.4
        title = tg.name(rng, 3)
        text = tg.paragraph(rng, 110)
        if person:
            text = f"Dedicated to {tg.name(rng, 2)}. " + text
        # Long unique text and unique id lead the default order (PDMX's
        # "many unique, lengthy text entries", original PHR ~12%).
        row = {
            "text": text,
            "id": f"pdmx-{i:07d}",
            "title": title,
            "metadata": f"meta-{i:07d}",
            "path": f"/scores/{i:07d}.xml",
            "postdate": f"2022-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "postid": str(50000 + i),
            "rating": round(rng.random() * 5, 1),
            "songlength": rng.randint(30, 600),
            "songlengthbars": rng.randint(8, 200),
            "songlengthbeats": rng.randint(32, 800),
            "songlengthseconds": rng.randint(30, 600),
            "songname": title,
            "subtitle": tg.sentence(rng, 3),
        }
        row.update(fam)
        for name in _PDMX_COUNTS:
            # Heavily skewed counts: most songs have few views/comments,
            # so small values repeat across rows (shareable mass).
            row[name] = int(500 * rng.random() ** 4)
        rows.append(row)
        labels.append("YES" if person else "NO")

    return Dataset(
        name="PDMX",
        table=Table.from_records(rows, name="pdmx"),
        fds=FunctionalDependencies.from_groups(
            [
                ["metadata", "path"],
                ["hasannotations", "hasmetadata", "isdraft", "isofficial",
                 "isuserpublisher", "subsetall"],
            ]
        ),
        labels=labels,
        label_domain=("YES", "NO"),
        key_field="text",
        output_tokens={"T1": 2, "T2": 72},
        paper_rows=10000,
        paper_fields=57,
        paper_input_avg=738,
    )


# ----------------------------------------------------------------------- Beer
EURO_STYLES = ("Pilsner", "Dubbel", "Tripel", "Saison", "Hefeweizen", "Lambic")
OTHER_STYLES = ("IPA", "Pale Ale", "Stout", "Porter", "Amber", "Cream Ale")


def make_beer(scale: float = 1.0, seed: int = 0) -> Dataset:
    """RateBeer reviews: short fields, heavy natural duplication.

    Reviews arrive in short per-user bursts so the *original* ordering
    already repeats ``review/profileName``/beer fields across neighbours —
    reproducing the ~50% original hit rate the paper reports for Beer.
    """
    n = _n_rows(28479, scale)
    tg = TextGenerator(seed=seed, domain="beer")
    n_beers = max(4, n // 40)
    beers = []
    for b in range(n_beers):
        rng = tg.rng("beer", b)
        euro = rng.random() < 0.45
        beers.append(
            {
                "beer/beerId": str(7000 + b),
                "beer/name": tg.name(rng, 2) + " " + rng.choice(
                    EURO_STYLES if euro else OTHER_STYLES
                ),
                "beer/style": rng.choice(EURO_STYLES if euro else OTHER_STYLES),
                "euro": euro,
            }
        )
    users = [tg.name(tg.rng("user", u), 1) + str(u) for u in range(max(3, n // 60))]

    rows, labels = [], []
    i = 0
    while len(rows) < n:
        rng = tg.rng("burst", i)
        i += 1
        user = users[tg.zipf_index(rng, len(users))]
        beer = beers[tg.zipf_index(rng, n_beers)]
        for _ in range(rng.randint(2, 5)):
            if len(rows) >= n:
                break
            # Within a burst the reviewer sometimes moves to another beer,
            # which caps the *original* ordering's adjacency (the paper
            # reports ~50% original hit rate for Beer, not more).
            if rng.random() > 0.55:
                beer = beers[tg.zipf_index(rng, n_beers)]
            # Column order follows the raw RateBeer dump: the (unique)
            # timestamp sits between the duplicated beer/user fields and
            # the ratings, capping the original ordering's prefix at the
            # early duplicated fields (§6.2 reports ~50% original PHR);
            # GGR recovers the ratings by moving the timestamp last.
            rows.append(
                {
                    "beer/beerId": beer["beer/beerId"],
                    "beer/name": beer["beer/name"],
                    "beer/style": beer["beer/style"],
                    "review/profileName": user,
                    "review/time": str(1300000000 + rng.randint(0, 10**8)),
                    "review/appearance": f"{rng.randint(2, 10) / 2:.1f}",
                    "review/overall": f"{rng.randint(2, 10) / 2:.1f}",
                    "review/palate": f"{rng.randint(2, 10) / 2:.1f}",
                    "review/taste": f"{rng.randint(2, 10) / 2:.1f}",
                }
            )
            labels.append("YES" if beer["euro"] else "NO")

    return Dataset(
        name="Beer",
        table=Table.from_records(rows, name="beer"),
        fds=FunctionalDependencies.from_groups([["beer/beerId", "beer/name"]]),
        labels=labels,
        label_domain=("YES", "NO"),
        # The judge keys on the reviewer field: GGR pulls it toward the
        # front (it is heavily duplicated), which models the paper's small
        # accuracy drop on Beer.
        key_field="review/profileName",
        output_tokens={"T1": 2, "T2": 38},
        paper_rows=28479,
        paper_fields=8,
        paper_input_avg=156,
    )


# ------------------------------------------------------------------ RAG bases
def _make_rag_dataset(
    name: str,
    paper_rows: int,
    scale: float,
    seed: int,
    n_contexts: int,
    context_tokens: int,
    question_field: str,
    context_prefix: str,
    label_domain: Tuple[str, ...],
    output_tokens: Dict[str, int],
    paper_fields: int,
    paper_input_avg: int,
) -> Dataset:
    from repro.rag.retriever import Retriever  # local import: substrate layering

    n = _n_rows(paper_rows, scale)
    tg = TextGenerator(seed=seed, domain=name.lower())
    n_passages = max(n_contexts + 1, n // 12)
    # Passages cluster into topics (entities/pages in the real corpora):
    # passages of one topic share a topical vocabulary, so questions about
    # that topic retrieve a consistent evidence neighborhood — the sharing
    # GGR exploits in the paper's RAG experiments (§6.2).
    passages_per_topic = max(n_contexts + 2, 8)
    n_topics = max(1, n_passages // passages_per_topic)
    topic_vocab = {
        t: [tg.vocab[i % len(tg.vocab)] for i in range(t * 37, t * 37 + 40)]
        for t in range(n_topics)
    }
    corpus, topics = [], []
    for p in range(n_passages):
        rng = tg.rng("passage", p)
        topic = p % n_topics
        within = p // n_topics
        words = topic_vocab[topic]
        n_words = max(8, int(context_tokens / 1.35))
        # Topicality decays with the passage's rank inside its topic, so
        # every topic has a stable "most relevant" subset: questions about
        # the topic retrieve (mostly) the same top-k evidence set, which is
        # the repetition structure the paper's RAG queries exhibit.
        topical_fraction = max(0.25, 0.9 - 0.14 * within)
        body = " ".join(
            rng.choice(words) if rng.random() < topical_fraction else rng.choice(tg.vocab)
            for _ in range(n_words)
        )
        corpus.append(body)
        topics.append(topic)

    questions, labels = [], []
    for i in range(n):
        rng = tg.rng("question", i)
        src = tg.zipf_index(rng, n_passages)
        # Quote topical words so hashing retrieval finds the neighborhood.
        snippet = " ".join(rng.choice(topic_vocab[topics[src]]) for _ in range(16))
        questions.append(f"{tg.sentence(rng, 3)} {snippet}?")
        labels.append(label_domain[rng.randrange(len(label_domain))])

    retriever = Retriever(corpus)
    table = retriever.retrieve_table(
        questions, k=n_contexts,
        question_field=question_field, context_prefix=context_prefix,
    )
    return Dataset(
        name=name,
        table=table,
        fds=FunctionalDependencies.empty(),
        labels=labels,
        label_domain=label_domain,
        key_field=question_field,
        output_tokens=output_tokens,
        paper_rows=paper_rows,
        paper_fields=paper_fields,
        paper_input_avg=paper_input_avg,
        corpus=corpus,
        questions=questions,
    )


def make_fever(scale: float = 1.0, seed: int = 0) -> Dataset:
    """FEVER fact verification: claim + 4 retrieved evidence passages."""
    return _make_rag_dataset(
        name="FEVER",
        paper_rows=19929,
        scale=scale,
        seed=seed,
        n_contexts=4,
        context_tokens=300,
        question_field="claim",
        context_prefix="evidence",
        label_domain=("SUPPORTS", "REFUTES", "NOT ENOUGH INFO"),
        output_tokens={"T5": 3},
        paper_fields=5,
        paper_input_avg=1302,
    )


def make_squad(scale: float = 1.0, seed: int = 0) -> Dataset:
    """SQuAD QA: question + 5 retrieved contexts (open-ended answers)."""
    ds = _make_rag_dataset(
        name="SQuAD",
        paper_rows=22665,
        scale=scale,
        seed=seed,
        n_contexts=5,
        context_tokens=190,
        question_field="question",
        context_prefix="context",
        label_domain=("span",),
        output_tokens={"T5": 11},
        paper_fields=5,
        paper_input_avg=1047,
    )
    # Open-ended answers: synthesize short answer spans as labels.
    tg = TextGenerator(seed=seed, domain="squad-answers")
    ds.labels = [tg.words(tg.rng("ans", i), 3) for i in range(ds.n_rows)]
    ds.label_domain = ()
    return ds


DATASET_BUILDERS: Dict[str, Callable[..., Dataset]] = {
    "movies": make_movies,
    "products": make_products,
    "bird": make_bird,
    "pdmx": make_pdmx,
    "beer": make_beer,
    "fever": make_fever,
    "squad": make_squad,
}


def build_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Build one dataset by (case-insensitive) name."""
    try:
        builder = DATASET_BUILDERS[name.lower()]
    except KeyError:
        raise DataGenError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_BUILDERS)}"
        ) from None
    return builder(scale=scale, seed=seed)
