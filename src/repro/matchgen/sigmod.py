"""Synthetic SIGMOD-2021-contest-like datasets (DESIGN.md substitution 1).

The paper's Appendix C profiles and cross-evaluates the contest's notebook
datasets D2 (dense, very textual) and D3 (sparse), each with a train split
X and a test split Z, plus the Altosight product dataset (X4/Z4) used in the
§5.4 case study. The original data is not redistributable, so this module
generates datasets that hit the paper's Table-2 profile targets by
construction, at 1/20 tuple-count scale:

======== ======== ======= ======= ========== ==========
 split    records  SP       TX      PR         VS(X, Z)
======== ======== ======= ======= ========== ==========
 X2       2 910    11.1%   27.99   2.2%       59.0%  (D2)
 Z2         945    19.7%   23.69   3.6%
 X3       2 829    50.1%   15.53   2.2%       37.7%  (D3)
 Z3       1 787    42.6%   15.35   12.1%
======== ======== ======= ======= ========== ==========

Shared schema (the paper: "D2 and D3 share the same schema"):
``rid, title, description, brand, cpu, ram, hdd``. Ground truth is a
clustering by product entity; the labeled pair universe (as shipped by the
contest) contains all true duplicate pairs plus sampled hard/random
negatives, sized to hit the PR target. Vocabulary similarity is controlled
by per-split description-word pools with a tuned overlap, on top of the
shared product catalog.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.pairs import by_pair
from repro.matchgen.corrupt import corrupt_value, drop_token, swap_tokens, typo

_BRANDS = [
    "lenovo", "dell", "hp", "asus", "acer", "apple", "msi", "toshiba",
    "samsung", "fujitsu", "medion", "razer",
]
_SERIES = [
    "thinkpad", "ideapad", "latitude", "inspiron", "pavilion", "zenbook",
    "vivobook", "aspire", "swift", "macbook", "stealth", "satellite",
]
_CPU_FAMILIES = ["i3", "i5", "i7", "i9", "ryzen3", "ryzen5", "ryzen7"]
_RAM = ["4 gb", "8 gb", "12 gb", "16 gb", "32 gb"]
_HDD = ["128 gb ssd", "256 gb ssd", "512 gb ssd", "1 tb hdd", "2 tb hdd"]

_SYL_A = ["be", "co", "da", "fe", "gi", "ho", "ja", "ke", "lu", "mi",
          "no", "pa", "qu", "ri", "so", "tu", "ve", "wo", "xe", "zy"]
_SYL_B = ["lar", "men", "nor", "pex", "quil", "ros", "tan", "ver", "wix",
          "zon", "bal", "cum", "dor", "fin", "gal", "hem", "jin", "kol"]


def _word_pool(n: int, rng: np.random.Generator, tag: str) -> list[str]:
    """``n`` unique pseudo-words; ``tag`` keeps pools of different datasets disjoint."""
    out, seen = [], set()
    while len(out) < n:
        w = (
            str(rng.choice(_SYL_A))
            + str(rng.choice(_SYL_B))
            + str(rng.choice(_SYL_A))
            + (str(rng.integers(0, 100)) if rng.random() < 0.3 else "")
            + tag
        )
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _catalog(n_entities: int, rng: np.random.Generator) -> list[dict]:
    """The clean product catalog both splits of a dataset draw from.

    Model and CPU codes are drawn from small reusable code pools (as real
    vendors reuse model-number schemes) so the split vocabularies are not
    flooded with entity-unique tokens; occasional code collisions between
    different entities are realistic corner cases (§3.1).
    """
    model_nums = [str(rng.integers(100, 9999)) for _ in range(300)]
    cpu_nums = [str(rng.integers(2000, 9999)) for _ in range(250)]
    out = []
    for i in range(n_entities):
        brand = str(rng.choice(_BRANDS))
        series = str(rng.choice(_SERIES))
        fam = str(rng.choice(_CPU_FAMILIES))
        model = f"{series[:3]}{rng.choice(model_nums)}"
        cpu = f"intel core {fam}-{rng.choice(cpu_nums)}u"
        if fam.startswith("ryzen"):
            cpu = f"amd {fam} {rng.choice(cpu_nums)}u"
        out.append(
            {
                "entity": f"e{i}",
                "brand": brand,
                "series": series,
                "model": model,
                "cpu": cpu,
                "ram": str(rng.choice(_RAM)),
                "hdd": str(rng.choice(_HDD)),
            }
        )
    return out


@dataclass(frozen=True)
class SplitSpec:
    """Generation targets of one train/test split."""

    name: str
    n_unique: int  # entities appearing with a single record
    dup2: int  # entities with a 2-record duplicate cluster
    dup3: int  # entities with a 3-record duplicate cluster
    positive_ratio: float  # PR target over the labeled universe
    desc_len: int  # description length in words (drives TX)
    null_desc: float  # null prob of description
    null_structured: float  # null prob of brand/cpu/ram/hdd (drives SP)
    boilerplate: bool = False  # D2 reuses per-brand boilerplate descriptions

    @property
    def n_records(self) -> int:
        return self.n_unique + 2 * self.dup2 + 3 * self.dup3

    @property
    def n_entities(self) -> int:
        return self.n_unique + self.dup2 + self.dup3


# Targets derived analytically from the Table-2 goals (see module docstring);
# tuple counts are the paper's at 1/20 scale.
SPECS: dict[tuple[str, str], SplitSpec] = {
    ("D2", "train"): SplitSpec("x2", 2100, 300, 70, 0.022, 130, 0.0, 0.1665, True),
    ("D2", "test"): SplitSpec("z2", 700, 100, 15, 0.036, 96, 0.0, 0.2958, True),
    ("D3", "train"): SplitSpec("x3", 2000, 350, 43, 0.022, 69, 0.55, 0.614),
    ("D3", "test"): SplitSpec("z3", 1200, 220, 49, 0.121, 67, 0.45, 0.527),
}

_CATALOG_SIZE = {"D2": 3000, "D3": 3000}
_POOL = {  # (per-split pool size, shared fraction) controlling VS
    "D2": (3000, 0.84),
    "D3": (2500, 0.458),
}
_DATASET_SEED = {"D2": 20, "D3": 30}


@dataclass
class SigmodSplit:
    """One generated split: records, gold, and the labeled pair universe."""

    name: str
    dataset: DataFrame
    gold_clustering: DataFrame
    gold_pairs: DataFrame
    labeled_pairs: DataFrame  # (id1, id2, label) — the contest-style universe
    n_labeled: int  # rows of labeled_pairs: the universe size, known without a job


def _gold_pairs(gold: list[dict]) -> list[tuple[str, str]]:
    """All intra-cluster pairs of a ``{rid, cluster}`` list, canonical id1 < id2."""
    by_cluster: dict[str, list[str]] = {}
    for g in gold:
        by_cluster.setdefault(g["cluster"], []).append(g["rid"])
    return [
        (min(a, b), max(a, b))
        for members in by_cluster.values()
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    ]


def _make_split(
    spark: SparkSession,
    name: str,
    rows: list[dict],
    gold: list[dict],
    pos: list[tuple[str, str]],
    neg: list[tuple[str, str]],
) -> SigmodSplit:
    """The split of records ``rows``: gold pairs ``pos``, labeled ``pos`` + ``neg``."""
    labeled = pd.DataFrame(
        [(a, b, 1) for a, b in pos] + [(a, b, 0) for a, b in neg],
        columns=["id1", "id2", "label"],
    )
    return SigmodSplit(
        name=name,
        dataset=spark.createDataFrame(pd.DataFrame(rows)),
        gold_clustering=spark.createDataFrame(pd.DataFrame(gold)),
        # Laid out like a matcher result, so comparing the two shuffles neither.
        gold_pairs=by_pair(spark.createDataFrame(pd.DataFrame(pos, columns=["id1", "id2"]))),
        labeled_pairs=spark.createDataFrame(labeled),
        n_labeled=len(labeled),
    )


def _title(ent: dict, rng: np.random.Generator, noise: list[str]) -> str:
    picks = [str(rng.choice(noise)) for _ in range(4)]
    return " ".join(
        [ent["brand"], ent["series"], ent["model"], ent["cpu"], ent["ram"], *picks]
    )


def _scale_spec(spec: SplitSpec, scale: float) -> SplitSpec:
    if scale == 1.0:
        return spec
    return replace(
        spec,
        n_unique=max(10, int(spec.n_unique * scale)),
        dup2=max(2, int(spec.dup2 * scale)),
        dup3=max(1, int(spec.dup3 * scale)),
    )


def sigmod_split(
    spark: SparkSession,
    dataset_id: str,
    split: str,
    *,
    scale: float = 1.0,
    seed: int | None = None,
) -> SigmodSplit:
    """Generate split ``split`` ("train"/"test") of dataset "D2" or "D3".

    ``scale`` shrinks the record counts for unit tests (PR/SP/TX/VS targets
    are scale-invariant). Train and test share a product catalog and part of
    the description-word pool, so vocabulary similarity lands near the
    paper's target.
    """
    spec = _scale_spec(SPECS[(dataset_id, split)], scale)
    base_seed = _DATASET_SEED[dataset_id] if seed is None else seed
    cat_rng = np.random.default_rng(base_seed)  # shared between splits
    catalog = _catalog(max(20, int(_CATALOG_SIZE[dataset_id] * scale)), cat_rng)
    pool_size, shared_frac = _POOL[dataset_id]
    pool_size = max(50, int(pool_size * max(scale, 0.05)))
    shared = _word_pool(int(pool_size * shared_frac), cat_rng, "")
    only_train = _word_pool(pool_size - len(shared), cat_rng, "t")
    only_test = _word_pool(pool_size - len(shared), cat_rng, "s")
    pool = shared + (only_train if split == "train" else only_test)

    # D2 vendors copy-paste per-brand marketing boilerplate across *different*
    # products: entities flagged here reuse one of a few brand templates as
    # their description. This is the learnable trap behind the paper's
    # X3 -> D2 transfer loss: matchers developed on D3 (no boilerplate) lean
    # on description similarity and collect false positives on D2, while
    # matchers developed on X2 see the trap in training and discount it.
    boiler_texts: dict[str, list[str]] = {}
    boiler_of: dict[str, int | None] = {}
    if spec.boilerplate:
        for b in _BRANDS:
            boiler_texts[b] = [
                " ".join(_word_pool(140, cat_rng, ""))
                for _ in range(3)
            ]
        for ent in catalog:
            boiler_of[ent["entity"]] = (
                int(cat_rng.integers(0, 3)) if cat_rng.random() < 0.35 else None
            )

    rng = np.random.default_rng(base_seed + (1 if split == "train" else 2))
    entities = [
        catalog[i]
        for i in rng.choice(len(catalog), size=spec.n_entities, replace=False)
    ]
    rows, gold = [], []
    rid_n = 0

    def emit(ent: dict, title: str, desc: str, corrupted: bool) -> None:
        nonlocal rid_n
        rid = f"{spec.name}_{rid_n:05d}"
        rid_n += 1
        brand, cpu, ram, hdd = ent["brand"], ent["cpu"], ent["ram"], ent["hdd"]
        if corrupted:
            # Token-preserving noise first (word order / dropped words
            # between sources), plus a real typo in the title: keeps the
            # vocabulary overlap between splits intact while still
            # challenging matchers.
            title = typo(swap_tokens(title, rng), rng)
            desc = drop_token(swap_tokens(desc, rng), rng)
            if rng.random() < 0.3:
                brand = typo(brand, rng)
            if rng.random() < 0.3:
                cpu = typo(cpu, rng)
        row = {
            "rid": rid,
            "title": title,
            "description": None if rng.random() < spec.null_desc else desc,
            "brand": None if rng.random() < spec.null_structured else brand,
            "cpu": None if rng.random() < spec.null_structured else cpu,
            "ram": None if rng.random() < spec.null_structured else ram,
            "hdd": None if rng.random() < spec.null_structured else hdd,
        }
        rows.append(row)
        gold.append({"rid": rid, "cluster": f"{spec.name}_{ent['entity']}"})

    cluster_sizes = [1] * spec.n_unique + [2] * spec.dup2 + [3] * spec.dup3
    rng.shuffle(cluster_sizes)
    entity_boiler: dict[str, str] = {}  # rid -> "brand/idx" boilerplate key
    for ent, size in zip(entities, cluster_sizes):
        # Canonical texts of the entity: duplicate records are *corruptions*
        # of these, so title/description similarity carries real signal.
        title = _title(ent, rng, pool)
        bidx = boiler_of.get(ent["entity"])
        if bidx is not None:
            desc = " ".join(
                boiler_texts[ent["brand"]][bidx].split()[: spec.desc_len]
            )
            boiler_key = f"{ent['brand']}/{bidx}"
        else:
            desc = " ".join(rng.choice(pool, size=spec.desc_len))
            boiler_key = ""
        first_rid = rid_n
        emit(ent, title, desc, corrupted=False)
        for _ in range(size - 1):
            emit(ent, title, desc, corrupted=True)
        if boiler_key:
            for k in range(first_rid, rid_n):
                entity_boiler[f"{spec.name}_{k:05d}"] = boiler_key

    pos = _gold_pairs(gold)

    # Labeled universe: positives + hard (same-brand) and random negatives.
    n_labeled = round(len(pos) / spec.positive_ratio)
    want_neg = n_labeled - len(pos)
    cluster_of = {r["rid"]: r["cluster"] for r in gold}
    rids = [r["rid"] for r in rows]
    brand_of = {r["rid"]: r["brand"] for r in rows}
    by_brand: dict[str, list[str]] = {}
    for r in rids:
        if brand_of[r] is not None:
            by_brand.setdefault(brand_of[r], []).append(r)
    by_boiler: dict[str, list[str]] = {}
    for r, key in entity_boiler.items():
        by_boiler.setdefault(key, []).append(r)
    boiler_groups = [g for g in by_boiler.values() if len(g) >= 2]
    neg: list[tuple[str, str]] = []
    seen = set(pos)
    brands = [b for b in by_brand if len(by_brand[b]) >= 2]
    while len(neg) < want_neg:
        roll = rng.random()
        if boiler_groups and roll < 0.3:  # hard negative: shared boilerplate
            members = boiler_groups[int(rng.integers(0, len(boiler_groups)))]
            a, b = rng.choice(len(members), size=2, replace=False)
            a, b = members[int(a)], members[int(b)]
        elif brands and roll < 0.65:  # hard negative: same brand
            members = by_brand[brands[int(rng.integers(0, len(brands)))]]
            a, b = rng.choice(len(members), size=2, replace=False)
            a, b = members[int(a)], members[int(b)]
        else:  # random negative
            i, j = rng.choice(len(rids), size=2, replace=False)
            a, b = rids[int(i)], rids[int(j)]
        a, b = min(a, b), max(a, b)
        if (a, b) in seen or cluster_of[a] == cluster_of[b]:
            continue
        seen.add((a, b))
        neg.append((a, b))

    return _make_split(spark, spec.name, rows, gold, pos, neg)


def case_study_dataset(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 44
) -> SigmodSplit:
    """Altosight-X4-like dataset for the §5.4 case study.

    ~835 records in large duplicate clusters (~4 000 gold pairs), matching
    the Table-1 row "Altosight X4: 835 records, 4 005 matched pairs". Most
    matching signal lives in one unstructured, cluttered ``name`` attribute
    (the paper: "most of the matching has to be based on unstructured,
    cluttered information in the attribute *name*"). One record
    (``x4_hard``) carries an extra-corrupted name so that most solutions
    miss its pairs — the contest's ``altosight.com//1420`` analogue.
    """
    rng = np.random.default_rng(seed)
    pool = _word_pool(400, rng, "")
    sizes = []
    # Greedily pick cluster sizes to land near 835 records / 4005 pairs,
    # leaving room for sibling products and singletons.
    records, pairs = 0, 0
    for size in (14, 13, 12, 11, 10):
        while (
            pairs + size * (size - 1) // 2 <= int(4005 * scale)
            and records + size <= int(660 * scale)
        ):
            sizes.append(size)
            records += size
            pairs += size * (size - 1) // 2
    rows, gold = [], []
    rid_n = 0

    def emit(name: str, cluster: str) -> None:
        nonlocal rid_n
        rows.append(
            {
                "rid": f"x4_{rid_n:05d}",
                "name": name,
                "price": round(float(rng.uniform(5, 400)), 2),
            }
        )
        gold.append({"rid": f"x4_{rid_n:05d}", "cluster": cluster})
        rid_n += 1

    def sibling(base: str) -> str:
        """A *different* product with a confusingly similar listing name.

        Same brand and wording, but another capacity and a couple of other
        tokens swapped — the near-miss non-duplicates that make too-low
        similarity thresholds pay in precision (§5.4 threshold finding).
        """
        toks = base.split()
        for i, t in enumerate(toks):
            if t.startswith("usb"):
                toks[i] = f"usb{rng.integers(8, 513)}gb"
        for _ in range(2):
            j = int(rng.integers(2, len(toks)))
            toks[j] = str(rng.choice(pool))
        return " ".join(toks)

    for ci, size in enumerate(sizes):
        base = " ".join(
            [str(rng.choice(_BRANDS)), f"usb{rng.integers(8, 513)}gb"]
            + [str(rng.choice(pool)) for _ in range(6)]
        )
        for i in range(size):
            name = base if i == 0 else (corrupt_value(base, rng, 1) or base)
            emit(name, f"c{ci}")
        emit(sibling(base), f"sib{ci}")  # near-miss different product
    n_singletons = max(0, int(835 * scale) - rid_n)
    for i in range(n_singletons):
        emit(
            " ".join(str(rng.choice(pool)) for _ in range(8)), f"s{i}"
        )
    # The hard record: a member of the first cluster whose listing kept only
    # brand and capacity and replaced all descriptive wording — the
    # altosight.com//1420 analogue that (nearly) every solution misses.
    if sizes:
        base = rows[0]["name"]
        hard = " ".join(
            base.split()[:2] + [str(rng.choice(pool)) for _ in range(6)]
        )
        rows.append({"rid": "x4_hard", "name": hard, "price": rows[0]["price"]})
        gold.append({"rid": "x4_hard", "cluster": "c0"})

    return _make_split(spark, "x4", rows, gold, _gold_pairs(gold), [])
