"""JOB/IMDB-shaped workload.

The paper singles out JOB for having the most complex join graphs:
multiple fact tables, large dimension tables, and joins between
dimension tables.  This synthetic analogue keeps those properties:

* fact-like tables (nothing references their keys): ``movie_keyword``,
  ``cast_info``, ``movie_companies``, ``movie_info``, ``aka_name``;
* ``title`` is a large shared dimension every fact joins through;
* dimension-dimension joins (``name <- aka_name``) and fact-fact joins
  through shared key columns;
* LIKE predicates over generated text vocabularies with meaningful
  match rates (the paper's Figure 2 query is ``job_fig2`` here).
"""

from __future__ import annotations

import numpy as np

from repro.query.spec import QuerySpec
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from repro.util.rng import derive_rng
from repro.workloads.generator import (
    categorical,
    compound_words,
    numeric,
    scaled,
    skewed_fk,
    surrogate_keys,
)

DEFAULT_SEED = 113

_KINDS = ["movie", "tv series", "video game", "video movie", "tv movie", "episode"]
_ROLES = [
    "actor", "actress", "producer", "writer", "cinematographer",
    "composer", "costume designer", "director", "editor", "guest",
]
_COUNTRIES = ["us", "gb", "de", "fr", "it", "jp", "in", "ca", "es", "se"]
_COMPANY_KINDS = [
    "production companies", "distributors", "special effects companies",
    "miscellaneous companies",
]
_INFO_KINDS = [f"info_{i:02d}" for i in range(30)]

_TITLE_PREFIX = [
    "dark", "golden", "last", "first", "silent", "broken", "hidden",
    "lost", "eternal", "crimson", "iron", "frozen",
]
_TITLE_SUFFIX = [
    "empire (tv)", "river", "kingdom", "legacy (vhs)", "night", "garden",
    "voyage", "promise (tv)", "city", "storm",
]
_KEYWORD_PREFIX = [
    "action", "drama", "murder", "love", "space", "war", "history",
    "magic", "blood", "revenge", "family", "secret",
]
_KEYWORD_SUFFIX = [
    "gene", "edge", "stage", "siege", "story", "quest", "night",
    "world", "dream", "saga",
]
_NAME_PREFIX = [
    "smith", "garcia", "mueller", "tanaka", "rossi", "kim", "olsen",
    "novak", "silva", "dubois",
]
_NAME_SUFFIX = [
    "john", "maria", "wei", "anna", "luca", "sofia", "ivan", "noor",
    "kenji", "fatima",
]


def build(scale: float = 1.0, seed: int = DEFAULT_SEED) -> tuple[Database, list[QuerySpec]]:
    database = build_database(scale, seed)
    return database, queries(database)


def build_database(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Database:
    rng = derive_rng(seed, "job")
    database = Database("job_lite")

    n_title = scaled(50_000, scale)
    n_keyword = scaled(8_000, scale)
    n_name = scaled(40_000, scale)
    n_company = scaled(10_000, scale)
    n_mk = scaled(100_000, scale)
    n_ci = scaled(150_000, scale)
    n_mc = scaled(60_000, scale)
    n_mi = scaled(80_000, scale)
    n_aka = scaled(20_000, scale)

    kind_type = Table.from_arrays(
        "kind_type",
        {
            "kt_id": surrogate_keys(len(_KINDS)),
            "kt_kind": np.array(_KINDS, dtype=object),
        },
        key=("kt_id",),
    )
    title = Table.from_arrays(
        "title",
        {
            "t_id": surrogate_keys(n_title),
            "t_kind_id": skewed_fk(rng, n_title, kind_type.column("kt_id"), 0.8),
            "t_production_year": numeric(rng, n_title, 1930, 2019, integer=True),
            "t_title": compound_words(rng, n_title, _TITLE_PREFIX, _TITLE_SUFFIX),
        },
        key=("t_id",),
    )
    keyword = Table.from_arrays(
        "keyword",
        {
            "k_id": surrogate_keys(n_keyword),
            "k_keyword": compound_words(rng, n_keyword, _KEYWORD_PREFIX, _KEYWORD_SUFFIX),
        },
        key=("k_id",),
    )
    name = Table.from_arrays(
        "name",
        {
            "n_id": surrogate_keys(n_name),
            "n_gender": categorical(rng, n_name, ["m", "f"]),
            "n_name": compound_words(rng, n_name, _NAME_PREFIX, _NAME_SUFFIX),
        },
        key=("n_id",),
    )
    role_type = Table.from_arrays(
        "role_type",
        {
            "rt_id": surrogate_keys(len(_ROLES)),
            "rt_role": np.array(_ROLES, dtype=object),
        },
        key=("rt_id",),
    )
    company_name = Table.from_arrays(
        "company_name",
        {
            "cn_id": surrogate_keys(n_company),
            "cn_country_code": categorical(rng, n_company, _COUNTRIES, skew=0.7),
        },
        key=("cn_id",),
    )
    company_type = Table.from_arrays(
        "company_type",
        {
            "ct_id": surrogate_keys(len(_COMPANY_KINDS)),
            "ct_kind": np.array(_COMPANY_KINDS, dtype=object),
        },
        key=("ct_id",),
    )
    info_type = Table.from_arrays(
        "info_type",
        {
            "it_id": surrogate_keys(len(_INFO_KINDS)),
            "it_info": np.array(_INFO_KINDS, dtype=object),
        },
        key=("it_id",),
    )
    movie_keyword = Table.from_arrays(
        "movie_keyword",
        {
            "mk_movie_id": skewed_fk(rng, n_mk, title.column("t_id"), 0.7),
            "mk_keyword_id": skewed_fk(rng, n_mk, keyword.column("k_id"), 0.9),
        },
    )
    cast_info = Table.from_arrays(
        "cast_info",
        {
            "ci_movie_id": skewed_fk(rng, n_ci, title.column("t_id"), 0.6),
            "ci_person_id": skewed_fk(rng, n_ci, name.column("n_id"), 0.8),
            "ci_role_id": skewed_fk(rng, n_ci, role_type.column("rt_id"), 0.9),
        },
    )
    movie_companies = Table.from_arrays(
        "movie_companies",
        {
            "mc_movie_id": skewed_fk(rng, n_mc, title.column("t_id"), 0.5),
            "mc_company_id": skewed_fk(rng, n_mc, company_name.column("cn_id"), 0.9),
            "mc_company_type_id": skewed_fk(rng, n_mc, company_type.column("ct_id"), 0.5),
        },
    )
    movie_info = Table.from_arrays(
        "movie_info",
        {
            "mi_movie_id": skewed_fk(rng, n_mi, title.column("t_id"), 0.6),
            "mi_info_type_id": skewed_fk(rng, n_mi, info_type.column("it_id"), 0.7),
        },
    )
    aka_name = Table.from_arrays(
        "aka_name",
        {
            "an_person_id": skewed_fk(rng, n_aka, name.column("n_id"), 0.7),
            "an_name": compound_words(rng, n_aka, _NAME_PREFIX, _NAME_SUFFIX),
        },
    )

    for table in (
        kind_type, title, keyword, name, role_type, company_name,
        company_type, info_type, movie_keyword, cast_info,
        movie_companies, movie_info, aka_name,
    ):
        database.add_table(table)

    fks = [
        ("title", "t_kind_id", "kind_type", "kt_id"),
        ("movie_keyword", "mk_movie_id", "title", "t_id"),
        ("movie_keyword", "mk_keyword_id", "keyword", "k_id"),
        ("cast_info", "ci_movie_id", "title", "t_id"),
        ("cast_info", "ci_person_id", "name", "n_id"),
        ("cast_info", "ci_role_id", "role_type", "rt_id"),
        ("movie_companies", "mc_movie_id", "title", "t_id"),
        ("movie_companies", "mc_company_id", "company_name", "cn_id"),
        ("movie_companies", "mc_company_type_id", "company_type", "ct_id"),
        ("movie_info", "mi_movie_id", "title", "t_id"),
        ("movie_info", "mi_info_type_id", "info_type", "it_id"),
        ("aka_name", "an_person_id", "name", "n_id"),
    ]
    for child, child_col, parent, parent_col in fks:
        database.add_foreign_key(ForeignKey(child, (child_col,), parent, (parent_col,)))
    return database


_QUERIES: list[tuple[str, str]] = [
    # The paper's Figure 2 motivating query, adapted to our vocabulary.
    (
        "job_fig2",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, title t, keyword k
        WHERE mk.mk_movie_id = t.t_id AND mk.mk_keyword_id = k.k_id
          AND t.t_title LIKE '%(%' AND k.k_keyword LIKE '%ge%'
        """,
    ),
    (
        "job_q01",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, keyword k
        WHERE mk.mk_keyword_id = k.k_id AND k.k_keyword LIKE 'murder%'
        """,
    ),
    (
        "job_q02",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, title t, keyword k, kind_type kt
        WHERE mk.mk_movie_id = t.t_id AND mk.mk_keyword_id = k.k_id
          AND t.t_kind_id = kt.kt_id
          AND kt.kt_kind = 'movie' AND k.k_keyword LIKE '%saga'
        """,
    ),
    (
        "job_q03",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, name n, role_type rt
        WHERE ci.ci_person_id = n.n_id AND ci.ci_role_id = rt.rt_id
          AND n.n_gender = 'f' AND rt.rt_role = 'actress'
        """,
    ),
    (
        "job_q04",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, title t, name n
        WHERE ci.ci_movie_id = t.t_id AND ci.ci_person_id = n.n_id
          AND t.t_production_year > 2010 AND n.n_name LIKE 'kim%'
        """,
    ),
    (
        "job_q05",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_companies mc, company_name cn, company_type ct
        WHERE mc.mc_company_id = cn.cn_id AND mc.mc_company_type_id = ct.ct_id
          AND cn.cn_country_code = 'de' AND ct.ct_kind = 'distributors'
        """,
    ),
    (
        "job_q06",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_companies mc, title t, company_name cn, kind_type kt
        WHERE mc.mc_movie_id = t.t_id AND mc.mc_company_id = cn.cn_id
          AND t.t_kind_id = kt.kt_id
          AND cn.cn_country_code = 'jp' AND kt.kt_kind IN ('movie', 'tv series')
          AND t.t_production_year BETWEEN 1990 AND 2005
        """,
    ),
    # multiple fact tables joined through the shared title dimension
    (
        "job_q07",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, cast_info ci, title t, keyword k
        WHERE mk.mk_movie_id = t.t_id AND ci.ci_movie_id = t.t_id
          AND mk.mk_keyword_id = k.k_id
          AND k.k_keyword LIKE 'space%' AND t.t_production_year > 2000
        """,
    ),
    (
        "job_q08",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, movie_companies mc, title t, keyword k, company_name cn
        WHERE mk.mk_movie_id = t.t_id AND mc.mc_movie_id = t.t_id
          AND mk.mk_keyword_id = k.k_id AND mc.mc_company_id = cn.cn_id
          AND k.k_keyword LIKE '%quest' AND cn.cn_country_code = 'us'
        """,
    ),
    (
        "job_q09",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, movie_companies mc, title t, name n, company_name cn
        WHERE ci.ci_movie_id = t.t_id AND mc.mc_movie_id = t.t_id
          AND ci.ci_person_id = n.n_id AND mc.mc_company_id = cn.cn_id
          AND n.n_gender = 'm' AND cn.cn_country_code = 'gb'
          AND t.t_production_year < 1980
        """,
    ),
    (
        "job_q10",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, cast_info ci, movie_companies mc, title t,
             keyword k, name n, company_name cn
        WHERE mk.mk_movie_id = t.t_id AND ci.ci_movie_id = t.t_id
          AND mc.mc_movie_id = t.t_id AND mk.mk_keyword_id = k.k_id
          AND ci.ci_person_id = n.n_id AND mc.mc_company_id = cn.cn_id
          AND k.k_keyword LIKE 'blood%' AND n.n_name LIKE '%anna'
          AND cn.cn_country_code IN ('us', 'gb')
        """,
    ),
    # dimension-dimension joins (aka_name hangs off name)
    (
        "job_q11",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, name n, aka_name an
        WHERE ci.ci_person_id = n.n_id AND an.an_person_id = n.n_id
          AND an.an_name LIKE 'garcia%'
        """,
    ),
    (
        "job_q12",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, title t, name n, aka_name an, role_type rt
        WHERE ci.ci_movie_id = t.t_id AND ci.ci_person_id = n.n_id
          AND an.an_person_id = n.n_id AND ci.ci_role_id = rt.rt_id
          AND rt.rt_role = 'director' AND t.t_production_year >= 2015
        """,
    ),
    (
        "job_q13",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_info mi, title t, info_type it
        WHERE mi.mi_movie_id = t.t_id AND mi.mi_info_type_id = it.it_id
          AND it.it_info = 'info_03' AND t.t_production_year BETWEEN 1995 AND 2000
        """,
    ),
    (
        "job_q14",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_info mi, movie_keyword mk, title t, info_type it, keyword k
        WHERE mi.mi_movie_id = t.t_id AND mk.mk_movie_id = t.t_id
          AND mi.mi_info_type_id = it.it_id AND mk.mk_keyword_id = k.k_id
          AND it.it_info IN ('info_01', 'info_02') AND k.k_keyword LIKE 'war%'
        """,
    ),
    (
        "job_q15",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_info mi, cast_info ci, movie_companies mc, title t,
             info_type it, name n, company_name cn, kind_type kt
        WHERE mi.mi_movie_id = t.t_id AND ci.ci_movie_id = t.t_id
          AND mc.mc_movie_id = t.t_id AND mi.mi_info_type_id = it.it_id
          AND ci.ci_person_id = n.n_id AND mc.mc_company_id = cn.cn_id
          AND t.t_kind_id = kt.kt_id
          AND it.it_info = 'info_10' AND n.n_gender = 'f'
          AND cn.cn_country_code = 'fr' AND kt.kt_kind = 'movie'
        """,
    ),
    # direct fact-fact join on shared key columns (non-PKFK)
    (
        "job_q16",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, movie_companies mc, keyword k
        WHERE mk.mk_movie_id = mc.mc_movie_id AND mk.mk_keyword_id = k.k_id
          AND k.k_keyword LIKE 'magic%'
        """,
    ),
    (
        "job_q17",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_info mi, movie_keyword mk, info_type it
        WHERE mi.mi_movie_id = mk.mk_movie_id AND mi.mi_info_type_id = it.it_id
          AND it.it_info = 'info_25'
        """,
    ),
    # larger stars with selective predicates
    (
        "job_q18",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, title t, keyword k, kind_type kt
        WHERE mk.mk_movie_id = t.t_id AND mk.mk_keyword_id = k.k_id
          AND t.t_kind_id = kt.kt_id
          AND k.k_keyword = 'love-gene' AND kt.kt_kind = 'tv series'
        """,
    ),
    (
        "job_q19",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, title t, name n, role_type rt, kind_type kt
        WHERE ci.ci_movie_id = t.t_id AND ci.ci_person_id = n.n_id
          AND ci.ci_role_id = rt.rt_id AND t.t_kind_id = kt.kt_id
          AND rt.rt_role = 'composer' AND kt.kt_kind = 'video game'
          AND n.n_name LIKE 'tanaka%'
        """,
    ),
    (
        "job_q20",
        """
        SELECT t.t_production_year, COUNT(*) AS cnt
        FROM movie_companies mc, title t, company_name cn
        WHERE mc.mc_movie_id = t.t_id AND mc.mc_company_id = cn.cn_id
          AND cn.cn_country_code = 'us'
        GROUP BY t.t_production_year
        """,
    ),
    (
        "job_q21",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_info mi, title t
        WHERE mi.mi_movie_id = t.t_id AND t.t_title LIKE 'dark%'
        """,
    ),
    (
        "job_q22",
        """
        SELECT COUNT(*) AS cnt, MIN(t.t_production_year) AS first_year
        FROM movie_keyword mk, title t
        WHERE mk.mk_movie_id = t.t_id AND t.t_title LIKE '%storm'
        """,
    ),
    (
        "job_q23",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, movie_keyword mk, title t, keyword k, name n
        WHERE ci.ci_movie_id = t.t_id AND mk.mk_movie_id = t.t_id
          AND mk.mk_keyword_id = k.k_id AND ci.ci_person_id = n.n_id
          AND k.k_keyword LIKE 'secret%' AND n.n_gender = 'f'
          AND t.t_production_year > 1990
        """,
    ),
    (
        "job_q24",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_companies mc, movie_info mi, title t, company_type ct,
             info_type it
        WHERE mc.mc_movie_id = t.t_id AND mi.mi_movie_id = t.t_id
          AND mc.mc_company_type_id = ct.ct_id AND mi.mi_info_type_id = it.it_id
          AND ct.ct_kind = 'production companies' AND it.it_info = 'info_05'
        """,
    ),
    (
        "job_q25",
        """
        SELECT COUNT(*) AS cnt
        FROM cast_info ci, name n, aka_name an, role_type rt
        WHERE ci.ci_person_id = n.n_id AND an.an_person_id = n.n_id
          AND ci.ci_role_id = rt.rt_id
          AND rt.rt_role IN ('writer', 'editor') AND n.n_name LIKE '%wei'
        """,
    ),
    (
        "job_q26",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_keyword mk, cast_info ci, title t, keyword k, name n,
             role_type rt, kind_type kt
        WHERE mk.mk_movie_id = t.t_id AND ci.ci_movie_id = t.t_id
          AND mk.mk_keyword_id = k.k_id AND ci.ci_person_id = n.n_id
          AND ci.ci_role_id = rt.rt_id AND t.t_kind_id = kt.kt_id
          AND k.k_keyword LIKE 'history%' AND rt.rt_role = 'producer'
          AND kt.kt_kind = 'movie' AND t.t_production_year BETWEEN 1980 AND 2010
        """,
    ),
    (
        "job_q27",
        """
        SELECT kt.kt_kind, COUNT(*) AS cnt
        FROM movie_keyword mk, title t, kind_type kt
        WHERE mk.mk_movie_id = t.t_id AND t.t_kind_id = kt.kt_id
        GROUP BY kt.kt_kind
        """,
    ),
    (
        "job_q28",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_info mi, title t
        WHERE mi.mi_movie_id = t.t_id AND t.t_production_year = 1994
        """,
    ),
    (
        "job_q29",
        """
        SELECT COUNT(*) AS cnt
        FROM movie_companies mc, title t, company_name cn, company_type ct,
             kind_type kt
        WHERE mc.mc_movie_id = t.t_id AND mc.mc_company_id = cn.cn_id
          AND mc.mc_company_type_id = ct.ct_id AND t.t_kind_id = kt.kt_id
          AND cn.cn_country_code = 'it' AND ct.ct_kind = 'distributors'
          AND kt.kt_kind = 'tv movie'
        """,
    ),
]


def queries(database: Database) -> list[QuerySpec]:
    """Bind the JOB-lite query set against a built database."""
    return [parse_query(database, sql, name) for name, sql in _QUERIES]


def query_sqls() -> list[tuple[str, str]]:
    """The workload's ``(name, sql)`` pairs, unbound.

    Mirrors :func:`repro.workloads.tpcds_lite.query_sqls`: service-level
    benchmarks feed these through :class:`repro.service.QueryService`
    so the measured path includes parsing and plan caching.
    """
    return list(_QUERIES)
