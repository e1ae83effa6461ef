"""TPC-DS-shaped workload.

Scaled-down synthetic analogue of the paper's TPC-DS 100 GB setup:
``store_sales`` is the dominant fact table with a star of dimensions,
``customer`` fans out into a snowflake
(``customer -> customer_address`` and
``customer -> household_demographics -> income_band``), and
``catalog_sales`` is a second fact table for multi-fact queries.

The 32-query workload spans the selectivity spectrum (the paper's
L/M/S grouping needs cheap, moderate, and expensive queries), exercises
pure stars, snowflake chains, dimension-heavy joins, group-bys,
fact-to-fact joins through shared dimensions, and the report-style
top-k shapes (``GROUP BY ... HAVING ... ORDER BY ... LIMIT``) that
dominate real TPC-DS.
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
    numeric,
    scaled,
    skewed_fk,
    surrogate_keys,
)

DEFAULT_SEED = 100

_STATES = [
    "AL", "CA", "CO", "FL", "GA", "IL", "IN", "KS", "KY", "MI",
    "MN", "MO", "NC", "NY", "OH", "OK", "OR", "PA", "TN", "TX",
]
_CATEGORIES = [
    "Books", "Children", "Electronics", "Home", "Jewelry",
    "Men", "Music", "Shoes", "Sports", "Women",
]
_BUY_POTENTIAL = ["0-500", "501-1000", "1001-5000", "5001-10000", ">10000", "Unknown"]
_COUNTIES = [f"county_{i:03d}" for i in range(80)]
_MEALS = ["breakfast", "lunch", "dinner", "night"]


def build(scale: float = 1.0, seed: int = DEFAULT_SEED) -> tuple[Database, list[QuerySpec]]:
    database = build_database(scale, seed)
    return database, queries(database)


def build_database(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Database:
    rng = derive_rng(seed, "tpcds")
    database = Database("tpcds_lite")

    # Calendar-shaped dimensions are fixed-size regardless of scale
    # (TPC-DS keeps date_dim/time_dim constant across scale factors, and
    # the query predicates reference concrete years).
    n_date = 365 * 5
    n_time = 1440
    n_item = scaled(6000, scale)
    n_customer = scaled(20_000, scale)
    n_address = scaled(10_000, scale)
    n_hdemo = scaled(720, scale, minimum=24)
    n_income = 20
    n_store = scaled(60, scale, minimum=6)
    n_promo = scaled(300, scale, minimum=10)
    n_store_sales = scaled(150_000, scale)
    n_catalog_sales = scaled(80_000, scale)

    date_dim = Table.from_arrays(
        "date_dim",
        {
            "d_date_sk": surrogate_keys(n_date),
            "d_year": 1998 + (np.arange(n_date) // 365),
            "d_moy": 1 + (np.arange(n_date) // 30) % 12,
            "d_dom": 1 + np.arange(n_date) % 30,
            "d_qoy": 1 + (np.arange(n_date) // 91) % 4,
        },
        key=("d_date_sk",),
    )
    time_dim = Table.from_arrays(
        "time_dim",
        {
            "t_time_sk": surrogate_keys(n_time),
            "t_hour": np.arange(n_time) * 24 // n_time,
            "t_meal_time": categorical(rng, n_time, _MEALS),
        },
        key=("t_time_sk",),
    )
    item = Table.from_arrays(
        "item",
        {
            "i_item_sk": surrogate_keys(n_item),
            "i_category": categorical(rng, n_item, _CATEGORIES, skew=0.3),
            "i_class": categorical(rng, n_item, [f"class_{i:02d}" for i in range(40)]),
            "i_brand": categorical(rng, n_item, [f"brand_{i:03d}" for i in range(100)]),
            "i_current_price": numeric(rng, n_item, 0.5, 300.0),
        },
        key=("i_item_sk",),
    )
    income_band = Table.from_arrays(
        "income_band",
        {
            "ib_income_band_sk": surrogate_keys(n_income),
            "ib_lower_bound": np.arange(n_income, dtype=np.int64) * 10_000,
            "ib_upper_bound": (np.arange(n_income, dtype=np.int64) + 1) * 10_000,
        },
        key=("ib_income_band_sk",),
    )
    household_demographics = Table.from_arrays(
        "household_demographics",
        {
            "hd_demo_sk": surrogate_keys(n_hdemo),
            "hd_income_band_sk": skewed_fk(
                rng, n_hdemo, income_band.column("ib_income_band_sk"), 0.2
            ),
            "hd_dep_count": numeric(rng, n_hdemo, 0, 9, integer=True),
            "hd_buy_potential": categorical(rng, n_hdemo, _BUY_POTENTIAL),
        },
        key=("hd_demo_sk",),
    )
    customer_address = Table.from_arrays(
        "customer_address",
        {
            "ca_address_sk": surrogate_keys(n_address),
            "ca_state": categorical(rng, n_address, _STATES, skew=0.4),
            "ca_county": categorical(rng, n_address, _COUNTIES),
            "ca_gmt_offset": numeric(rng, n_address, -8, -5, integer=True),
        },
        key=("ca_address_sk",),
    )
    customer = Table.from_arrays(
        "customer",
        {
            "c_customer_sk": surrogate_keys(n_customer),
            "c_current_addr_sk": skewed_fk(
                rng, n_customer, customer_address.column("ca_address_sk"), 0.1
            ),
            "c_current_hdemo_sk": skewed_fk(
                rng, n_customer, household_demographics.column("hd_demo_sk"), 0.1
            ),
            "c_birth_year": numeric(rng, n_customer, 1930, 2000, integer=True),
        },
        key=("c_customer_sk",),
    )
    store = Table.from_arrays(
        "store",
        {
            "s_store_sk": surrogate_keys(n_store),
            "s_state": categorical(rng, n_store, _STATES[:10]),
            "s_number_employees": numeric(rng, n_store, 50, 300, integer=True),
        },
        key=("s_store_sk",),
    )
    promotion = Table.from_arrays(
        "promotion",
        {
            "p_promo_sk": surrogate_keys(n_promo),
            "p_channel_email": categorical(rng, n_promo, ["Y", "N"]),
            "p_channel_tv": categorical(rng, n_promo, ["Y", "N"]),
        },
        key=("p_promo_sk",),
    )
    store_sales = Table.from_arrays(
        "store_sales",
        {
            "ss_sold_date_sk": skewed_fk(rng, n_store_sales, date_dim.column("d_date_sk"), 0.3),
            "ss_sold_time_sk": skewed_fk(rng, n_store_sales, time_dim.column("t_time_sk"), 0.2),
            "ss_item_sk": skewed_fk(rng, n_store_sales, item.column("i_item_sk"), 0.6),
            "ss_customer_sk": skewed_fk(rng, n_store_sales, customer.column("c_customer_sk"), 0.5),
            "ss_store_sk": skewed_fk(rng, n_store_sales, store.column("s_store_sk"), 0.3),
            "ss_promo_sk": skewed_fk(rng, n_store_sales, promotion.column("p_promo_sk"), 0.4),
            "ss_quantity": numeric(rng, n_store_sales, 1, 100, integer=True),
            "ss_sales_price": numeric(rng, n_store_sales, 0.5, 300.0),
            "ss_net_paid": numeric(rng, n_store_sales, 0.5, 30_000.0),
            "ss_net_profit": numeric(rng, n_store_sales, -5_000.0, 10_000.0),
        },
    )
    catalog_sales = Table.from_arrays(
        "catalog_sales",
        {
            "cs_sold_date_sk": skewed_fk(rng, n_catalog_sales, date_dim.column("d_date_sk"), 0.3),
            "cs_item_sk": skewed_fk(rng, n_catalog_sales, item.column("i_item_sk"), 0.5),
            "cs_bill_customer_sk": skewed_fk(
                rng, n_catalog_sales, customer.column("c_customer_sk"), 0.4
            ),
            "cs_quantity": numeric(rng, n_catalog_sales, 1, 100, integer=True),
            "cs_net_paid": numeric(rng, n_catalog_sales, 0.5, 30_000.0),
        },
    )

    for table in (
        date_dim, time_dim, item, income_band, household_demographics,
        customer_address, customer, store, promotion, store_sales,
        catalog_sales,
    ):
        database.add_table(table)

    fks = [
        ("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
        ("store_sales", "ss_sold_time_sk", "time_dim", "t_time_sk"),
        ("store_sales", "ss_item_sk", "item", "i_item_sk"),
        ("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
        ("store_sales", "ss_store_sk", "store", "s_store_sk"),
        ("store_sales", "ss_promo_sk", "promotion", "p_promo_sk"),
        ("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk"),
        ("catalog_sales", "cs_item_sk", "item", "i_item_sk"),
        ("catalog_sales", "cs_bill_customer_sk", "customer", "c_customer_sk"),
        ("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
        ("customer", "c_current_hdemo_sk", "household_demographics", "hd_demo_sk"),
        ("household_demographics", "hd_income_band_sk", "income_band", "ib_income_band_sk"),
    ]
    for child, child_col, parent, parent_col in fks:
        database.add_foreign_key(ForeignKey(child, (child_col,), parent, (parent_col,)))
    return database


_QUERIES: list[tuple[str, str]] = [
    # --- simple stars over store_sales, varied selectivity ------------
    (
        "ds_q01",
        """
        SELECT COUNT(*) AS cnt, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, date_dim d
        WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = 2000
        """,
    ),
    (
        "ds_q02",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, date_dim d, item i
        WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk
          AND d.d_year = 2001 AND d.d_moy = 11 AND i.i_category = 'Books'
        """,
    ),
    (
        "ds_q03",
        """
        SELECT SUM(ss.ss_net_profit) AS profit
        FROM store_sales ss, item i, store s
        WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_store_sk = s.s_store_sk
          AND i.i_current_price > 250 AND s.s_state = 'CA'
        """,
    ),
    (
        "ds_q04",
        """
        SELECT COUNT(*) AS cnt, SUM(ss.ss_quantity) AS qty
        FROM store_sales ss, date_dim d, store s, promotion p
        WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_store_sk = s.s_store_sk
          AND ss.ss_promo_sk = p.p_promo_sk
          AND d.d_qoy = 2 AND p.p_channel_email = 'Y'
        """,
    ),
    (
        "ds_q05",
        """
        SELECT i.i_category, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, item i, date_dim d
        WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = d.d_date_sk
          AND d.d_year BETWEEN 1999 AND 2001
        GROUP BY i.i_category
        """,
    ),
    (
        "ds_q06",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, time_dim t, date_dim d
        WHERE ss.ss_sold_time_sk = t.t_time_sk AND ss.ss_sold_date_sk = d.d_date_sk
          AND t.t_meal_time = 'dinner' AND d.d_moy IN (11, 12)
        """,
    ),
    (
        "ds_q07",
        """
        SELECT COUNT(*) AS cnt, AVG(ss.ss_sales_price) AS avg_price
        FROM store_sales ss, item i
        WHERE ss.ss_item_sk = i.i_item_sk
          AND i.i_brand IN ('brand_001', 'brand_002', 'brand_003')
        """,
    ),
    (
        "ds_q08",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, date_dim d, item i, store s, promotion p, time_dim t
        WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk
          AND ss.ss_store_sk = s.s_store_sk AND ss.ss_promo_sk = p.p_promo_sk
          AND ss.ss_sold_time_sk = t.t_time_sk
          AND d.d_year = 2002 AND i.i_category IN ('Music', 'Shoes')
          AND p.p_channel_tv = 'N' AND t.t_hour BETWEEN 8 AND 20
        """,
    ),
    # --- snowflake chains through customer -----------------------------
    (
        "ds_q09",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, customer c, customer_address ca
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
          AND ca.ca_state IN ('CA', 'TX', 'NY')
        """,
    ),
    (
        "ds_q10",
        """
        SELECT COUNT(*) AS cnt, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, customer c, household_demographics hd, income_band ib
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_hdemo_sk = hd.hd_demo_sk
          AND hd.hd_income_band_sk = ib.ib_income_band_sk
          AND ib.ib_lower_bound >= 120000 AND hd.hd_dep_count < 4
        """,
    ),
    (
        "ds_q11",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, customer c, customer_address ca,
             household_demographics hd, income_band ib, date_dim d
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
          AND c.c_current_hdemo_sk = hd.hd_demo_sk
          AND hd.hd_income_band_sk = ib.ib_income_band_sk
          AND ss.ss_sold_date_sk = d.d_date_sk
          AND ca.ca_state = 'TX' AND ib.ib_upper_bound <= 60000
          AND d.d_year = 2000
        """,
    ),
    (
        "ds_q12",
        """
        SELECT ca.ca_state, COUNT(*) AS cnt
        FROM store_sales ss, customer c, customer_address ca, item i
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
          AND ss.ss_item_sk = i.i_item_sk
          AND i.i_category = 'Electronics' AND c.c_birth_year < 1960
        GROUP BY ca.ca_state
        """,
    ),
    (
        "ds_q13",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, customer c, household_demographics hd
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_hdemo_sk = hd.hd_demo_sk
          AND hd.hd_buy_potential = '>10000'
        """,
    ),
    (
        "ds_q14",
        """
        SELECT COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit
        FROM store_sales ss, customer c, customer_address ca,
             household_demographics hd, date_dim d, store s
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
          AND c.c_current_hdemo_sk = hd.hd_demo_sk
          AND ss.ss_sold_date_sk = d.d_date_sk
          AND ss.ss_store_sk = s.s_store_sk
          AND ca.ca_gmt_offset = -6 AND hd.hd_dep_count BETWEEN 2 AND 5
          AND d.d_qoy = 4 AND s.s_number_employees > 100
        """,
    ),
    # --- multi-fact queries --------------------------------------------
    (
        "ds_q15",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, catalog_sales cs, item i
        WHERE ss.ss_item_sk = i.i_item_sk AND cs.cs_item_sk = i.i_item_sk
          AND i.i_category = 'Jewelry' AND i.i_current_price > 200
        """,
    ),
    (
        "ds_q16",
        """
        SELECT COUNT(*) AS cnt
        FROM catalog_sales cs, date_dim d, item i
        WHERE cs.cs_sold_date_sk = d.d_date_sk AND cs.cs_item_sk = i.i_item_sk
          AND d.d_year = 1999 AND i.i_class = 'class_07'
        """,
    ),
    (
        "ds_q17",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, catalog_sales cs, customer c, customer_address ca
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND cs.cs_bill_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
          AND ca.ca_state = 'OH' AND c.c_birth_year BETWEEN 1950 AND 1955
        """,
    ),
    (
        "ds_q18",
        """
        SELECT SUM(cs.cs_net_paid) AS paid
        FROM catalog_sales cs, customer c, household_demographics hd, income_band ib
        WHERE cs.cs_bill_customer_sk = c.c_customer_sk
          AND c.c_current_hdemo_sk = hd.hd_demo_sk
          AND hd.hd_income_band_sk = ib.ib_income_band_sk
          AND ib.ib_lower_bound >= 150000
        """,
    ),
    # --- group-bys and wide aggregations --------------------------------
    (
        "ds_q19",
        """
        SELECT s.s_state, i.i_category, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, store s, item i, date_dim d
        WHERE ss.ss_store_sk = s.s_store_sk AND ss.ss_item_sk = i.i_item_sk
          AND ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = 2001
        GROUP BY s.s_state, i.i_category
        """,
    ),
    (
        "ds_q20",
        """
        SELECT d.d_year, COUNT(*) AS cnt, AVG(ss.ss_net_profit) AS profit
        FROM store_sales ss, date_dim d
        WHERE ss.ss_sold_date_sk = d.d_date_sk
        GROUP BY d.d_year
        """,
    ),
    (
        "ds_q21",
        """
        SELECT hd.hd_buy_potential, COUNT(*) AS cnt
        FROM store_sales ss, customer c, household_demographics hd
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_hdemo_sk = hd.hd_demo_sk
        GROUP BY hd.hd_buy_potential
        """,
    ),
    # --- selectivity extremes (for the L/M/S split) ---------------------
    (
        "ds_q22",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, date_dim d, item i
        WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk
          AND d.d_year = 2000 AND d.d_moy = 6 AND d.d_dom = 15
          AND i.i_brand = 'brand_042'
        """,
    ),
    (
        "ds_q23",
        """
        SELECT COUNT(*) AS cnt, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, item i, customer c, customer_address ca,
             date_dim d
        WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
          AND ss.ss_sold_date_sk = d.d_date_sk
          AND i.i_current_price BETWEEN 10 AND 280
        """,
    ),
    (
        "ds_q24",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, promotion p, time_dim t
        WHERE ss.ss_promo_sk = p.p_promo_sk AND ss.ss_sold_time_sk = t.t_time_sk
          AND p.p_channel_email = 'Y' AND p.p_channel_tv = 'Y'
          AND t.t_meal_time IN ('breakfast', 'lunch')
        """,
    ),
    (
        "ds_q25",
        """
        SELECT COUNT(*) AS cnt
        FROM store_sales ss, catalog_sales cs, item i, date_dim d
        WHERE ss.ss_item_sk = i.i_item_sk AND cs.cs_item_sk = i.i_item_sk
          AND cs.cs_sold_date_sk = d.d_date_sk
          AND i.i_category = 'Sports' AND d.d_year = 2002
        """,
    ),
    # --- top-k / HAVING report queries (TPC-DS is full of
    # "best N categories by revenue" shapes: q3, q42, q52, ...) ----------
    (
        "ds_q26",
        """
        SELECT i.i_brand, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, item i, date_dim d
        WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = d.d_date_sk
          AND d.d_year = 2000 AND d.d_moy = 12
        GROUP BY i.i_brand
        ORDER BY paid DESC, i.i_brand ASC
        LIMIT 10
        """,
    ),
    (
        "ds_q27",
        """
        SELECT ca.ca_state, COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit
        FROM store_sales ss, customer c, customer_address ca
        WHERE ss.ss_customer_sk = c.c_customer_sk
          AND c.c_current_addr_sk = ca.ca_address_sk
        GROUP BY ca.ca_state
        HAVING COUNT(*) > 500
        ORDER BY profit DESC
        LIMIT 5
        """,
    ),
    (
        "ds_q28",
        """
        SELECT i.i_category, i.i_class, AVG(ss.ss_sales_price) AS avg_price
        FROM store_sales ss, item i, store s
        WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_store_sk = s.s_store_sk
          AND s.s_state IN ('CA', 'NY')
        GROUP BY i.i_category, i.i_class
        HAVING COUNT(*) >= 20 AND AVG(ss.ss_sales_price) > 100
        ORDER BY avg_price DESC, i.i_category ASC, i.i_class ASC
        LIMIT 15
        """,
    ),
    (
        "ds_q29",
        """
        SELECT d.d_year, d.d_moy, SUM(cs.cs_net_paid) AS paid
        FROM catalog_sales cs, date_dim d
        WHERE cs.cs_sold_date_sk = d.d_date_sk
        GROUP BY d.d_year, d.d_moy
        ORDER BY SUM(cs.cs_quantity) DESC, d.d_year ASC, d.d_moy ASC
        LIMIT 8
        """,
    ),
    (
        "ds_q30",
        """
        SELECT s.s_state, SUM(ss.ss_net_paid) AS paid
        FROM store_sales ss, store s, date_dim d
        WHERE ss.ss_store_sk = s.s_store_sk AND ss.ss_sold_date_sk = d.d_date_sk
          AND d.d_year BETWEEN 2000 AND 2001
        GROUP BY s.s_state
        HAVING SUM(ss.ss_net_paid) > 1000000
        ORDER BY s.s_state ASC
        """,
    ),
    # --- clustered top-k scans (over the sorted surrogate-key layout of
    # date_dim) ----------------------------------------------------------
    (
        "ds_q31",
        """
        SELECT d.d_date_sk, d.d_year, d.d_moy
        FROM date_dim d
        ORDER BY d.d_date_sk DESC
        LIMIT 20
        """,
    ),
    (
        "ds_q32",
        """
        SELECT d.d_date_sk, d.d_year
        FROM date_dim d
        ORDER BY d.d_year ASC, d.d_date_sk ASC
        LIMIT 30
        """,
    ),
]


def queries(database: Database) -> list[QuerySpec]:
    """Bind the TPC-DS-lite query set against a built database."""
    return [parse_query(database, sql, name) for name, sql in _QUERIES]


def query_sqls() -> list[tuple[str, str]]:
    """The workload's ``(name, sql)`` pairs, unbound.

    Service-level benchmarks (e.g. the ``tpcds_warm`` workload in
    ``perf/``) feed these through :class:`repro.service.QueryService`
    so the measured path includes parsing, plan caching, and
    instrumentation — not just pre-bound plan execution.
    """
    return list(_QUERIES)
