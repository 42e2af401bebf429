"""Run reports and their JSON / CSV serialization.

Vertex ids in reports are always the original (1-based DIMACS) ids, never
internal 0-based ids. Decimal separator in CSV is '.'.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields


@dataclass
class RunReport:
    name: str
    n: int
    m: int
    algo: str  # R1|R2|D1|D2|RC1|DC1|RC2|DC2
    radius: float | None = None
    diameter: float | None = None
    center: int | None = None  # original id
    pair: list[int] | None = None  # original ids
    sssp_count: int = 0
    sssp_share: float = 0.0
    rows_accessed: int = 0
    elapsed_ms: float = 0.0
    matrix_build_ms: float | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def dump_reports_json(reports: list[RunReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"


def write_reports_json(reports: list[RunReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_reports_json(reports))


@dataclass
class BenchRow:
    name: str
    n: int | None = None
    m: int | None = None
    algo: str = ""
    value: float | None = None
    sssp_count: float | None = None
    sssp_share: float | None = None
    elapsed_ms: float | None = None
    speedup_vs_baseline: float | None = None
    errors: str = ""


CSV_COLUMNS = [f.name for f in fields(BenchRow)]


def write_bench_csv(rows: list[BenchRow], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        record = {k: ("" if v is None else v) for k, v in asdict(row).items()}
        writer.writerow(record)
