"""Operational tooling: the store doctor and the command-line interface."""

from repro.tools.doctor import (
    DoctorReport,
    diagnose_store,
    examine_write_path,
)

__all__ = [
    "DoctorReport",
    "diagnose_store",
    "examine_write_path",
]
