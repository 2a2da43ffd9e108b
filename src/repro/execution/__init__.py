"""Real in-process execution: the threaded backend and app loading.

Socket workers, one OS process per worker, live in :mod:`repro.net`
(``RemoteWorkerPool`` + ``RemoteExecutionBackend``).
"""

from .appspec import app_spec, load_app
from .local import AppProcessor, DigestApp, LocalExecutionBackend

__all__ = [
    "LocalExecutionBackend",
    "AppProcessor",
    "DigestApp",
    "load_app",
    "app_spec",
]
