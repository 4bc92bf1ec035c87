"""Spans around the calls into each singosc layer, recorded from outside
the package.

A Tracer swaps each public function named in BOUNDARIES for a wrapper
that records one span (name, start, end, parent span, op) and, for a few
boundaries, a count.  Names a module imports with `from x import y` are
wrapped in the importing module too, since that is where they are looked
up.  The scipy calls just beneath `oracle` and `quad` are wrapped on the
scipy module, where the package looks them up.  Spans stay in memory,
in flat arrays, until the run writes them out.

A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.integrate
import scipy.linalg

from singosc import cli, oracle, quad, specfun, spectrum, verify


def _stebz_rows(args, kwargs, result) -> dict:
    return {"oracle.stebz.rows": len(args[0])}


def _quad_neval(args, kwargs, result) -> dict:
    info = result[2] if isinstance(result, tuple) and len(result) > 2 else None
    return {"quad.neval": info["neval"]} if isinstance(info, dict) else {}


# (owner, attribute, span name, counter or None)
BOUNDARIES = [
    (verify, "suite_oracle", "verify.suite_oracle", None),
    (oracle, "shoot_spectrum", "oracle.shoot_spectrum", None),
    (oracle, "fd_eigen", "oracle.fd", None),
    (oracle, "fd_eigen_extrapolated", "oracle.fd", None),
    (oracle, "compare", "oracle.compare", None),
    (scipy.linalg, "eigvalsh_tridiagonal", "oracle.stebz", _stebz_rows),
    (quad, "overlap", "quad.overlap", None),
    (quad, "overlap_halfline_gauss", "quad.gauss", None),
    (quad, "cauchy_pv", "quad.cauchy_pv", None),
    (scipy.integrate, "quad", "quad.scipy_quad", _quad_neval),
    (spectrum.EigenState, "psi", "spectrum.psi", None),
    (spectrum, "spectrum_table", "spectrum.table", None),
    (cli, "spectrum_table", "spectrum.table", None),
    (specfun, "laguerre", "specfun.laguerre", None),
    (spectrum, "laguerre", "specfun.laguerre", None),
    (cli, "main", "cli.main", None),
    (cli, "emit_rows", "cli.emit_rows", None),
]


class Tracer:
    """Span store plus the wrappers that fill it.  Use `with tracer:` to
    wrap the boundaries, and `with tracer.op_span(i):` around op i."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op_id = -1
        self._saved: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self, op_id: int) -> Iterator[None]:
        """Root span of one op; spans opened inside it carry op_id."""
        self._op_id = op_id
        idx = self._open(self._intern("bench.op"))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counter in BOUNDARIES:
            inner = getattr(owner, attr)
            self._saved.append((owner, attr, inner))
            setattr(owner, attr, self.wrap(inner, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, inner = self._saved.pop()
            setattr(owner, attr, inner)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: total seconds and calls; per layer: self seconds
        (span time not covered by child spans, which never overlap)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        total = np.bincount(a["name_id"], weights=dur, minlength=len(self.names))
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        own = np.bincount(a["name_id"], weights=self_time, minlength=len(self.names))
        layers: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            layers[name.split(".")[0]] += float(own[i])
        return {
            "seconds": {n: float(total[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_seconds": dict(layers),
            "spans": int(len(dur)),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
