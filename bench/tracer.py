"""Traced in-process run of the mpmsa CLI, for the per-layer metrics.

    python3 bench/tracer.py <metrics.json> <kind> --config <file.cfg>

Imports the package (timing the import), wraps the public functions and
methods of every mpmsa module plus numpy.linalg.eigh/eigvalsh, rebinds every
name that refers to a wrapped function (including names bound through
``from .x import y`` and the runner table), then calls mpmsa.cli.main(argv).
Each call records a span (name, start, end, parent) kept in memory; when the
run ends the spans are reduced to the per-layer metrics and written as JSON.
The exit code is the CLI's.

Generator functions, properties and private names are not wrapped: a span
around a generator would time only its creation, and the hot helpers
(product_neighbors is called about 10^6 times by one classify sweep) stay
inside their caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

# Computed flop models (Golub & Van Loan, symmetric QR): eigenvalues and
# eigenvectors ~9 m^3, eigenvalues only ~4/3 m^3.  Labelled "computed".
EIGH_FLOP = 9.0
EIGVALSH_FLOP = 4.0 / 3.0
PROBE = "trace.probe"


class Tracer:
    """Span recorder: one list append per call, reduced after the run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.eigh_sizes: list[int] = []
        self.eigh_hashes: set[bytes] = set()
        self.eigvalsh_sizes: list[int] = []
        self.volumes: set[int] = set()
        self.cover_intervals = 0
        self.supmin_evals = 0
        self.trials = 0
        self.workers = 0

    def _open(self) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, perf()

    def _close(self, name: str, idx: int, start: float) -> None:
        end = perf()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent)

    def probe(self, fn, *args) -> None:
        """Run bookkeeping inside its own span so no layer's self time pays for it."""
        idx, start = self._open()
        try:
            fn(*args)
        finally:
            self._close(PROBE, idx, start)

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self.probe(before, *args)
            idx, start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, idx, start)
            if after is not None:
                self.probe(after, out)
            return out

        return traced

    # -- argument and result probes ------------------------------------------
    def _eigh(self, matrix, *_):
        self.eigh_sizes.append(matrix.shape[0])
        self.eigh_hashes.add(hashlib.sha1(matrix.tobytes()).digest())

    def _eigvalsh(self, matrix, *_):
        self.eigvalsh_sizes.append(matrix.shape[0])

    def _volume(self, volume, *_):
        self.volumes.add(hash(volume.configs))

    def _prepared(self, _self, volume, *_):
        self._volume(volume)

    def _cover(self, cover):
        self.cover_intervals += len(cover.intervals)

    def _supmin(self, result):
        self.supmin_evals += result.n_evaluations

    def _trials(self, _fn, n_trials, *_):
        self.trials += n_trials

    def _workers(self, count):
        self.workers = max(self.workers, count)


def _targets(module):
    """(qualified name, owner, attribute, function) for every public entry point."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield f"{short}.{name}", module, name, obj
        elif inspect.isclass(obj):
            is_dataclass = hasattr(obj, "__dataclass_fields__")
            for attr, val in list(vars(obj).items()):
                if attr.startswith("_") and not (attr == "__init__" and not is_dataclass):
                    continue
                if isinstance(val, (classmethod, staticmethod)):
                    fn = val.__func__
                elif inspect.isfunction(val):
                    fn = val
                else:
                    continue
                if not inspect.isgeneratorfunction(fn):
                    yield f"{short}.{name}.{attr}", obj, attr, val


def install(tracer: Tracer, package) -> None:
    """Wrap every entry point and rebind every reference to it."""
    import numpy  # after the timed package import, which loads it

    modules = [importlib.import_module(f"{package.__name__}.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    hooks = {
        "hamiltonian.assemble": (tracer._volume, None),
        "hamiltonian.PreparedVolume.__init__": (tracer._prepared, None),
        "induction.cover_from_profile": (None, tracer._cover),
        "induction.sup_min_functional": (None, tracer._supmin),
        "parallel.run_trials": (tracer._trials, None),
        "parallel.thread_count": (None, tracer._workers),
    }
    replaced: dict[int, object] = {}
    for module in modules:
        for qual, owner, attr, val in _targets(module):
            before, after = hooks.get(qual, (None, None))
            if isinstance(val, (classmethod, staticmethod)):
                wrapped = type(val)(tracer.wrap(qual, val.__func__, before, after))
            else:
                wrapped = tracer.wrap(qual, val, before, after)
                replaced[id(val)] = wrapped
            setattr(owner, attr, wrapped)
    # rebind names imported into other modules and values held in tables
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]
    numpy.linalg.eigh = tracer.wrap("numpy.linalg.eigh", numpy.linalg.eigh, tracer._eigh)
    numpy.linalg.eigvalsh = tracer.wrap(
        "numpy.linalg.eigvalsh", numpy.linalg.eigvalsh, tracer._eigvalsh
    )


def reduce_spans(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans."""
    spans = tracer.spans  # every span is closed once the run has returned
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    names = [s[0] for s in spans]
    for idx, (name, start, end, parent) in enumerate(spans):
        self_time[name] += end - start - child[idx]
        calls[name] += 1
    # group inclusive time: spans in `group` with no ancestor in `group`
    def inclusive(group: set[str]) -> float:
        total = 0.0
        for name, start, end, parent in spans:
            if name not in group:
                continue
            p = parent
            while p >= 0 and names[p] not in group:
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total

    def module_self(prefix: str, exclude: set[str] = frozenset()) -> float:
        return sum(v for k, v in self_time.items() if k.startswith(prefix) and k not in exclude)

    def module_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    prepared = {"hamiltonian.PreparedVolume.__init__", "hamiltonian.PreparedVolume.from_ball"}
    under_prepared = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        if not name.startswith("hamiltonian.") or name in prepared:
            continue
        p = parent
        while p >= 0 and names[p] not in prepared:
            p = spans[p][3]
        if p >= 0:
            under_prepared += end - start - child[idx]

    eigh_s = self_time["numpy.linalg.eigh"]
    eigvalsh_s = self_time["numpy.linalg.eigvalsh"]
    eigh_gflop = EIGH_FLOP * sum(m**3 for m in tracer.eigh_sizes) / 1e9
    eigvalsh_gflop = EIGVALSH_FLOP * sum(m**3 for m in tracer.eigvalsh_sizes) / 1e9
    return {
        "config.load_s": inclusive({"config.load_config"}),
        "reporting.write_s": inclusive({"reporting.Report.write"}),
        "spectral.eigh_s": eigh_s,
        "spectral.eigh_calls": calls["numpy.linalg.eigh"],
        "spectral.eigh_distinct": len(tracer.eigh_hashes),
        "spectral.eigh_m_max": max(tracer.eigh_sizes, default=0),
        "spectral.eigh_gflop": eigh_gflop,
        "spectral.eigh_gflops": eigh_gflop / eigh_s if eigh_s > 0 else 0.0,
        "spectral.contracts_s": self_time["spectral.eigendecompose"],
        "spectral.efc_s": inclusive({"spectral.efc"}),
        "spectral.efc_calls": calls["spectral.efc"],
        "spectral.profile_s": inclusive({
            "spectral.boundary_profile", "spectral.boundary_functional",
            "spectral.BoundaryProfile.evaluate", "spectral.BoundaryProfile.green_values",
        }),
        "evc.s": module_self("evc."),
        "evc.eigvalsh_s": eigvalsh_s,
        "evc.eigvalsh_calls": calls["numpy.linalg.eigvalsh"],
        "evc.eigvalsh_gflop": eigvalsh_gflop,
        "evc.eigvalsh_gflops": eigvalsh_gflop / eigvalsh_s if eigvalsh_s > 0 else 0.0,
        "hamiltonian.assemble_s": module_self("hamiltonian.", prepared) - under_prepared,
        "hamiltonian.assemblies": calls["hamiltonian.assemble"]
        + calls["hamiltonian.PreparedVolume.matrix"]
        + calls["hamiltonian.HamiltonianMatrix.submatrix"],
        "hamiltonian.distinct_volumes": len(tracer.volumes),
        "hamiltonian.prepared_s": inclusive(prepared),
        "configspace.s": module_self("configspace."),
        "configspace.calls": module_calls("configspace."),
        "msa.s": module_self("msa."),
        "msa.classify_calls": calls["msa.classify"],
        "experiments.s": module_self("experiments."),
        "induction.cover_s": inclusive({"induction.cover_from_profile"}),
        "induction.covers": calls["induction.cover_from_profile"],
        "induction.cover_intervals": tracer.cover_intervals,
        "induction.supmin_s": self_time["induction.sup_min_functional"],
        "induction.supmin_evals": tracer.supmin_evals,
        "disorder.sample_s": inclusive({"disorder.sample_potential"}),
        "graphs.s": module_self("graphs."),
        "parallel.trials": tracer.trials,
        "parallel.workers": tracer.workers,
        "trace.spans": len(spans),
        "trace.probe_s": self_time[PROBE],
        "trace.calls": dict(sorted(calls.items())),
    }


def main(argv: list[str]) -> int:
    out_path, cli_argv = Path(argv[0]), argv[1:]
    start = perf()
    import mpmsa
    import mpmsa.cli

    import_s = perf() - start
    tracer = Tracer()
    install(tracer, mpmsa)
    code = mpmsa.cli.main(cli_argv)
    # the pool size a pooled runner would use; the hook records it also for
    # runners without a pool
    mpmsa.parallel.thread_count()
    metrics = reduce_spans(tracer)
    metrics["cli.import_s"] = import_s
    metrics["exit_code"] = code
    out_path.write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
