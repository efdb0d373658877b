"""In-memory spans around calls into quench_bench's layers.

A span is (name, start, end, parent, attrs).  Spans are kept in a list while
the benchmark runs and written out once at the end; self times are derived
afterwards as a span's duration minus the durations of its direct children.

``Tracer.installed()`` swaps the public functions of each layer (and the
matvec callable handed to ``expm_lanczos``) for wrappers that record spans,
and restores the originals on exit.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SolveCounter:
    """Counts Lanczos solves and the unconverged ones; active in every run.

    It times nothing, so it stays installed while end-to-end metrics are
    measured: unconverged solves count as failed operations.
    """

    def __init__(self):
        self.solves = 0
        self.unconverged = 0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # patch targets the program no longer has
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), parent, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span; ``on_result(span, args, result)`` may
        attach attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, counter: SolveCounter):
        """Patch the layer entry points for the duration of the block.

        With tracing disabled only the Lanczos solve counter goes in.
        """
        patches = _patch_table(self, counter)
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, old in originals:
                setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


def dense_apply_flops(matvec) -> int:
    """Real FLOPs of one dense effective-Hamiltonian apply, from operand shapes.

    The apply is three complex GEMMs: left environment (a, w, a') with the
    ket (a, s, b), the operator matrix (w*s, s*w') and the right environment
    (b, w', b'); a complex multiply-add is 8 real FLOPs.  Returns 0 when the
    callable does not expose those dimensions.
    """
    try:
        a, s, b = matvec.a, matvec.s, matvec.b
        w, wr, a_bra, b_bra = matvec.w, matvec.wr, matvec.a_bra, matvec.b_bra
    except AttributeError:
        return 0
    gemm1 = w * a_bra * a * s * b
    gemm2 = a_bra * b * w * s * s * wr
    gemm3 = a_bra * s * b * wr * b_bra
    return 8 * (gemm1 + gemm2 + gemm3)


def _lanczos_wrapper(tracer: Tracer, counter: SolveCounter, layer: str, fn):
    @functools.wraps(fn)
    def wrapped(matvec, v, coeff, *args, **kwargs):
        flops = 0
        if tracer.enabled:
            flops = dense_apply_flops(matvec)
            matvec = tracer.wrap(f"{layer}.apply", matvec)
        with tracer.span(f"{layer}.lanczos") as s:
            result = fn(matvec, v, coeff, *args, **kwargs)
        counter.solves += 1
        counter.unconverged += not result.converged
        if s is not None:
            s.attrs["iterations"] = result.iterations
            s.attrs["converged"] = result.converged
            s.attrs["apply_flops"] = flops
        return result

    return wrapped


def _record_step(span, args, record):
    engine = args[0]
    span.attrs["self_wall"] = record.wall_seconds
    span.attrs["trunc"] = record.truncation_weight_step
    span.attrs["chi"] = record.max_chi_used
    span.attrs["n_sites"] = engine.state.n_sites
    span.attrs["mem_bytes"] = sum(
        t.nbytes for t in engine.state.tensors + engine.left_envs + engine.right_envs
    )


def _patch_table(tracer: Tracer, counter: SolveCounter) -> list:
    import numpy as np
    import scipy.linalg

    from quench_bench import budget, cli, convergence, costfit, oracle, register
    from quench_bench.mps import evolve

    table = [
        (evolve, "expm_lanczos", _lanczos_wrapper(tracer, counter, "mps", evolve.expm_lanczos)),
        (oracle, "expm_lanczos", _lanczos_wrapper(tracer, counter, "oracle", oracle.expm_lanczos)),
    ]
    if not tracer.enabled:
        return table

    def add(owner, attr, name, on_result=None):
        if not hasattr(owner, attr):
            tracer.missing.add(f"{owner.__name__}.{attr}")
            return
        table.append((owner, attr, tracer.wrap(name, getattr(owner, attr), on_result)))

    add(evolve.TdvpEngine, "step", "mps.step", _record_step)
    add(evolve.TdvpEngine, "energy", "mps.energy")
    add(evolve, "update_left_env", "mps.env")
    add(evolve, "update_right_env", "mps.env")
    add(evolve, "site_expectations", "mps.measure")
    # the SVD split calls numpy's (or, on a gesdd failure, scipy's) svd
    add(np.linalg, "svd", "mps.svd")
    add(scipy.linalg, "svd", "mps.svd")
    add(oracle, "occupations", "oracle.measure")
    add(oracle.DenseHamiltonian, "expectation", "oracle.measure")
    for attr in ("evaluate_run", "energy_scale", "energy_drift", "d8_error"):
        add(convergence, attr, "convergence.evaluate")
    # artifact writers of the simulate commands
    for attr in ("_write_mps_trajectory_csv", "_prepend_manifest_comment", "_emit_verdict",
                 "write_timing_csv"):
        add(cli, attr, "cli.artifacts")
    add(oracle, "export_trajectory_csv", "cli.artifacts")
    add(register, "plan_rearrangement", "register.plan")
    add(register, "simulate_defect_free", "register.mc")
    add(budget, "qpu_schedule", "budget.schedule")
    add(costfit, "fit_mps", "costfit.fit")
    add(costfit, "crossover", "costfit.crossover")
    return table


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent >= 0:
                self.child_time[s.parent] += s.duration
            self.by_name.setdefault(s.name, []).append(i)

    def select(self, name: str, *under: str) -> list[int]:
        """Outermost spans called ``name`` that have an ancestor of every name
        in ``under``; a span nested in a same-name span is skipped."""
        out = []
        for i in self.by_name.get(name, []):
            above = self._ancestor_names(i)
            if name not in above and all(u in above for u in under):
                out.append(i)
        return out

    def _ancestor_names(self, i: int) -> set[str]:
        names = set()
        p = self.spans[i].parent
        while p >= 0:
            names.add(self.spans[p].name)
            p = self.spans[p].parent
        return names

    def total(self, idx: list[int]) -> float:
        return sum((self.spans[i].duration for i in idx), 0.0)

    def self_total(self, idx: list[int]) -> float:
        return sum((self.spans[i].duration - self.child_time[i] for i in idx), 0.0)
