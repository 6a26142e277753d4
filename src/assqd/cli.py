"""Command-line harness: build models, sample counts, run methods, sweep benchmarks.

Verbs
-----
model   emit a disordered-model Hamiltonian (text) plus its metadata
oracle  exact lowest eigenpairs of a model instance (JSON energies, optional npz)
sample  contaminated finite-shot counts for a model instance (counts JSON)
run     one method on an existing Hamiltonian file + counts file (trace JSON)
bench   standard/random/EN scaling sweep (rows + per-(n, method) medians)
ablate  acquisition-variant comparison (rows + medians)
hops    paired 1-hop vs 2-hop arms (rows + iterations-to-threshold stats)
ingest  counts file straight from hardware (or any external sampler) -> AS-SQD run

Global flags: --seed (disorder/sampling seed), --out (file; stdout otherwise),
--format {csv,json} for tabular verbs. Verbs whose natural payload is a single
document (oracle, sample, run, ingest) always emit JSON. Repeating any
invocation with identical flags reproduces identical output, except for the
wall_ms timing field.

One option stack (-K, -B, -T, --tau, --eps) serves every verb that runs the
expansion loop and hands the verb one RunConfig, its budget: bench, ablate
and hops give it to every cell of the sweep, and run and ingest set on it
the loop kind from --method, --hops and the global --seed.  Their trace
reports that kind as config.kind; the trace's "method" is its label.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path
from typing import Any

import click

from .bench import (
    DEFAULT_ETA,
    DEFAULT_SEEDS,
    ExperimentSpec,
    default_shots,
    experiment_ablation,
    experiment_hops,
    experiment_scaling,
    prepare_instance,
    rows_to_csv,
)
from .driver import METHOD_KINDS, RunConfig, RunError, run_as_sqd, trace_record
from .models import MIN_QUBITS, ModelSpec, build_model, metadata_record
from .oracle import ORACLE_MAX_QUBITS, ConvergenceError, exact_lowest, save_eigenpairs
from .pauli import MAX_QUBITS, format_hamiltonian, load_hamiltonian
from .sampling import counts_to_json, load_counts

_MODEL_KINDS = click.Choice(["heisenberg", "tfim"])
# Chain lengths a model instance can have, and those the reference oracle
# solves (oracle and sample need its eigenpairs).
_MODEL_SIZES = click.IntRange(MIN_QUBITS, MAX_QUBITS)
_ORACLE_SIZES = click.IntRange(MIN_QUBITS, ORACLE_MAX_QUBITS)


def _emit(ctx: click.Context, text: str) -> None:
    out = ctx.obj["out"]
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(out).write_text(text, encoding="utf-8")


def _sidecar(ctx: click.Context, suffix: str, text: str) -> None:
    """Write a companion document next to --out; skipped on stdout."""
    out = ctx.obj["out"]
    if out is not None:
        Path(str(out) + suffix).write_text(text, encoding="utf-8")


# Strict JSON: a NaN or infinite float raises instead of being written as
# the NaN or Infinity literal, which strict parsers reject.
_json = functools.partial(json.dumps, indent=2, allow_nan=False)


def _int_list(low: int, high: float = float("inf")):
    """Option callback: a nonempty list of distinct integers in [low, high]."""
    def parse(ctx: click.Context, param: click.Parameter,
              text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise click.BadParameter(f"not a comma-separated integer list: {text!r}") from exc
        if not values or any(not low <= v <= high for v in values):
            raise click.BadParameter(
                f"expected one or more integers within [{low}, {high}], got {text!r}")
        if len(set(values)) != len(values):
            raise click.BadParameter(f"a value repeats in {text!r}")
        return values
    return parse


def _finite(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Option callback: NaN passes every FloatRange bound, inf an open one."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _emit_table(
    ctx: click.Context, rows: list, summaries: list[dict[str, Any]], label: str
) -> None:
    """Rows as CSV or JSON; summaries ride along (sidecar in CSV mode)."""
    if ctx.obj["format"] == "json":
        # An error row's NaN E_est and err are null; its terminated says why.
        records = [{key: None if isinstance(v, float) and math.isnan(v) else v
                    for key, v in dataclasses.asdict(row).items()} for row in rows]
        _emit(ctx, _json({"rows": records, label: summaries}))
    else:
        _emit(ctx, rows_to_csv(rows))
        _sidecar(ctx, f".{label}.json", _json(summaries))


def _load(ctx: click.Context, loader, path: str, param: str):
    """Read an input file; a malformed one is a usage error on its argument."""
    try:
        return loader(path)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx=ctx, param_hint=f"'{param}'") from exc


def _instance(kind: str, n: int, seed: int):
    spec = ModelSpec(kind=kind, n=n, seed=seed)
    ham, disorder = build_model(spec)
    return ham, spec, disorder


class _Main(click.Group):
    """Ends a solver failure as "Error: <message>" with exit code 1, not a traceback."""

    def invoke(self, ctx: click.Context) -> Any:
        try:
            return super().invoke(ctx)
        except (ConvergenceError, RunError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Disorder/sampling seed for single-instance verbs.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file; stdout when omitted.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True,
              help="Table format for bench/ablate/hops.")
@click.pass_context
def main(ctx: click.Context, seed: int, out: str | None, fmt: str) -> None:
    """Subspace-expansion ground-state estimation from measurement counts."""
    ctx.obj = {"seed": seed, "out": out, "format": fmt}


@main.command()
@click.argument("kind", type=_MODEL_KINDS)
@click.argument("n", type=_MODEL_SIZES)
@click.pass_context
def model(ctx: click.Context, kind: str, n: int) -> None:
    """Emit the Hamiltonian for a disordered chain instance.

    Text format by default, with metadata in a `.meta.json` sidecar when
    --out is given; --format json bundles both into one document.
    """
    ham, spec, disorder = _instance(kind, n, ctx.obj["seed"])
    text = format_hamiltonian(ham)
    meta = metadata_record(spec, disorder)
    if ctx.obj["format"] == "json":
        _emit(ctx, _json({"metadata": meta, "hamiltonian": text}))
    else:
        _emit(ctx, text)
        _sidecar(ctx, ".meta.json", _json(meta))


@main.command()
@click.argument("kind", type=_MODEL_KINDS)
@click.argument("n", type=_ORACLE_SIZES)
@click.option("--count", type=click.IntRange(2, 8), default=2, show_default=True,
              help="Number of lowest eigenpairs (at most 2^n).")
@click.option("--pairs", type=click.Path(dir_okay=False), default=None,
              help="Also save eigenvectors to this .npz file.")
@click.pass_context
def oracle(ctx: click.Context, kind: str, n: int, count: int,
           pairs: str | None) -> None:
    """Exact lowest eigenpairs of a model instance (JSON energies).

    H is solved one popcount sector at a time when it conserves popcount,
    at every size, and as one CSR matrix when it does not: each sector's
    block is built when it is first tested or solved and dropped after,
    so one block is held at a time.  A block of at most 170 states is
    solved densely, a larger one by Lanczos.
    """
    if count > 1 << n:
        raise click.BadParameter(
            f"{count} is more than the {1 << n} eigenpairs at n={n}",
            ctx=ctx, param_hint="'--count'",
        )
    ham, spec, disorder = _instance(kind, n, ctx.obj["seed"])
    eig = exact_lowest(ham, count=count)
    if pairs is not None:
        save_eigenpairs(pairs, eig)
    payload = {
        "metadata": metadata_record(spec, disorder),
        "energies": [float(e) for e in eig.energies],
        "e0": float(eig.e0),
        "e1": float(eig.e1),
        "degenerate_ground": eig.degenerate_ground,
    }
    _emit(ctx, _json(payload))


@main.command()
@click.argument("kind", type=_MODEL_KINDS)
@click.argument("n", type=_ORACLE_SIZES)
@click.option("--shots", type=click.IntRange(min=1), default=None,
              help="Shot count; size-based default (2000 for n<=10, else 3000).")
@click.option("--eta", type=click.FloatRange(0, 1), default=DEFAULT_ETA,
              show_default=True, callback=_finite,
              help="Excited-state contamination weight.")
@click.option("--bit-order", type=click.Choice(["qubit0_first", "qubit0_last"]),
              default="qubit0_first", show_default=True,
              help="Bitstring key convention in the emitted counts JSON.")
@click.pass_context
def sample(ctx: click.Context, kind: str, n: int, shots: int | None,
           eta: float, bit_order: str) -> None:
    """Finite-shot counts from the contaminated preparation model."""
    bundle = prepare_instance(kind, n, ctx.obj["seed"], shots or default_shots(n), eta)
    _emit(ctx, counts_to_json(bundle.counts, bit_order=bit_order))


def _options(*options):
    """Apply click options so that they list in the order given."""
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


_budget_stack = _options(
    click.option("-K", "K", type=click.IntRange(min=1), default=RunConfig.K,
                 show_default=True, help="Initial subspace size (top-K by count)."),
    click.option("-B", "B", type=click.IntRange(min=1), default=RunConfig.B,
                 show_default=True, help="Basis states added per iteration."),
    click.option("-T", "T", type=click.IntRange(min=1), default=RunConfig.T,
                 show_default=True, help="Expansion iterations."),
    click.option("--tau", type=click.FloatRange(0, 1, max_open=True),
                 default=RunConfig.tau, show_default=True, callback=_finite,
                 help="Dominant-support probability threshold."),
    click.option("--eps", type=click.FloatRange(min=0, min_open=True),
                 default=RunConfig.eps, show_default=True, callback=_finite,
                 help="Score denominator floor."),
)


def _budget_options(fn):
    """The budget option stack, handed to ``fn`` as one ``budget`` RunConfig."""
    @functools.wraps(fn)
    def packed(*args: Any, K: int, B: int, T: int, tau: float, eps: float,
               **kwargs: Any) -> Any:
        budget = RunConfig(K=K, B=B, T=T, tau=tau, eps=eps)
        return fn(*args, budget=budget, **kwargs)
    return _budget_stack(packed)


_run_options = _options(
    click.option("--method", type=click.Choice(METHOD_KINDS), default="en",
                 show_default=True, help="Expansion policy."),
    _budget_options,
    click.option("--hops", type=click.IntRange(1, 2), default=1,
                 show_default=True, help="Candidate horizon."),
)


def _run_and_emit(
    ctx: click.Context,
    ham,
    counts,
    config: RunConfig,
    model_metadata: dict[str, Any] | None,
    compute_exact: bool = True,
) -> None:
    pairs = None
    if compute_exact and ham.n <= ORACLE_MAX_QUBITS:
        pairs = exact_lowest(ham, count=2)
    trace = run_as_sqd(ham, counts, config)
    record = trace_record(trace, config, model_metadata, pairs)
    _emit(ctx, _json(record))


@main.command()
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.argument("counts_file", type=click.Path(exists=True, dir_okay=False))
@_run_options
@click.option("--no-exact", is_flag=True,
              help="Skip the exact reference solve (no error column).")
@click.pass_context
def run(ctx: click.Context, hamiltonian: str, counts_file: str, method: str,
        budget: RunConfig, hops: int, no_exact: bool) -> None:
    """One method on a Hamiltonian file plus a counts file (trace JSON).

    Beyond the oracle's qubit limit the reference solve is skipped, as
    with --no-exact, and e0, e1 and err are null.
    """
    ham = _load(ctx, load_hamiltonian, hamiltonian, "HAMILTONIAN")
    counts = _load(ctx, load_counts, counts_file, "COUNTS_FILE")
    if counts.n != ham.n:
        raise click.UsageError(
            f"counts are for n={counts.n} but the Hamiltonian has n={ham.n}"
        )
    config = dataclasses.replace(budget, kind=method, hops=hops, seed=ctx.obj["seed"])
    _run_and_emit(ctx, ham, counts, config, None, compute_exact=not no_exact)


@main.command()
@click.argument("counts_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=_MODEL_KINDS, default="heisenberg",
              show_default=True, help="Model family to reconstruct.")
@_run_options
@click.pass_context
def ingest(ctx: click.Context, counts_file: str, kind: str, method: str,
           budget: RunConfig, hops: int) -> None:
    """Externally sampled counts (e.g. hardware) -> reconstruct model, run.

    The qubit count is read from the counts file; the disorder instance is
    rebuilt from --kind and the global --seed, so the counts must have been
    measured on that same instance.  Beyond the oracle's qubit limit the
    reference solve is skipped and e0, e1 and err are null.
    """
    counts = _load(ctx, load_counts, counts_file, "COUNTS_FILE")
    if counts.n < MIN_QUBITS:
        raise click.BadParameter(
            f"the models need at least {MIN_QUBITS} qubits, got n={counts.n}",
            ctx=ctx, param_hint="'COUNTS_FILE'",
        )
    ham, spec, disorder = _instance(kind, counts.n, ctx.obj["seed"])
    config = dataclasses.replace(budget, kind=method, hops=hops, seed=ctx.obj["seed"])
    _run_and_emit(ctx, ham, counts, config, metadata_record(spec, disorder))


def _sweep_options(default_sizes: str):
    return _options(
        click.option("--kind", type=_MODEL_KINDS, default="heisenberg",
                     show_default=True),
        click.option("--sizes", default=default_sizes, show_default=True,
                     callback=_int_list(MIN_QUBITS, ORACLE_MAX_QUBITS),
                     help="Comma-separated system sizes."),
        click.option("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                     show_default=True, callback=_int_list(0),
                     help="Comma-separated disorder seeds."),
        click.option("--shots", type=click.IntRange(min=1), default=None,
                     help="Override the size-based shot default."),
        click.option("--eta", type=click.FloatRange(0, 1), default=DEFAULT_ETA,
                     show_default=True, callback=_finite),
        _budget_options,
    )


@main.command()
@_sweep_options("8,10,12")
@click.pass_context
def bench(ctx: click.Context, **kwargs: Any) -> None:
    """Scaling sweep: standard vs random vs EN expansion, shared counts."""
    rows, medians = experiment_scaling(ExperimentSpec(**kwargs))
    _emit_table(ctx, rows, medians, "medians")


@main.command()
@_sweep_options("12")
@click.pass_context
def ablate(ctx: click.Context, **kwargs: Any) -> None:
    """Acquisition-variant sweep: en, coupling_only, denom_only, diag_only."""
    rows, medians = experiment_ablation(ExperimentSpec(**kwargs))
    _emit_table(ctx, rows, medians, "medians")


@main.command()
@_sweep_options("12")
@click.pass_context
def hops(ctx: click.Context, **kwargs: Any) -> None:
    """Paired 1-hop vs 2-hop EN arms with iterations-to-threshold stats.

    An arm that never comes within the threshold is marked "unreached",
    in its list and in a median that lands on it; a failed cell is null.
    """
    rows, stats = experiment_hops(ExperimentSpec(**kwargs))
    mark = lambda v: "unreached" if v == math.inf else v
    _emit_table(ctx, rows, [
        {key: [mark(x) for x in v] if isinstance(v, list) else mark(v)
         for key, v in entry.items()} for entry in stats], "stats")


if __name__ == "__main__":
    main(prog_name="assqd")
