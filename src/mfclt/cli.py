"""Experiment orchestration CLI.

Subcommands: ``clt run|decompose|scaling``, ``meanfield run``, ``derivcheck``,
``metrics check``.  Options come from flags or an INI file (``--config``),
whose (section, key) pairs ``_INI_FLAGS`` turns into flags placed before the
command line's, so flags win.  File values are read literally; an unknown or
unsupported key, a ``kind`` that is not the subcommand's, or a malformed file
is bad configuration.  A seed is always required: there is no wall-clock
default, so the same invocation reproduces the same artifacts byte for byte
(the manifest's wall-time field is the one exception).

Every run writes, next to its JSON report, a manifest with the full resolved
config, package version, RNG family, and per-check outcomes; the manifest is
created before the run starts and finalized afterwards, so a crash leaves a
visibly unfinished manifest.  JSON numbers carry 17 significant digits;
non-finite values serialize as null.  The only environment override is
MFCLT_OUT_DIR for the output directory.

Exit codes: 0 all enabled assertions pass, 2 an assertion failed, 3 bad
configuration or an unwritable output path, 4 numeric failure in an engine.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .clt_engine import (
    EngineError,
    remainder_scaling,
    run_clt_experiment,
)
from .functionals import (
    FunctionalError,
    derivative_pairing,
    gateaux_numeric,
    gateaux_probe_eps,
    lfd,
    make_functional,
    registry_names,
)
from .laws import LawError, SamplerSpec, as_law
from .mean_field import (
    MAX_TIMES,
    CovarianceConfig,
    MeanFieldError,
    _adjoint_moment_form,
    _steps_for,
    cramer_wold_normality,
    fluctuation_process,
    make_model,
    model_names,
    theoretical_covariance,
)
from .measures import (
    DiscreteMeasure,
    MeasureError,
    MetricKind,
    distance,
    lp_wasserstein,
    metric_axiom_suite,
    tv_wasserstein_inequality_check,
)
from .rng import stream

EXIT_PASS = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_KINDS = ("clt", "decompose", "scaling", "meanfield", "derivcheck", "metrics")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    functional: str | None = None
    model: str | None = None
    phi: str | None = None
    law: str = "normal:0,1"
    n: int = 1000
    reps: int = 200
    dt: float = 0.01
    times: tuple[float, ...] = (0.5, 1.0)
    n_grid: tuple[int, ...] = (100, 316, 1000, 3162)
    quad_points: int = 8
    workers: int = 1
    ref_size: int | None = None
    force: bool = True
    out: str | None = None
    out_dir: str = "."
    probes: int = 50

    def validate(self) -> None:
        problems = []
        if self.kind not in _KINDS:
            problems.append(f"unknown kind {self.kind!r}")
        if self.n <= 0 or self.reps <= 0 or self.quad_points <= 0:
            problems.append("n, reps, quad_points must be positive")
        if not (np.isfinite(self.dt) and self.dt > 0):
            problems.append("dt must be finite and positive")
        if self.workers <= 0:
            problems.append("workers must be positive")
        if self.probes <= 0:
            problems.append("probes must be positive")
        if self.kind in ("clt", "meanfield") and self.reps < 3:
            problems.append("reps must be at least 3 for jackknife errors")
        if self.ref_size is not None and self.ref_size < 3:
            problems.append("ref_size must be at least 3 (its split halves need 2 rows)")
        if self.kind == "scaling" and len(self.n_grid) < 2:
            problems.append("n_grid needs at least two points")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            problems.append("n_grid must be strictly increasing")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            problems.append("times must be strictly increasing")
        if self.kind == "meanfield" and not 1 <= len(self.times) <= MAX_TIMES:
            problems.append(f"between 1 and {MAX_TIMES} time points (cost cap)")
        if self.kind == "meanfield":
            for t in self.times:
                try:
                    _steps_for(t, self.dt)
                except MeanFieldError as exc:
                    problems.append(str(exc))
        if self.kind in ("clt", "decompose", "scaling") and self.functional:
            try:
                make_functional(self.functional)
            except FunctionalError as exc:
                problems.append(str(exc))
        if self.kind in ("clt", "decompose", "scaling"):
            try:
                parse_law(self.law)
            except ConfigError as exc:
                problems.append(str(exc))
        if self.kind == "meanfield" and self.model is None:
            problems.append("meanfield run needs --model; registry: "
                            + ", ".join(model_names()))
        elif self.kind == "meanfield" and self.model not in model_names():
            problems.append(
                f"unknown model {self.model!r}; registry: {', '.join(model_names())}")
        if self.kind == "meanfield" and self.phi:
            try:
                _adjoint_moment_form(make_functional(self.phi))
            except (FunctionalError, MeanFieldError) as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))


def parse_law(text: str) -> object:
    """Law specs: normal:<mean>,<sd> | uniform:<low>,<high> | atoms:<path>."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "normal":
            mean, sd = (float(v) for v in rest.split(",")) if rest else (0.0, 1.0)
            return SamplerSpec.normal(mean, sd)
        if kind == "uniform":
            low, high = (float(v) for v in rest.split(",")) if rest else (0.0, 1.0)
            return SamplerSpec.uniform(low, high)
        if kind == "atoms":
            with open(rest, encoding="utf-8") as fh:
                return SamplerSpec.discrete(DiscreteMeasure.from_text(fh.read()))
    except (ValueError, OSError, MeasureError) as exc:
        raise ConfigError(f"bad law spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown law spec {text!r} (normal:|uniform:|atoms:)")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# Config file keys and the flags they become, in the order their tokens are
# emitted: argparse keeps an option's last occurrence, so [model] phi beats
# [experiment] phi whatever the order of the file's sections.
_INI_FLAGS = {
    **{("experiment", key): "--" + key.replace("_", "-") for key in (
        "seed", "functional", "phi", "n", "reps", "dt", "times", "n_grid",
        "quad_points", "workers", "ref_size", "probes")},
    ("law", "spec"): "--law",
    ("model", "name"): "--model",
    ("model", "phi"): "--phi",
    ("model", "force"): "--no-force",
    ("output", "json"): "--out",
    ("output", "dir"): "--out-dir",
}


def _ini_argv(path: str, kind: str, parser: argparse.ArgumentParser,
              head: list[str]) -> list[str]:
    """The INI file at ``path`` as argv tokens for subcommand ``head`` of
    ``parser``, which converts and checks them; values are read literally."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            ini.read_file(fh)
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    known = {("experiment", "kind"), *_INI_FLAGS}
    for section, keys in ini.items():
        if section not in {s for s, _ in known} and (
                keys or section != ini.default_section):
            raise ConfigError(f"config file {path!r}: unknown section [{section}]")
        for key in keys:
            if (section, key) not in known:
                raise ConfigError(f"config key {key!r}: unknown in [{section}]")
    if ini.get("experiment", "kind", fallback=kind) != kind:
        raise ConfigError(f"config key 'kind': must be {kind!r} for this subcommand")
    argv: list[str] = []
    for (section, key), flag in _INI_FLAGS.items():
        if not ini.has_option(section, key):
            continue
        try:  # each key alone, so an error names it
            if flag == "--no-force":  # force = true, the default, emits nothing
                probe = [flag]
                tokens = [] if ini.getboolean(section, key) else probe
            else:
                tokens = probe = [f"{flag}={ini[section][key]}"]
            _, extra = parser.parse_known_args(head + probe)
        except (ValueError, argparse.ArgumentError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if extra:
            raise ConfigError(
                f"config key {key!r}: mfclt {' '.join(head)} takes no {flag}")
        argv += tokens
    return argv


def parse_config(argv: list[str]) -> ExperimentConfig:
    parser = argparse.ArgumentParser(
        prog="mfclt", description=__doc__.splitlines()[0], exit_on_error=False)
    sub = parser.add_subparsers(dest="group", required=True)

    def common(group, name, kind):
        p = group.add_parser(name, exit_on_error=False)
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--seed", type=int, help="required somewhere: flag or file")
        p.add_argument("--out", help="JSON report path")
        p.add_argument("--out-dir", help="output directory")
        p.add_argument("--workers", type=int)
        return p

    clt = sub.add_parser("clt", exit_on_error=False)
    clt_sub = clt.add_subparsers(dest="action", required=True)
    for action in ("run", "decompose", "scaling"):
        p = common(clt_sub, action, "clt" if action == "run" else action)
        p.add_argument("--functional")
        p.add_argument("--law")
        p.add_argument("--n", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--quad-points", type=int)
        if action == "scaling":
            p.add_argument("--n-grid", type=_ints)

    meanfield = sub.add_parser("meanfield", exit_on_error=False)
    mf_sub = meanfield.add_subparsers(dest="action", required=True)
    p = common(mf_sub, "run", "meanfield")
    p.add_argument("--model")
    p.add_argument("--phi")
    p.add_argument("--n", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--times", type=_floats)
    p.add_argument("--dt", type=float)
    p.add_argument("--ref-size", type=int)
    p.add_argument("--no-force", dest="force", action="store_false", default=None,
                   help="honor the covariance hypothesis gate strictly")

    p = common(sub, "derivcheck", "derivcheck")
    p.add_argument("--probes", type=int)

    metrics = sub.add_parser("metrics", exit_on_error=False)
    met_sub = metrics.add_subparsers(dest="action", required=True)
    common(met_sub, "check", "metrics")

    try:
        ns = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise ConfigError(f"bad arguments: {exc}") from exc
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            raise
        raise ConfigError("bad arguments (see usage)") from exc
    if ns.config:
        # file tokens go before the command line's flags, which so win; each
        # token has already parsed alone, so the combined line parses too
        head = argv[:1 if ns.kind == "derivcheck" else 2]
        ns = parser.parse_args(head + _ini_argv(ns.config, ns.kind, parser, head)
                               + argv[len(head):])
    values = {k: v for k, v in vars(ns).items()
              if v is not None and k not in ("group", "action", "config")}
    values.setdefault("out_dir", os.environ.get("MFCLT_OUT_DIR", "."))
    if "seed" not in values:
        raise ConfigError("a seed is required (flag --seed or [experiment] seed)")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# serialization


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            return "null"
        return format(v, ".17g")
    if value is None:
        return "null"
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_json(payload: dict) -> str:
    """Deterministic JSON with 17-significant-digit floats, null non-finites."""
    return _fmt(payload) + "\n"


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv_lines(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        if np.ndim(row) == 0:
            lines.append(format(float(row), ".17g"))
        else:
            lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class Manifest:
    path: str
    config: dict
    checks: dict = field(default_factory=dict)
    status: str = "running"
    started: float = 0.0

    def begin(self) -> None:
        self.started = time.time()
        self._dump(wall_time_s=None)

    def finish(self, status: str) -> None:
        self.status = status
        self._dump(wall_time_s=time.time() - self.started)

    def _dump(self, wall_time_s) -> None:
        _write(self.path, dumps_json({
            "artifact_version": __version__,
            "rng": "philox4x64 counter streams",
            "status": self.status,
            "config": self.config,
            "checks": self.checks,
            "wall_time_s": wall_time_s,
        }))


# ---------------------------------------------------------------------------
# runners


def _paths(cfg: ExperimentConfig, stem: str) -> tuple[str, str, str]:
    base = cfg.out or os.path.join(cfg.out_dir, f"{stem}.json")
    if not os.path.isabs(base):
        base = os.path.join(cfg.out_dir, base) if cfg.out else base
    root, _ = os.path.splitext(base)
    return base, root + ".csv", root + ".manifest.json"


def _run_clt(cfg: ExperimentConfig) -> tuple[dict, str | None, dict]:
    u = make_functional(cfg.functional or "linear-mean")
    law = parse_law(cfg.law)
    report = run_clt_experiment(u, law, cfg.n, cfg.reps, cfg.seed,
                                workers=cfg.workers)
    payload = {
        "n": report.n,
        "reps": report.replications,
        "seed": report.seed,
        "sigma2_theory": report.sigma2_theory,
        "sigma2_empirical": report.sigma2_empirical,
        "ks_stat": report.ks_stat,
        "ks_pvalue": report.ks_pvalue,
    }
    csv_text = _csv_lines("sqrtN_deltaU", report.samples)
    if report.degenerate:
        return payload, csv_text, {"degenerate_variance_shrinks": bool(
            report.sigma2_empirical < 0.05)}
    tol = 0.1 * report.sigma2_theory + 3.0 * (
        report.sigma2_empirical_stderr + report.sigma2_theory_stderr)
    return payload, csv_text, {
        "ks_pvalue_gt_0.01": bool(report.ks_pvalue > 0.01),
        "variance_within_10pct_plus_3se": bool(
            abs(report.sigma2_empirical - report.sigma2_theory) <= tol),
    }


def _run_decompose(cfg: ExperimentConfig) -> tuple[dict, str | None, dict]:
    from .clt_engine import decompose_many

    u = make_functional(cfg.functional or "mean-square")
    law = parse_law(cfg.law)
    records = decompose_many(u, law, cfg.n, cfg.reps, cfg.seed,
                             quad_points=cfg.quad_points, workers=cfg.workers)
    residuals = np.asarray([r.identity_residual for r in records])
    payload = {
        "n": cfg.n, "reps": cfg.reps, "seed": cfg.seed,
        "quad_points": cfg.quad_points,
        "max_residual": float(residuals.max()),
        "mean_abs_q": float(np.mean([abs(r.q_n) for r in records])),
        "mean_abs_r": float(np.mean([abs(r.r_n) for r in records])),
    }
    return payload, _csv_lines("identity_residual", residuals), {
        "identity_residual_lt_1e-8": bool(residuals.max() < 1e-8)}


def _run_scaling(cfg: ExperimentConfig) -> tuple[dict, str | None, dict]:
    u = make_functional(cfg.functional or "mean-square")
    law = parse_law(cfg.law)
    report = remainder_scaling(u, law, cfg.n_grid, cfg.reps, cfg.seed,
                               quad_points=cfg.quad_points, workers=cfg.workers)
    csv_text = _csv_lines(
        "n,mean_abs_remainder",
        np.column_stack([cfg.n_grid, report.mean_abs_remainder]))
    payload = {
        "n_grid": list(cfg.n_grid), "reps": cfg.reps, "seed": cfg.seed,
        "slope": report.slope, "r2": report.r_squared,
        "mean_abs_remainder": list(report.mean_abs_remainder),
        "degenerate": report.degenerate,
    }
    if report.degenerate:
        return payload, csv_text, {"remainder_identically_zero": True}
    return payload, csv_text, {"slope_le_-0.5": bool(report.slope <= -0.5),
                               "r2_gt_0.9": bool(report.r_squared > 0.9)}


def _run_meanfield(cfg: ExperimentConfig) -> tuple[dict, str | None, dict]:
    model = make_model(cfg.model)
    phi = make_functional(cfg.phi or "linear-mean")
    report = fluctuation_process(phi, model, cfg.n, cfg.times, cfg.reps,
                                 cfg.seed, dt=cfg.dt, ref_size=cfg.ref_size,
                                 workers=cfg.workers)
    cov_cfg = CovarianceConfig(dt=cfg.dt, force=cfg.force)
    theory = theoretical_covariance(phi, model, cfg.times, cov_cfg, cfg.seed)
    directions = cramer_wold_normality(report.f_samples, theory.matrix)
    header = ",".join(f"F_t{t:g}" for t in cfg.times)
    payload = {
        "times": list(cfg.times),
        "n": cfg.n, "reps": cfg.reps, "seed": cfg.seed, "dt": cfg.dt,
        "sigma_empirical": report.sigma_empirical,
        "sigma_empirical_stderr": report.sigma_empirical_stderr,
        "sigma_theory": theory.matrix,
        "sigma_theory_stderr": theory.stderr,
        "hypothesis_gate": theory.gate,
        "cramer_wold": [
            {"direction": list(d.direction), "pvalue": d.pvalue,
             "skipped": d.skipped} for d in directions],
        "reference_size": report.ref_size,
        "reference_bias_scaled": report.ref_bias_scaled,
    }
    combined = np.sqrt(report.sigma_empirical_stderr ** 2 + theory.stderr ** 2)
    gap = np.abs(report.sigma_empirical - theory.matrix)
    live = [d.pvalue for d in directions if not d.skipped]
    return payload, _csv_lines(header, report.f_samples), {
        "covariance_within_3_combined_se": bool(
            np.all(gap <= 3.0 * combined + 1e-12)),
        "cramer_wold_p_gt_0.01": bool(
            all(p > 0.01 for p in live)) if live else True,
    }


def _run_derivcheck(cfg: ExperimentConfig) -> tuple[dict, str | None, dict]:
    rng = stream(cfg.seed, "derivcheck")
    gaps: dict[str, float] = {}
    names = [n if ":" not in n else "quantile:0.5" for n in registry_names()]
    for name in names:
        u = make_functional(name)
        worst = 0.0
        for _ in range(cfg.probes):
            mu = DiscreteMeasure(rng.normal(size=(4, 1)))
            nu = DiscreteMeasure(rng.normal(size=(3, 1)))
            if name.startswith("quantile"):
                mu = as_law(SamplerSpec.normal(float(rng.normal()) * 0.2, 1.0))
            eps = gateaux_probe_eps(u, mu, nu, 1e-3)
            numeric = gateaux_numeric(u, mu, nu, eps=eps, richardson=2)
            symbolic = derivative_pairing(lfd(u, 1), mu, nu)
            denom = 1.0 + abs(symbolic)
            worst = max(worst, abs(numeric - symbolic) / denom)
        gaps[name] = worst
    payload = {"probes": cfg.probes, "seed": cfg.seed,
               "max_rel_gap": max(gaps.values()), "per_functional": gaps}
    return payload, None, {"max_gap_lt_1e-6": bool(max(gaps.values()) < 1e-6)}


def _run_metrics(cfg: ExperimentConfig) -> tuple[dict, str | None, dict]:
    rng = stream(cfg.seed, "metrics")
    axioms = metric_axiom_suite(MetricKind.wasserstein(0.5), rng,
                                n_triples=200, tol=1e-10)
    lp_ok = True
    worst_lp = 0.0
    for _ in range(50):
        mu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 7)), 1)))
        nu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 7)), 1)))
        ell = float(rng.uniform(1.0, 3.0))
        fast = distance(mu, nu, MetricKind.wasserstein(ell))
        slow = lp_wasserstein(mu, nu, ell)
        worst_lp = max(worst_lp, abs(fast - slow))
        lp_ok = lp_ok and abs(fast - slow) <= 1e-9
    pairs = []
    for _ in range(1000):
        mu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 6)), 1)))
        nu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 6)), 1)))
        pairs.append((mu, nu, float(rng.uniform(0.3, 2.5))))
    ineq_ok = all(tv_wasserstein_inequality_check(pairs))
    payload = {
        "seed": cfg.seed,
        "axiom_triples": axioms.triples,
        "axiom_max_violation": axioms.max_violation,
        "quantile_vs_lp_max_gap": worst_lp,
        "inequality_pairs": 1000,
    }
    return payload, None, {"metric_axioms": bool(axioms.ok),
                           "quantile_matches_lp": bool(lp_ok),
                           "tv_wasserstein_inequality": bool(ineq_ok)}


_RUNNERS = {
    "clt": _run_clt,
    "decompose": _run_decompose,
    "scaling": _run_scaling,
    "meanfield": _run_meanfield,
    "derivcheck": _run_derivcheck,
    "metrics": _run_metrics,
}


def run(cfg: ExperimentConfig) -> int:
    """Run one experiment and write its artifacts; each runner returns
    (report payload, CSV text or None, checks).  An output directory that
    cannot be made raises ConfigError before anything runs."""
    json_path, csv_path, manifest_path = _paths(cfg, cfg.kind)
    manifest = Manifest(manifest_path, dict(vars(cfg)))
    try:
        manifest.begin()
    except OSError as exc:
        raise ConfigError(f"cannot write {manifest_path!r}: {exc}") from exc
    try:
        payload, csv_text, checks = _RUNNERS[cfg.kind](cfg)
    except ConfigError as exc:
        manifest.finish("config-failure")
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EngineError, MeanFieldError, FunctionalError, LawError,
            MeasureError, FloatingPointError) as exc:
        manifest.checks["error"] = f"{type(exc).__name__}: {exc}"
        manifest.finish("numeric-failure")
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if csv_text is not None:
        _write(csv_path, csv_text)
        payload["samples_csv_path"] = os.path.basename(csv_path)
    _write(json_path, dumps_json(payload))
    manifest.checks.update(checks)
    passed = all(checks.values())
    manifest.finish("done" if passed else "assertion-failure")
    if not passed:
        failing = [k for k, v in manifest.checks.items() if v is not True]
        print(f"assertion failure: {', '.join(failing)}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_config(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
