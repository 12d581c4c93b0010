"""Batch command-line front-end.

Subcommands
-----------
moments     table of log c_gamma^2 over the simplex |gamma| <= n_max
salpha      partial sums, shell bounds and certificate bounds for one alpha
certify     certified linear lower bound on a profile domain
wiegerinck  diagonal series on Omega_0 (or the structural Omega_k report)
dbar        Hilbert-Schmidt test of the canonical dbar solution operator
report      run any of the above from a JSON config file

Reports are written as CSV or JSON with fixed field order, 12
significant digits and LF line endings, so identical configurations
produce byte-identical files.  Exit codes: 0 success, 1 invalid input,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .certificate import certificate_ladder
from .domains import DomainSpec, MultiIndex, builtin_domain
from .errors import InvalidInputError, NumericalFailureError
from .hankel import (
    Convergent,
    DivergentLinear,
    Inconclusive,
    SYMBOL_NOT_IN_SPACE,
    classify_growth,
    dbar_canonical_report,
    s_alpha_partials,
    sample_ladder,
    shell_bound,
)
from .moments import DIVERGENT, fill_shell, log_c_gamma_sq
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .wiegerinck import omega0_s11, omegak_report

TASKS = ("moments", "salpha", "certify", "wiegerinck", "dbar")

BASIS_NOTE = (
    "assumes the monomials of the basis lattice form a complete "
    "orthogonal system of the Bergman space"
)


# ---------------------------------------------------------------------------
# Formatting: fixed 12 significant digits everywhere.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(obj):
    """Round floats to 12 significant digits so JSON output is stable."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if cell is None else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def _classification_dict(classification) -> dict:
    if isinstance(classification, DivergentLinear):
        return {
            "kind": "DivergentLinear",
            "slope": classification.slope,
            "intercept": classification.intercept,
            "fit_residual": classification.fit_residual,
        }
    if isinstance(classification, Convergent):
        return {"kind": "Convergent", "limit": classification.limit, "tail": classification.tail}
    return {"kind": "Inconclusive", "reason": classification.reason}


def _classification_label(classification) -> str:
    if isinstance(classification, DivergentLinear):
        return f"DivergentLinear(slope={_fmt(classification.slope)})"
    if isinstance(classification, Convergent):
        return f"Convergent(limit={_fmt(classification.limit)})"
    return "Inconclusive"


# ---------------------------------------------------------------------------
# Argument and config parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def parse_domain(text: str) -> DomainSpec:
    """Parse 'family[:params]', e.g. polydisc:2 or profile:inv_one_minus_pow:p=1."""
    tokens = text.strip().split(":")
    kind, rest = tokens[0], tokens[1:]
    kwargs = {}
    if kind == "profile":
        if not rest:
            raise InvalidInputError("profile domain needs a family, e.g. profile:zero")
        kwargs["family"] = rest[0]
        rest = rest[1:]
    positional = {"polydisc": "radius", "omega_k": "k"}.get(kind)
    for token in rest:
        if "=" in token:
            key, _, value = token.partition("=")
        elif positional:
            key, value = positional, token
        else:
            raise InvalidInputError(f"cannot interpret domain parameter {token!r}")
        kwargs[key] = _number(value)
    return builtin_domain(kind, **kwargs)


def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        raise InvalidInputError(f"domain parameter {text!r} is not a number") from None
    if not math.isfinite(value):
        raise InvalidInputError(f"domain parameter must be finite, got {text!r}")
    return int(value) if value.is_integer() else value


def parse_alpha(text: str) -> MultiIndex:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"alpha must be 'a1,a2', got {text!r}")
    try:
        a1, a2 = (int(part) for part in parts)
    except ValueError:
        raise InvalidInputError(f"alpha must be two integers 'a1,a2', got {text!r}") from None
    return MultiIndex(a1, a2)


def _domain_from_config(value) -> DomainSpec:
    if isinstance(value, str):
        return parse_domain(value)
    if isinstance(value, dict):
        value = dict(value)
        kind = value.pop("kind", None)
        if kind is None:
            raise InvalidInputError("config domain object needs a 'kind'")
        return builtin_domain(kind, **value)
    raise InvalidInputError(f"cannot interpret config domain {value!r}")


def _settings_from_config(value) -> QuadratureSettings:
    if value is None:
        return DEFAULT_SETTINGS
    if isinstance(value, (int, float)):
        return QuadratureSettings(rel_tol=float(value))
    if isinstance(value, dict):
        allowed = {"rel_tol", "max_subdivisions"}
        unknown = set(value) - allowed
        if unknown:
            raise InvalidInputError(f"unknown tolerance fields: {sorted(unknown)}")
        return QuadratureSettings(**{**{"rel_tol": 1e-10}, **value})
    raise InvalidInputError(f"cannot interpret tolerance {value!r}")


# ---------------------------------------------------------------------------
# Tasks.  Each returns (text, summary_line).
# ---------------------------------------------------------------------------


def _run_moments(domain, n_max, fmt, settings):
    rows = []
    divergent = 0
    for order in range(n_max + 1):
        fill_shell(domain, order, settings)
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            value = log_c_gamma_sq(domain, gamma, settings)
            if value == DIVERGENT:
                divergent += 1
                rows.append((gamma.g1, gamma.g2, "divergent", None))
            else:
                rows.append((gamma.g1, gamma.g2, "ok", value))
    summary = (
        f"moments {domain.describe()}: {len(rows)} monomials up to order {n_max}, "
        f"{divergent} divergent"
    )
    if fmt == "csv":
        return _csv_text(("g1", "g2", "status", "log_c_sq"), rows), summary
    payload = {
        "task": "moments",
        "domain": domain.describe(),
        "n_max": n_max,
        "note": BASIS_NOTE,
        "moments": [
            {"g1": g1, "g2": g2, "status": status, "log_c_sq": log}
            for g1, g2, status, log in rows
        ],
    }
    return _json_text(payload), summary


def _salpha_data(domain, alpha, n_max, n_step, settings):
    ns = sample_ladder(n_max, n_step)
    partials = s_alpha_partials(domain, alpha, ns, settings)
    shells = [(n, shell_bound(domain, alpha, n, settings)) for n in ns]
    certificate = None
    if domain.kind == "profile":
        try:
            certificate = certificate_ladder(domain.profile, alpha, ns, settings)
        except InvalidInputError:
            certificate = None
    if len(partials) >= 8:
        classification = classify_growth(partials)
    else:
        classification = Inconclusive(reason=f"only {len(partials)} samples")
    return ns, partials, shells, certificate, classification


def _run_salpha(domain, alpha, n_max, n_step, fmt, settings):
    ns, partials, shells, certificate, classification = _salpha_data(
        domain, alpha, n_max, n_step, settings
    )
    bounds = dict(certificate.bounds) if certificate else {}
    rows = [
        (n, value, shells[i][1], bounds.get(n))
        for i, (n, value) in enumerate(partials)
    ]
    summary = (
        f"salpha {domain.describe()} alpha={alpha}: S_alpha({ns[-1]})="
        f"{_fmt(partials[-1][1])}, {_classification_label(classification)}"
    )
    if fmt == "csv":
        return _csv_text(("N", "S_alpha", "shell_bound", "cert_bound"), rows), summary
    payload = {
        "task": "salpha",
        "domain": domain.describe(),
        "alpha": [alpha.g1, alpha.g2],
        "note": BASIS_NOTE,
        "classification": _classification_dict(classification),
        "rows": [
            {"N": n, "S_alpha": s, "shell_bound": sh, "cert_bound": cb}
            for n, s, sh, cb in rows
        ],
    }
    return _json_text(payload), summary


def _run_certify(domain, alpha, n_max, n_step, fmt, settings):
    if domain.kind != "profile":
        raise InvalidInputError("certificates are only defined on profile domains")
    ns, partials, _, certificate, classification = _salpha_data(
        domain, alpha, n_max, n_step, settings
    )
    if certificate is None:
        raise InvalidInputError("no certificate window exists for this profile")
    window = certificate.window
    entries = []
    all_masses_ok = True
    for entry, (n, s_value) in zip(certificate.entries, partials):
        min_mass = min((m for _, m in entry.mass_checks), default=1.0)
        all_masses_ok = all_masses_ok and min_mass >= 0.5 - 1e-6
        entries.append({
            "N": entry.n,
            "count": entry.count,
            "cert_bound": entry.bound,
            "min_mass": min_mass,
            "prefactor_min": entry.prefactor_min,
            "S_alpha": s_value,
            "mass_checks": [
                {"x": x, "y": y, "mass": mass} for (x, y), mass in entry.mass_checks
            ],
        })
    verdict = _classification_label(classification)
    summary = (
        f"certify {domain.describe()} alpha={alpha}: bound({ns[-1]})="
        f"{_fmt(certificate.entries[-1].bound)}, masses>=1/2: {_fmt(all_masses_ok)}, "
        f"verdict {verdict}"
    )
    if fmt == "csv":
        rows = [
            (e["N"], e["count"], e["cert_bound"], e["min_mass"], e["S_alpha"])
            for e in entries
        ]
        return _csv_text(("N", "count", "cert_bound", "min_mass", "S_alpha"), rows), summary
    payload = {
        "task": "certify",
        "domain": domain.describe(),
        "alpha": [alpha.g1, alpha.g2],
        "note": BASIS_NOTE,
        "window": {"a": window.a, "b": window.b, "A": window.A, "B": window.B},
        "lambda": certificate.lam,
        "entries": entries,
        "classification": _classification_dict(classification),
        "verdict": verdict,
    }
    return _json_text(payload), summary


def _run_wiegerinck(n_max, k, n_step, fmt, settings):
    if k is not None:
        report = omegak_report(k)
        summary = f"wiegerinck omega_k k={k}: dimension {report.dimension}"
        if fmt == "csv":
            rows = [(j, count) for j, count in report.term_counts]
            return _csv_text(("j", "structural_terms"), rows), summary
        payload = {
            "task": "wiegerinck",
            "domain": f"omega_k(k={k})",
            "dimension": report.dimension,
            "basis_indices": list(report.basis_indices),
            "term_counts": [{"j": j, "terms": c} for j, c in report.term_counts],
            "statement": report.statement,
        }
        return _json_text(payload), summary
    if n_max is None:
        raise InvalidInputError("wiegerinck needs --n-max (series cutoff M) or --k")
    ms = sample_ladder(n_max, n_step)
    series = [omega0_s11(m) for m in ms]
    partials = [(m, s.partial_sum) for m, s in zip(ms, series)]
    if len(partials) >= 8:
        classification = classify_growth(partials)
    else:
        classification = Inconclusive(reason=f"only {len(partials)} samples")
    last = series[-1]
    summary = (
        f"wiegerinck omega0 M={last.m}: S_11={_fmt(last.partial_sum)}, "
        f"limit_estimate={_fmt(last.limit_estimate)}, "
        f"{_classification_label(classification)}"
    )
    if fmt == "csv":
        rows = [(m, s.partial_sum, s.tail_bound) for m, s in zip(ms, series)]
        return _csv_text(("M", "S_11", "tail_bound"), rows), summary
    payload = {
        "task": "wiegerinck",
        "domain": "omega0",
        "m_max": last.m,
        "partials": [{"M": m, "S_11": s.partial_sum} for m, s in zip(ms, series)],
        "limit_estimate": last.limit_estimate,
        "tail_bound": last.tail_bound,
        "classification": _classification_dict(classification),
    }
    return _json_text(payload), summary


def _run_dbar(domain, n_max, fmt, settings):
    report = dbar_canonical_report(domain, n_max, settings)
    summary = f"dbar {domain.describe()}: {report.verdict}"
    if fmt == "csv":
        rows = []
        for coord in report.coordinates:
            if coord.status != SYMBOL_NOT_IN_SPACE:
                for n, value in coord.partials:
                    rows.append((f"({coord.alpha.g1};{coord.alpha.g2})", n, value))
        return _csv_text(("alpha", "N", "S_alpha"), rows), summary
    payload = {
        "task": "dbar",
        "domain": domain.describe(),
        "coordinates": [
            {
                "alpha": [c.alpha.g1, c.alpha.g2],
                "status": c.status,
                "partials": [{"N": n, "S_alpha": v} for n, v in c.partials],
                "classification": (
                    _classification_dict(c.classification) if c.classification else None
                ),
            }
            for c in report.coordinates
        ],
        "verdict": report.verdict,
    }
    return _json_text(payload), summary


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="reinhardt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS + ("report",):
        p = sub.add_parser(task)
        if task == "report":
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--domain", help="domain, e.g. polydisc:1 or profile:zero")
        p.add_argument("--alpha", help="symbol index, e.g. 1,0")
        p.add_argument("--n-max", type=int, dest="n_max")
        p.add_argument("--n-step", type=int, dest="n_step")
        p.add_argument("--k", type=int, help="truncated Wiegerinck index")
        p.add_argument("--tol", type=float, help="quadrature relative tolerance")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
    return parser


def _merged_config(args) -> dict:
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InvalidInputError("config must be a JSON object")
        task = config.get("task")
        if task not in TASKS:
            raise InvalidInputError(f"config task must be one of {TASKS}, got {task!r}")
    else:
        config["task"] = args.task

    output = config.get("output", {})
    if not isinstance(output, dict):
        raise InvalidInputError("config 'output' must be an object with path/format")
    overrides = {
        "domain": args.domain,
        "alpha": args.alpha,
        "n_max": args.n_max,
        "n_step": args.n_step,
        "k": args.k,
        "tol": args.tol,
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    if args.out is not None:
        output["path"] = args.out
    if args.fmt is not None:
        output["format"] = args.fmt
    config["output"] = output
    return config


def run(config: dict) -> tuple:
    """Execute a validated config; returns (report text, summary line, path)."""
    task = config.get("task")
    if task not in TASKS:
        raise InvalidInputError(f"task must be one of {TASKS}, got {task!r}")
    settings = _settings_from_config(config.get("tol"))
    output = config.get("output", {})
    default_fmt = "csv" if task in ("moments", "salpha") else "json"
    fmt = output.get("format", default_fmt)
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"format must be csv or json, got {fmt!r}")
    path = output.get("path")

    def need(key):
        if config.get(key) is None:
            raise InvalidInputError(f"task {task} requires {key!r}")
        return config[key]

    if task == "wiegerinck":
        if config.get("k") is None and config.get("n_max") is None:
            raise InvalidInputError("wiegerinck requires k or n_max")
        text, summary = _run_wiegerinck(
            config.get("n_max"), config.get("k"), config.get("n_step"), fmt, settings
        )
        return text, summary, path

    domain = _domain_from_config(need("domain"))
    if task == "moments":
        text, summary = _run_moments(domain, int(need("n_max")), fmt, settings)
    elif task == "salpha":
        alpha = _alpha_from_config(need("alpha"))
        text, summary = _run_salpha(
            domain, alpha, int(need("n_max")), config.get("n_step"), fmt, settings
        )
    elif task == "certify":
        alpha = _alpha_from_config(need("alpha"))
        text, summary = _run_certify(
            domain, alpha, int(need("n_max")), config.get("n_step"), fmt, settings
        )
    else:
        text, summary = _run_dbar(domain, int(need("n_max")), fmt, settings)
    return text, summary, path


def _alpha_from_config(value) -> MultiIndex:
    if isinstance(value, str):
        return parse_alpha(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return parse_alpha(f"{value[0]},{value[1]}")
    raise InvalidInputError(f"cannot interpret alpha {value!r}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _merged_config(args)
        text, summary, path = run(config)
        _write_text(path, text)
        # A report on stdout must stay parseable, so the summary goes aside.
        print(summary, file=sys.stderr if path in (None, "-") else sys.stdout)
        return 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        details = ", ".join(
            f"{name}={_fmt(value)}"
            for name, value in (("best_estimate", exc.best_estimate),
                                ("achieved_error", exc.achieved_error))
            if value is not None
        )
        print(f"numerical failure: {exc}" + (f" ({details})" if details else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
