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
import dataclasses
import json
import math
import sys

from .certificate import certificate_ladder
from .domains import DomainSpec, MultiIndex, builtin_domain
from .errors import InvalidInputError, NumericalFailureError
from .hankel import (
    Inconclusive,
    SYMBOL_NOT_IN_SPACE,
    classify_growth,
    dbar_canonical_report,
    s_alpha_partials,
    sample_ladder,
    shell_bound,
)
from .moments import DIVERGENT, log_c_gamma_sq, log_c_shell
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .wiegerinck import S11_LIMIT, omegak_report, s11_tail_bound

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


def _classify(partials):
    """classify_growth on at least 8 partial sums, else Inconclusive."""
    if len(partials) >= 8:
        return classify_growth(partials)
    return Inconclusive(reason=f"only {len(partials)} samples")


def _classification_dict(classification) -> dict:
    return {"kind": classification.label, **dataclasses.asdict(classification)}


def _classification_label(classification) -> str:
    if isinstance(classification, Inconclusive):
        return classification.label
    first = dataclasses.fields(classification)[0].name
    return f"{classification.label}({first}={_fmt(getattr(classification, first))})"


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


def _alpha_from_config(value) -> MultiIndex:
    if isinstance(value, str):
        return parse_alpha(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return parse_alpha(f"{value[0]},{value[1]}")
    raise InvalidInputError(f"cannot interpret alpha {value!r}")


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


def _integer(value, key: str) -> int:
    """A config integer: an int, an integral float or a string of digits."""
    if isinstance(value, str) and value.strip().isdecimal():
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{key} must be an integer, got {value!r}")


# How run() reads the required config keys that are not integers.
_PARSE = {"domain": _domain_from_config, "alpha": _alpha_from_config}


# ---------------------------------------------------------------------------
# Tasks.  Each builder returns (summary line, CSV header, CSV rows, JSON
# payload); run() formats the one the config asks for.  The payload comes as
# a function, so a CSV run never builds it.
# ---------------------------------------------------------------------------


def _moments(config, settings, domain, n_max):
    rows = []
    for order in range(n_max + 1):
        # Off-lattice monomials are divergent.  The lookup of the first
        # lattice point computes the shell; the rest come from its array.
        g1s, logs = domain.lattice.shell(order), {}
        if g1s:
            log_c_gamma_sq(domain, MultiIndex(g1s[0], order - g1s[0]), settings)
            logs = dict(zip(g1s, log_c_shell(domain, order, settings).tolist()))
        for g1 in range(order + 1):
            value = logs.get(g1, DIVERGENT)
            ok = value != DIVERGENT
            rows.append((g1, order - g1, "ok" if ok else "divergent", value if ok else None))
    divergent = sum(status == "divergent" for _, _, status, _ in rows)
    summary = (
        f"moments {domain.describe()}: {len(rows)} monomials up to order {n_max}, "
        f"{divergent} divergent"
    )
    return summary, ("g1", "g2", "status", "log_c_sq"), rows, lambda: {
        "task": "moments",
        "domain": domain.describe(),
        "n_max": n_max,
        "note": BASIS_NOTE,
        "moments": [
            {"g1": g1, "g2": g2, "status": status, "log_c_sq": log}
            for g1, g2, status, log in rows
        ],
    }


def _certificate(domain, alpha, ns, settings):
    """The certificate ladder on a profile domain with a window, else None."""
    if domain.kind != "profile":
        return None
    try:
        return certificate_ladder(domain.profile, alpha, ns, settings)
    except InvalidInputError:
        return None


def _salpha(config, settings, domain, alpha, n_max):
    ns = sample_ladder(n_max, config.get("n_step"))
    partials = s_alpha_partials(domain, alpha, ns, settings)
    shells = [shell_bound(domain, alpha, n, settings) for n in ns]
    certificate = _certificate(domain, alpha, ns, settings)
    classification = _classify(partials)
    bounds = dict(certificate.bounds) if certificate else {}
    rows = [(n, value, shell, bounds.get(n)) for (n, value), shell in zip(partials, shells)]
    summary = (
        f"salpha {domain.describe()} alpha={alpha}: S_alpha({ns[-1]})="
        f"{_fmt(partials[-1][1])}, {_classification_label(classification)}"
    )
    return summary, ("N", "S_alpha", "shell_bound", "cert_bound"), rows, lambda: {
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


def _certify(config, settings, domain, alpha, n_max):
    if domain.kind != "profile":
        raise InvalidInputError("certificates are only defined on profile domains")
    ns = sample_ladder(n_max, config.get("n_step"))
    partials = s_alpha_partials(domain, alpha, ns, settings)
    certificate = _certificate(domain, alpha, ns, settings)
    classification = _classify(partials)
    if certificate is None:
        raise InvalidInputError("no certificate window exists for this profile")
    entries = []
    for entry, (_, s_value) in zip(certificate.entries, partials):
        entries.append({
            "N": entry.n,
            "count": entry.count,
            "cert_bound": entry.bound,
            "min_mass": min((m for _, m in entry.mass_checks), default=1.0),
            "prefactor_min": entry.prefactor_min,
            "S_alpha": s_value,
            "mass_checks": [
                {"x": x, "y": y, "mass": mass} for (x, y), mass in entry.mass_checks
            ],
        })
    all_masses_ok = all(e["min_mass"] >= 0.5 for e in entries)
    verdict = _classification_label(classification)
    summary = (
        f"certify {domain.describe()} alpha={alpha}: bound({ns[-1]})="
        f"{_fmt(certificate.entries[-1].bound)}, masses>=1/2: {_fmt(all_masses_ok)}, "
        f"verdict {verdict}"
    )
    header = ("N", "count", "cert_bound", "min_mass", "S_alpha")
    rows = [tuple(e[key] for key in header) for e in entries]
    window = certificate.window
    return summary, header, rows, lambda: {
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


def _wiegerinck(config, settings):
    k = config.get("k")
    if k is not None:
        report = omegak_report(k)
        summary = f"wiegerinck omega_k k={k}: dimension {report.dimension}"
        return summary, ("j", "structural_terms"), report.term_counts, lambda: {
            "task": "wiegerinck",
            "domain": f"omega_k(k={k})",
            "dimension": report.dimension,
            "basis_indices": list(report.basis_indices),
            "term_counts": [{"j": j, "terms": c} for j, c in report.term_counts],
            "statement": report.statement,
        }
    if config.get("n_max") is None:
        raise InvalidInputError("wiegerinck requires k or n_max")
    ms = sample_ladder(config["n_max"], config.get("n_step"))
    partials = s_alpha_partials(DomainSpec.wiegerinck_omega0(), MultiIndex(1, 1), ms, settings)
    classification = _classify(partials)
    m, last = partials[-1]
    summary = (
        f"wiegerinck omega0 M={m}: S_11={_fmt(last)}, "
        f"limit_estimate={_fmt(S11_LIMIT)}, {_classification_label(classification)}"
    )
    rows = [(m, s, s11_tail_bound(m)) for m, s in partials]
    return summary, ("M", "S_11", "tail_bound"), rows, lambda: {
        "task": "wiegerinck",
        "domain": "omega0",
        "m_max": m,
        "partials": [{"M": m, "S_11": s} for m, s in partials],
        "limit_estimate": S11_LIMIT,
        "tail_bound": s11_tail_bound(m),
        "classification": _classification_dict(classification),
    }


def _dbar(config, settings, domain, n_max):
    report = dbar_canonical_report(domain, n_max, settings)
    rows = [
        (f"({c.alpha.g1};{c.alpha.g2})", n, value)
        for c in report.coordinates if c.status != SYMBOL_NOT_IN_SPACE
        for n, value in c.partials
    ]
    summary = f"dbar {domain.describe()}: {report.verdict}"
    return summary, ("alpha", "N", "S_alpha"), rows, lambda: {
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


# task: (required config keys, in the order they are read; default format;
# builder).  A builder takes the config, the quadrature settings and the
# parsed required values.  Builders look up the library functions when they
# run, so a name patched on this module is the one they call.
TASKS = {
    "moments": (("domain", "n_max"), "csv", _moments),
    "salpha": (("domain", "alpha", "n_max"), "csv", _salpha),
    "certify": (("domain", "alpha", "n_max"), "json", _certify),
    "wiegerinck": ((), "json", _wiegerinck),
    "dbar": (("domain", "n_max"), "json", _dbar),
}


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="reinhardt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in (*TASKS, "report"):
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
            raise InvalidInputError(f"config task must be one of {tuple(TASKS)}, got {task!r}")
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
        raise InvalidInputError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    required, default_fmt, build = TASKS[task]
    settings = _settings_from_config(config.get("tol"))
    output = config.get("output", {})
    fmt = output.get("format", default_fmt)
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"format must be csv or json, got {fmt!r}")
    integers = {key: _integer(config[key], key) for key in ("n_max", "n_step", "k")
                if config.get(key) is not None}
    config = {**config, **integers}
    values = []
    for key in required:
        if config.get(key) is None:
            raise InvalidInputError(f"task {task} requires {key!r}")
        values.append(_PARSE[key](config[key]) if key in _PARSE else config[key])
    summary, header, rows, payload = build(config, settings, *values)
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join("" if cell is None else _fmt(cell) for cell in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_jsonable(payload()), indent=2) + "\n"
    return text, summary, output.get("path")


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
