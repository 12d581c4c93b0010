"""Outside-in tracer: spans around the calls between reinhardt modules.

Nothing in the package is edited.  The tracer replaces the names each
calling module looks up at call time (``reinhardt.moments.log_integrate``,
``reinhardt.hankel.log_c_gamma_sq``, ...) with wrappers that record a span:
name, start, end and the span that was open when it began.  Patching only
the defining module would record nothing, because callers import these
functions by name.

Span names are ``<layer>.<function>``; a layer's self time is the time
its spans cover minus the time their direct child spans cover.  Spans stay
in flat arrays in memory and are written out once, after the run.

``profiles.phi.points`` counts the radii at which phi is evaluated.  It is
taken by wrapping ``reinhardt.domains.profile_family`` so that each profile
it builds carries a counting phi; profiles hash by (name, params), so the
memo keys do not change.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array

import numpy as np

# (calling module, name it looks up, span name).  A name a later version of
# the package no longer has fails the traced run instead of reading as 0.
BINDINGS = (
    ("reinhardt.cli", "run", "cli.run"),
    ("reinhardt.cli", "log_c_gamma_sq", "moments.log_c_gamma_sq"),
    ("reinhardt.cli", "s_alpha_partials", "hankel.s_alpha_partials"),
    ("reinhardt.cli", "shell_bound", "hankel.shell_bound"),
    ("reinhardt.cli", "classify_growth", "hankel.classify_growth"),
    ("reinhardt.cli", "dbar_canonical_report", "hankel.dbar_canonical_report"),
    ("reinhardt.cli", "certificate_ladder", "certificate.certificate_ladder"),
    ("reinhardt.hankel", "log_c_gamma_sq", "moments.log_c_gamma_sq"),
    ("reinhardt.hankel", "s_alpha_partials", "hankel.s_alpha_partials"),
    ("reinhardt.hankel", "classify_growth", "hankel.classify_growth"),
    ("reinhardt.certificate", "check_subharmonic", "certificate.check_subharmonic"),
    ("reinhardt.certificate", "density_mass", "certificate.density_mass"),
    ("reinhardt.certificate", "log_profile_interval_moment", "moments.log_profile_interval_moment"),
    ("reinhardt.certificate", "log_radial_moment", "moments.log_radial_moment"),
    ("reinhardt.moments", "log_integrate", "quadrature.log_integrate"),
)

MOMENT_LOOKUP = "moments.log_c_gamma_sq"


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors: dict[str, int] = {}
        self.moment_keys: set = set()
        self.phi_points = 0
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, span_name, fn, on_call=None):
        """Return fn wrapped so that every call records one span."""
        nid = self._name_id(span_name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        errors, clock = self.errors, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[span_name] = errors.get(span_name, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        keys = self.moment_keys
        for module_name, attr, span_name in BINDINGS:
            on_call = None
            if span_name == MOMENT_LOOKUP:
                def on_call(spec, gamma, *rest, **kwargs):
                    keys.add((spec, gamma))
            self._patch(module_name, attr, self.wrap(span_name, getattr(
                importlib.import_module(module_name), attr), on_call))
        domains = importlib.import_module("reinhardt.domains")
        self._patch("reinhardt.domains", "profile_family", self._counting_family(domains.profile_family))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _patch(self, module_name, attr, replacement):
        module = importlib.import_module(module_name)
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _counting_family(self, profile_family):
        def counting_family(*args, **kwargs):
            profile = profile_family(*args, **kwargs)
            phi = profile.phi

            def counted_phi(r):
                self.phi_points += int(np.size(r))
                return phi(r)

            return dataclasses.replace(profile, phi=counted_phi)

        return counting_family

    # -- results ---------------------------------------------------------

    def spans(self) -> dict:
        """The spans as columns (name index, start, end, parent index, run id)."""
        n = len(self.start)
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.full(n, self.run_id, dtype=np.int32),
        }

    def metrics(self) -> dict:
        """Per-layer times and counts of the traced run."""
        cols = self.spans()
        name, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        nested = parent >= 0
        child_time = np.zeros_like(dur)
        np.add.at(child_time, parent[nested], dur[nested])
        self_time = dur - child_time
        layer_of = np.array([n.split(".")[0] for n in self.names])[name]

        def of(span_name):
            return name == self._name_id(span_name)

        def calls(span_name):
            return int(np.count_nonzero(of(span_name)))

        def seconds(span_name):
            return float(dur[of(span_name)].sum())

        def self_s(layer):
            return float(self_time[layer_of == layer].sum())

        lookups = of(MOMENT_LOOKUP)
        from_hankel = np.zeros_like(lookups)
        from_hankel[lookups & nested] = layer_of[parent[lookups & nested]] == "hankel"
        quad_calls = calls("quadrature.log_integrate")
        return {
            "quadrature.log_integrate.calls": quad_calls,
            "quadrature.log_integrate.s": seconds("quadrature.log_integrate"),
            "quadrature.log_integrate.mean_us": (
                1e6 * seconds("quadrature.log_integrate") / quad_calls if quad_calls else 0.0
            ),
            "quadrature.log_integrate.errors": self.errors.get("quadrature.log_integrate", 0),
            "profiles.phi.points": self.phi_points,
            "moments.log_c_gamma_sq.calls": calls(MOMENT_LOOKUP),
            "moments.self_s": self_s("moments"),
            "moments.distinct_ratio": len(self.moment_keys) / calls(MOMENT_LOOKUP),
            "hankel.s_alpha_partials.calls": calls("hankel.s_alpha_partials"),
            "hankel.s_alpha_partials.s": seconds("hankel.s_alpha_partials"),
            "hankel.shell_bound.s": seconds("hankel.shell_bound"),
            "hankel.classify_growth.s": seconds("hankel.classify_growth"),
            "hankel.moment_lookups": int(np.count_nonzero(from_hankel)),
            "hankel.self_s": self_s("hankel"),
            "certificate.certificate_ladder.s": seconds("certificate.certificate_ladder"),
            "certificate.density_mass.calls": calls("certificate.density_mass"),
            "certificate.check_subharmonic.calls": calls("certificate.check_subharmonic"),
            "certificate.self_s": self_s("certificate"),
            "cli.run.s": seconds("cli.run"),
            "cli.self_s": self_s("cli"),
        }

    def counts(self) -> dict:
        """The deterministic counts: every span's call count plus the phi points."""
        per_name = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        counts = {f"{n}.calls": int(c) for n, c in zip(self.names, per_name)}
        counts["profiles.phi.points"] = self.phi_points
        counts["moments.distinct_keys"] = len(self.moment_keys)
        return counts
