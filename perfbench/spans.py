"""In-memory span recorder for the traced run.

Each call into a wrapped function becomes a span: name, start, end, the
span that was open when it began (its parent) and the field being worked
on.  Spans stay in flat arrays while the run lasts and are written out once
at the end; self time and call counts are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs timed in the traced run, by layer
LAYERS = (
    ("cubicfield", "validate"),
    ("cubicfield", "apply_hopf"),
    ("cubicfield", "hopf_mul"),
    ("cubicfield", "gram_matrix"),
    ("exactlinalg", "reduce_tall"),
    ("exactlinalg", "lattice_equal3"),
    ("exactlinalg", "det3"),
    ("exactlinalg", "inverse3"),
    ("assocorder", "build"),
    ("assocorder", "_verify_certificates"),
    ("quadrep", "solve_with_conditions"),
    ("quadrep", "solve_indefinite"),
    ("quadrep", "pell_fundamental"),
    ("quadrep", "solve_definite"),
    ("quadrep", "solve_degenerate"),
    ("freeness", "decide_freeness"),
    ("freeness", "generator_from_solution"),
    ("freeness", "is_generator"),
    ("integrality", "is_maximal"),
    ("integrality", "combined_verdict"),
    ("arith", "factorize"),
    ("cli", "main"),
)

OP = "op"  # root span the benchmark opens around each operation


def _cert_info(result):
    cert = result[1]
    return ("cert", cert.kind, len(cert.representatives), cert.orbit_period_mod or 0)


def _unit_info(result):
    return ("unit", result[0].bit_length())


def _factor_info(result):
    return ("factor", result[1] != 1)


# what to keep from the returned object of a traced call
INFO = {
    "quadrep.solve_with_conditions": _cert_info,
    "quadrep.pell_fundamental": _unit_info,
    "arith.factorize": _factor_info,
}


class Tracer:
    def __init__(self):
        self.names = [OP] + [f"{m}.{f}" for m, f in LAYERS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.field = array("q")
        self.info: dict[int, tuple] = {}
        self.field_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.field.append(self.field_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, field_id: int):
        """The root span of one benchmark operation."""
        self.field_id = field_id
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        name_id = self.name_id[name]
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.info[sid] = ("raised", type(exc).__name__)
                raise
            finally:
                self._close(sid)
            if info is not None:
                self.info[sid] = info(result)
            return result

        return traced

    def install(self, mods: dict) -> None:
        """Replace every module-level binding of each traced function in the
        package (``build`` is bound in cli, freeness and assocorder alike)."""
        package = [m for n, m in sys.modules.items() if n == "cubicha" or n.startswith("cubicha.")]
        for module, fname in LAYERS:
            orig = getattr(mods[module], fname)
            traced = self.wrap(f"{module}.{fname}", orig)
            for mod in package:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
                        self._installed.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, start_ns, end_ns,
        field, info."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tfield\tinfo\n")
            for sid in range(len(self.start)):
                info = self.info.get(sid)
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}\t"
                    f"{self.start[sid]}\t{self.end[sid]}\t{self.field[sid]}\t"
                    f"{','.join(map(str, info)) if info else ''}\n"
                )

    def layer_table(self, passes: int, fields: int) -> dict[str, float]:
        """Per-layer metrics derived from the spans.

        Self time is a span's duration minus the durations of its child
        spans.  Times, calls and counts are per pass over the run's sample;
        ``assocorder.build.calls_per_field`` is per field attempted.
        """
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for sid in range(n):
            name = self.names[self.name[sid]]
            self_ns[name] += self.end[sid] - self.start[sid] - child[sid]
            calls[name] += 1
        certs = {"DEFINITE": 0, "INDEFINITE": 0, "DEGENERATE": 0}
        reps = orbit = bits = incomplete = raised = 0
        for sid, info in self.info.items():
            if info[0] == "cert":
                certs[info[1]] += 1
                reps += info[2]
                orbit += info[3]
            elif info[0] == "unit":
                bits = max(bits, info[1])
            elif info[0] == "factor":
                incomplete += info[1]
            elif info[0] == "raised" and self.names[self.name[sid]] == "cli.main":
                raised += 1
        table: dict[str, float] = {}
        for module, fname in LAYERS:
            name = f"{module}.{fname}"
            table[f"{name}.self_s"] = self_ns[name] / 1e9 / passes
            table[f"{name}.calls"] = calls[name] / passes
        table["assocorder.build.calls_per_field"] = calls["assocorder.build"] / max(fields, 1)
        for kind, count in certs.items():
            table[f"quadrep.certs.{kind}"] = count / passes
        table["quadrep.representatives"] = reps / passes
        table["quadrep.orbit_steps"] = orbit / passes
        table["quadrep.unit_bits_max"] = bits
        table["arith.factorize.incomplete"] = incomplete / passes
        table["cli.main.raised"] = raised / passes
        return table

