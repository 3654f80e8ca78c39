"""Command-line surface.

Map expressions are polynomials in z with decimal or rational coefficients;
a top-level `/` separates numerator and denominator, so `(z^3 - 16/27)/z`
is a degree-3 rational map while `16/27` inside a term is one coefficient.
Test functions (`kms --test`, `witness --a`) use the same grammar with one
more atom, conj(z), and no top-level `/`: `(z + conj(z))^2` is the real
polynomial 4 Re(z)^2. Exponents and the degree in each of z and conj(z)
are at most 64, and every coefficient must be finite.
Registry examples are addressed by name, families as name:param=value.
All numeric output uses 17 significant digits and fixed seeds, so repeated
runs are byte-identical.
"""

import argparse
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import RatdynError, UnknownExample, WitnessFailed
from .numkernel import SpherePoint, _write_json, poly_add, poly_mul
from .ratmap import RationalMap, critical_points, preimages, preimage_tree
from .julia import (_STAT_WALKERS, _check_window, _render_start,
                    critical_points_in_julia, render,
                    sample_inverse_iteration, write_cloud_csv, write_pgm)
from .measure import lyubich_exact, lyubich_mc, write_weighted_csv
from .transfer import TestFunction, kms_iterate, write_trace_csv
from .bimodule import normalized_witness, write_witness_json
from . import registry


class MapParseError(ValueError):
    """Raised for malformed map or test-function expressions."""


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def _tokenize(s):
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(ch)
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(s) and (s[j].isdigit() or s[j] == "."):
                j += 1
            if j < len(s) and s[j] in "eE" and j + 1 < len(s) and \
                    (s[j + 1].isdigit() or s[j + 1] in "+-"):
                j += 2
                while j < len(s) and s[j].isdigit():
                    j += 1
            toks.append(("num", s[i:j]))
            i = j
            continue
        if s.startswith("conj", i):
            toks.append("conj")
            i += 4
            continue
        if ch in "zZ":
            toks.append("z")
            i += 1
            continue
        raise MapParseError(f"unexpected character {ch!r} in expression")
    return toks


def _numval(text):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(int(text))


class _Poly:
    """Coefficient table c[j, k] of z^j conj(z)^k for the parser.

    Each column k is a polynomial in z, and columns combine through
    `poly_add` and `poly_mul`, so a map (the one column k = 0) keeps the
    bits of plain polynomial arithmetic. The table's shape follows the
    written degrees in z and in conj(z), each at most 64.
    """

    def __init__(self, c):
        self.c = np.asarray(c, dtype=complex)

    @staticmethod
    def _from_columns(shape, cols):
        out = np.zeros(shape, dtype=complex)
        for k, col in enumerate(cols):
            out[:col.size, k] = col
        return _Poly(out)

    def __add__(self, o):
        shape = np.maximum(self.c.shape, o.c.shape)
        a, b = (np.pad(p.c, [(0, n) for n in shape - p.c.shape])
                for p in (self, o))
        return _Poly._from_columns(
            shape, [poly_add(x, y) for x, y in zip(a.T, b.T)])

    def __neg__(self):
        return _Poly(-self.c)

    def __mul__(self, o):
        shape = np.add(self.c.shape, o.c.shape) - 1
        if shape.max() > 65:
            raise MapParseError("expression degree exceeds 64")
        cols = [None] * shape[1]
        for k1, a in enumerate(self.c.T):
            for k2, b in enumerate(o.c.T):
                p, k = poly_mul(a, b), k1 + k2
                cols[k] = p if cols[k] is None else poly_add(cols[k], p)
        return _Poly._from_columns(shape, cols)

    def power(self, k):
        out = _Poly([[1.0 + 0j]])
        for _ in range(k):
            out = out * self
        return out


class _ExprParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def _is_num(self, t):
        return isinstance(t, tuple) and t[0] == "num"

    def _int_exponent(self):
        t = self.take()
        if not self._is_num(t) or "." in t[1] or "e" in t[1] or "E" in t[1]:
            raise MapParseError("exponent must be a nonnegative integer")
        k = int(t[1])
        if k > 64:
            raise MapParseError("exponent exceeds 64")
        return k

    def _coefficient(self, t):
        """Value of the number token t, just taken, with any / NUM after it.

        A rational coefficient NUM / NUM binds tighter than the
        numerator/denominator split.
        """
        val = _numval(t[1])
        if self.peek() == "/" and self.pos + 1 < len(self.toks) \
                and self._is_num(self.toks[self.pos + 1]):
            self.take()
            den = _numval(self.take()[1])
            if den == 0:
                raise MapParseError("zero denominator in coefficient")
            val = Fraction(val) / Fraction(den) \
                if not isinstance(val, float) and not isinstance(den, float) \
                else float(val) / float(den)
        return val

    def factor(self):
        t = self.peek()
        if t == "-":
            self.take()
            return -self.factor()
        if t == "+":
            self.take()
            return self.factor()
        if self._is_num(t):
            self.take()
            base = _Poly([[complex(float(self._coefficient(t)))]])
        elif t == "z":
            self.take()
            base = _Poly([[0j], [1.0 + 0j]])
        elif t == "conj":
            self.take()
            if [self.take() for _ in range(3)] != ["(", "z", ")"]:
                raise MapParseError("conj takes the bare variable: conj(z)")
            base = _Poly([[0j, 1.0 + 0j]])
        elif t == "(":
            self.take()
            base = self.expr()
            if self.take() != ")":
                raise MapParseError("missing closing parenthesis")
        elif t is None:
            raise MapParseError("expression ends where a factor should be")
        else:
            raise MapParseError(f"unexpected token {t!r}")
        if self.peek() == "^":
            self.take()
            base = base.power(self._int_exponent())
        return base

    def _starts_factor(self, t):
        return t in ("z", "conj", "(") or self._is_num(t)

    def term(self):
        val = self.factor()
        while True:
            t = self.peek()
            if t == "*":
                self.take()
                val = val * self.factor()
            elif self._starts_factor(t):
                val = val * self.factor()  # implicit product like 2z^2
            else:
                return val

    def expr(self):
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.term()
            val = val + (-nxt if op == "-" else nxt)
        return val


def _split(text, what):
    """The polynomials of text on either side of its top-level `/`."""
    toks = _tokenize(text)
    if not toks:
        raise MapParseError(f"empty {what} expression")
    ps = _ExprParser(toks)
    parts = [ps.expr()]
    if ps.peek() == "/":
        ps.take()
        parts.append(ps.expr())
    if ps.peek() is not None:
        raise MapParseError(f"trailing tokens near {ps.peek()!r}")
    return parts


def parse_map_expression(text):
    """Parse `P` or `P/Q` into a RationalMap."""
    num, *den = _split(text, "map")
    den = den[0] if den else _Poly([[1.0 + 0j]])
    if num.c[:, 1:].any() or den.c[:, 1:].any():
        raise MapParseError("a map is a polynomial in z: no conj(z) terms")
    try:
        return RationalMap(num.c[:, 0], den.c[:, 0])
    except (ValueError, RatdynError) as exc:
        raise MapParseError(str(exc)) from exc


def parse_test_function(text):
    """A polynomial in z and conj(z) with real, finite coefficients.

    The map grammar with conj(z) as one more atom and no top-level `/`:
    NUM/NUM is one coefficient with a nonzero denominator, an exponent is
    an integer from 0 to 64, the degree in each of z and conj(z) is at most
    64, and each sign ahead of a factor multiplies it, so "2*-z" is -2z.
    """
    poly, *den = _split(text, "test-function")
    if den:
        raise MapParseError("a test function has no denominator")
    if not np.isfinite(poly.c).all():
        raise MapParseError("test-function coefficients must be finite")
    # real parts; + 0.0 clears the -0.0 a sign leaves: from_table's bits
    c = (poly.c.real + 0.0).astype(complex)
    return TestFunction("monomial", coeffs=c, label=text.strip())


_FAMILY = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?::([A-Za-z_]+)=(.+))?$")


def _param_value(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise MapParseError(f"cannot parse parameter value {text!r}") from None


def resolve_map(spec):
    """Registry name, name:param=value, or a map expression; a constant
    map raises MapParseError."""
    m = _FAMILY.match(spec.strip())
    if m and m.group(1) in registry.list_examples():
        rec = registry.get(m.group(1))
        param = rec.default_param
        if m.group(2):
            if m.group(2) != rec.param_name:
                raise MapParseError(
                    f"{rec.name} takes parameter {rec.param_name!r}, "
                    f"not {m.group(2)!r}")
            param = _param_value(m.group(3))
        try:
            R = rec.build(param)
        except (ValueError, RatdynError) as exc:
            raise MapParseError(str(exc)) from exc
    else:
        R = parse_map_expression(spec)
    if R.degree < 1:
        raise MapParseError("a constant map has no dynamics: need degree >= 1")
    return R, spec.strip()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % float(x)


def _fmt_complex(z):
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "" if z.imag < 0.0 else "+"   # a negative part brings its "-"
    return f"{_fmt(z.real)}{sign}{_fmt(z.imag)}i"


def _fmt_point(p):
    return "inf" if p.is_infinity else _fmt_complex(p.z)


def _parse_point(text):
    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return SpherePoint.infinity()
    try:
        return SpherePoint.finite(complex(text.replace("i", "j")))
    except ValueError:
        raise MapParseError(f"cannot parse point {text!r}") from None


def _parse_window(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise MapParseError("window must be re_min,re_max,im_min,im_max")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise MapParseError(f"bad window {text!r}") from None


# the settings `_setting` resolves: the only keys a config file may set
_CONFIG_KEYS = frozenset({"seed", "count", "depth", "window", "res", "samples",
                          "max_iter", "levels", "probes"})


def _load_config(path):
    cfg = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MapParseError(f"config line without '=': {raw.strip()!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise MapParseError(f"unknown config key: {key!r}")
            cfg[key] = val.strip()
    return cfg


def _setting(args, cfg, dest, cast, default, minimum=None):
    """Flag, else config value, else default; below minimum is a usage error."""
    v = getattr(args, dest, None)
    if v is None and dest in cfg:
        try:
            v = cast(cfg[dest])
        except ValueError:
            raise MapParseError(
                f"bad config value for {dest}: {cfg[dest]!r}") from None
    if v is None:
        v = default
    if minimum is not None and v < minimum:
        raise MapParseError(
            f"--{dest.replace('_', '-')} must be >= {minimum}, got {v}")
    return v


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_info(args, cfg):
    R, label = resolve_map(args.map)
    seed = _setting(args, cfg, "seed", int, 0)
    count = _setting(args, cfg, "count", int, 8000, minimum=1)
    print(f"map: {label}")
    print(f"degree: {R.degree}")
    cds = critical_points(R)
    for cd in cds:
        print(f"critical: {_fmt_point(cd.point)} index {cd.index} "
              f"image {_fmt_point(cd.value)}")
    total = sum(cd.index - 1 for cd in cds)
    want = 2 * R.degree - 2
    ok = total == want
    print(f"riemann_hurwitz: {total} expected {want} -> "
          f"{'ok' if ok else 'FAIL'}")
    if R.degree >= 2:
        cloud = sample_inverse_iteration(R, _render_start(R), count=count,
                                         seed=seed, walkers=_STAT_WALKERS)
        hits = critical_points_in_julia(R, cloud, tol=1e-3)
        names = ", ".join(_fmt_point(c.point) for c in hits) or "none"
        print(f"criticals_near_julia: {len(hits)} ({names})")
    return 0 if ok else 1


def _cmd_preimage(args, cfg):
    R, _ = resolve_map(args.map)
    y = _parse_point(args.point)
    depth = _setting(args, cfg, "depth", int, 1, minimum=1)
    fib = preimages(R, y) if depth == 1 else preimage_tree(R, y, depth)
    lines = ["re,im,is_infinity,index"]
    for p, e in fib.entries:
        if p.is_infinity:
            lines.append("0,0,1,%d" % e)
        else:
            lines.append("%s,%s,0,%d" % (_fmt(p.z.real), _fmt(p.z.imag), e))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    total = sum(e for _, e in fib.entries)
    print(f"# index sum {total} = degree^depth {R.degree ** depth}"
          if total == R.degree ** depth else
          f"# index sum {total} != degree^depth {R.degree ** depth}")
    return 0 if total == R.degree ** depth else 1


def _cmd_julia(args, cfg):
    R, _ = resolve_map(args.map)
    if not args.out and not args.render:
        raise MapParseError("julia needs --out and/or --render")
    seed = _setting(args, cfg, "seed", int, 0)
    depth = _setting(args, cfg, "depth", int, 60, minimum=0)
    count = _setting(args, cfg, "count", int, 2000, minimum=1)
    start = _parse_point(args.start) if args.start else _render_start(R)
    if args.render:   # every setting is checked before anything is written
        window = _check_window(_parse_window(
            _setting(args, cfg, "window", str, "-2,2,-2,2")))
        res = _setting(args, cfg, "res", int, 512, minimum=1)
        samples = _setting(args, cfg, "samples", int, 40000, minimum=1)
        max_iter = _setting(args, cfg, "max_iter", int, 96, minimum=1)
    if args.out:
        cloud = sample_inverse_iteration(R, start, depth=depth, count=count,
                                         seed=seed)
        write_cloud_csv(args.out, cloud)
        print(f"wrote {count} points to {args.out}")
    if args.render:
        img = render(R, window, res, mode=args.mode, max_iter=max_iter,
                     samples=samples, depth=depth, seed=seed)
        write_pgm(args.render, img)
        print(f"wrote {img.shape[1]}x{img.shape[0]} image to {args.render}")
    return 0


def _cmd_measure(args, cfg):
    R, _ = resolve_map(args.map)
    seed = _setting(args, cfg, "seed", int, 0)
    depth = _setting(args, cfg, "depth", int, 8, minimum=0)
    y = _parse_point(args.point) if args.point else SpherePoint.finite(1.0)
    if args.method == "exact":
        cloud = lyubich_exact(R, y, depth)
    else:
        samples = _setting(args, cfg, "samples", int, 4096, minimum=1)
        cloud = lyubich_mc(R, y, depth=max(depth, 60), samples=samples,
                           seed=seed)
    write_weighted_csv(args.out, cloud)
    print(f"wrote {len(cloud)} atoms to {args.out}")
    return 0


def _cmd_kms(args, cfg):
    R, _ = resolve_map(args.map)
    a = parse_test_function(args.test)
    seed = _setting(args, cfg, "seed", int, 0)
    levels = _setting(args, cfg, "levels", int, 10, minimum=0)
    nprobe = _setting(args, cfg, "probes", int, 8, minimum=1)
    cloud = sample_inverse_iteration(R, _render_start(R),
                                     count=max(256, nprobe), seed=seed)
    step = max(1, len(cloud) // nprobe)
    run = kms_iterate(R, a, levels, cloud[::step][:nprobe], julia_sample=cloud)
    if args.out:
        write_trace_csv(args.out, run.traces)
    print(f"beta: {_fmt(run.beta)}")
    print(f"final_sup_variation: {_fmt(run.traces[-1].sup_variation)}")
    print(f"final_constant: {_fmt_complex(run.final_constant)}")
    print(f"lyubich_value: {_fmt(run.lyubich_value.real)}")
    print(f"lyubich_gap: {_fmt(run.lyubich_gap)}")
    print(f"hypothesis: {run.hypothesis}")
    if args.out:
        print(f"wrote trace to {args.out}")
    return 0


def _cmd_witness(args, cfg):
    R, _ = resolve_map(args.map)
    a = parse_test_function(args.a)
    seed = _setting(args, cfg, "seed", int, 0)
    count = _setting(args, cfg, "count", int, 4000, minimum=1)
    nprobe = _setting(args, cfg, "probes", int, 64, minimum=1)
    cloud = sample_inverse_iteration(R, _render_start(R), count=count,
                                     seed=seed)
    step = max(1, count // nprobe)
    u, report = normalized_witness(R, a, args.eps, cloud,
                                   probe_ys=cloud[::step])
    if args.out:
        write_witness_json(args.out, report)
    print(f"n: {report['n']}")
    print(f"norm_a: {_fmt(report['norm_a'])}  eps: {_fmt(report['eps'])}")
    print(f"ff: [{_fmt(report['ff_min'])}, {_fmt(report['ff_max'])}]")
    print(f"faf: [{_fmt(report['faf_min'])}, {_fmt(report['faf_max'])}]")
    print(f"uau: [{_fmt(report['uau_min'])}, {_fmt(report['uau_max'])}]")
    print(f"norm_two_u: {_fmt(report['norm_two_u'])} "
          f"bound {_fmt(report['norm_two_bound'])}")
    print(f"passed: {report['passed']}")
    if args.out:
        print(f"wrote report to {args.out}")
    return 0 if report["passed"] else 1


def _cmd_verify(args, cfg):
    seed = _setting(args, cfg, "seed", int, 0)
    if args.all:
        rep = registry.verify_all(seed=seed)
        reports = rep["reports"]
    elif args.example:
        param = _param_value(args.param) if args.param else None
        rep = registry.verify(args.example, param=param, seed=seed)
        reports = [rep]
    else:
        raise MapParseError("verify needs an example name or --all")
    for r in reports:
        for c in r["checks"]:
            extras = {k: v for k, v in c.items()
                      if k not in ("check", "passed")}
            keys = ", ".join(f"{k}={extras[k]!r}" for k in sorted(extras)
                             if not isinstance(extras[k], (list, dict)))
            status = "ok" if c["passed"] else "FAIL"
            print(f"{r['name']}: {c['check']}: {status}"
                  + (f" ({keys})" if keys else ""))
        print(f"{r['name']}: {'passed' if r['passed'] else 'FAILED'}")
    if args.out:
        _write_json(args.out, rep)
        print(f"wrote report to {args.out}")
    return 0 if rep["passed"] else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="ratdyn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="key = value file mirroring flags")
    sub = top.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default 0)")

    p = sub.add_parser("info", help="degree, critical data, basic checks")
    p.add_argument("map")
    p.add_argument("--count", type=int, default=None,
                   help="Julia sample size for the critical check")
    seeded(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("preimage", help="fiber table with branch indices")
    p.add_argument("map")
    p.add_argument("--point", required=True, help="base point (or inf)")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(fn=_cmd_preimage)

    p = sub.add_parser("julia", help="sample or render the Julia set")
    p.add_argument("map")
    p.add_argument("--out", help="cloud CSV path")
    p.add_argument("--render", help="PGM image path")
    p.add_argument("--window", default=None,
                   help="re_min,re_max,im_min,im_max (default -2,2,-2,2)")
    p.add_argument("--res", type=int, default=None, help="pixels per side")
    p.add_argument("--mode", choices=("auto", "escape", "density"),
                   default="auto")
    p.add_argument("--count", type=int, default=None, help="cloud size")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--start", help="backward-walk start point")
    seeded(p)
    p.set_defaults(fn=_cmd_julia)

    p = sub.add_parser("measure", help="balanced-measure cloud to CSV")
    p.add_argument("map")
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--point", help="tree base point (default 1)")
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("kms", help="transfer-iteration trace at beta=log d")
    p.add_argument("map")
    p.add_argument("--test", default="z", help="monomial expression")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--out", help="trace CSV path")
    seeded(p)
    p.set_defaults(fn=_cmd_kms)

    p = sub.add_parser("witness", help="simplicity witness report")
    p.add_argument("map")
    p.add_argument("--a", required=True, help="positive test function")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--count", type=int, default=None, help="cloud size")
    p.add_argument("--out", help="report JSON path")
    seeded(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("verify", help="run registry example checks")
    p.add_argument("example", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--param", help="family parameter value")
    p.add_argument("--out", help="report JSON path")
    seeded(p)
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
    except (OSError, MapParseError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, cfg)
    except (MapParseError, UnknownExample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WitnessFailed as exc:
        print(f"witness failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RatdynError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
