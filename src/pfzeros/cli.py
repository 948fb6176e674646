"""Command-line front end: reproducible scans, zero searches, verification,
noise studies, correlation reports, and resource counts.

Every output embeds the fully resolved run configuration; re-running from an
embedded config (--rerun-from) reproduces the bytes exactly.  Every task runs
on one thread.  Exit codes: 0 success, 2 config error, 3 tolerance
violation (verify), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import __version__
from .circuits import compile_general, compile_kicked, kick_field_for_ky, resource_counts
from .correlations import PROBE_SIGNS, KickedSetup, corr_cross_row, corr_norm_ratio, corr_same_row
from .errors import CapExceededError, PfzError
from .evaluators import (
    DosEvaluator,
    GeneralCircuitEvaluator,
    KickedFieldPlaneEvaluator,
    KickedProbabilityEvaluator,
    calibrate_kicked_relation,
)
from .model import IsingModel, build_chain, build_cylinder, cylinder_dims, from_edge_list, model_from_json
from .noise import detectability, noisy_scan
from .oracle import brute_force_Z, correlation, density_of_states
from .statevector import run_effective, run_full, run_streamed
from .zeros import (
    ZERO_FAMILY,
    GridSpec,
    discs_disjoint,
    find_minima,
    inclusion_radii,
    map_roots,
    plane_param,
    polynomial_coefficients,
    polynomial_roots,
    roots_of_polynomial,
    scan,
    unit_circle_distance,
)

FORMAT_VERSION = 1

TASKS = ("scan", "zeros", "verify", "noise", "corr", "counts")
PLANES = ("x", "K", "tanhK", "z", "H", "kickH")
BACKENDS = ("oracle", "kicked", "effective", "full", "streamed")

DEFAULT_WINDOWS = {
    "x": (-1.7, 1.7, -1.68, 1.72),
    "K": (-0.62, 0.63, -1.45, 1.47),
    "tanhK": (-2.1, 2.1, -2.08, 2.12),
    "z": (-1.6, 1.6, -1.58, 1.62),
    "H": (-0.8, 0.8, -0.02, 3.16),
    "kickH": (-1.2, 1.2, -1.18, 1.22),
}

RESCALE_VARIABLE = "sinh_2k"  # the unit-circle variable of zeros.unit_circle_distance


@dataclass
class RunConfig:
    model: str
    task: typing.Literal[TASKS]
    backend: typing.Literal[BACKENDS] = "oracle"
    plane: typing.Literal[PLANES] = "K"
    window: tuple[float, float, float, float] | None = None
    res: tuple[int, int] = (100, 100)
    fixed_k: tuple[float, float] = (-0.3, 0.0)
    fixed_h: tuple[float, float] = (0.0, 0.0)
    shots: int = 5000
    seed: int = 1234
    out: str = "pfzeros_out"
    png: bool = False
    sites: str = "0,0;1,1"
    delta: float = 0.01
    cut: str | None = None
    draws: int = 5
    inject_error: bool = False

    def __post_init__(self) -> None:
        # argparse and JSON both accept nan and inf, which would run to NaN outputs
        for name in ("window", "fixed_k", "fixed_h", "delta"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"config field {name!r} must be finite, got {value!r}")
        if self.seed < 0:  # numpy seeds its streams from non-negative ints only
            raise ValueError(f"config field 'seed' must be >= 0, got {self.seed!r}")

    def resolved_window(self) -> tuple[float, float, float, float]:
        if self.window is not None:
            return self.window
        return DEFAULT_WINDOWS[self.plane]

    def grid_spec(self) -> GridSpec:
        w = self.resolved_window()
        return GridSpec(w[0], w[1], w[2], w[3], self.res[0], self.res[1], self.plane)

    def to_dict(self) -> dict:
        """Resolved config as embedded in outputs.

        The destination path is an execution detail, not part of the
        reproducible run definition, and is omitted so reruns stay
        byte-identical.
        """
        d = asdict(self)
        d["window"] = list(self.resolved_window())
        d["res"] = list(self.res)
        d["fixed_k"] = list(self.fixed_k)
        d["fixed_h"] = list(self.fixed_h)
        del d["out"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        hints = typing.get_type_hints(cls)
        try:
            d = {k: _checked_value(k, v, hints[k]) if k in hints else v for k, v in dict(d).items()}
            return cls(**d)
        except TypeError as exc:  # unknown or missing keys, a non-object config
            raise ValueError(f"malformed embedded config: {exc}") from None


def _checked_value(key: str, value, hint):
    """value if it has the config field's type (lists become tuples), else ValueError.

    A float field also takes an int; bool never stands in for a number; a
    Literal field takes only its listed choices.
    """
    args = typing.get_args(hint)
    if type(None) in args:  # optional field
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise ValueError(f"config field {key!r} must be a list of {len(items)} numbers")
        return tuple(_checked_value(key, v, t) for v, t in zip(value, items))
    if typing.get_origin(hint) is typing.Literal:
        if value in typing.get_args(hint):
            return value
        raise ValueError(f"config field {key!r} is {value!r}, not one of {typing.get_args(hint)}")
    allowed = (int, float) if hint is float else (hint,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and hint is not bool):
        raise ValueError(f"config field {key!r} must be {hint.__name__}, got {value!r}")
    return value


def _parse_complex_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) == 1:
        return (float(parts[0]), 0.0)
    if len(parts) == 2:
        return (float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be re0,re1,im0,im1")
    return tuple(parts)  # type: ignore[return-value]


def _parse_res(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("resolution must be NxM")
    return (int(parts[0]), int(parts[1]))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pfzeros",
        description="Complex partition-function zeroes of Ising models via "
        "simulated measurement protocols.",
    )
    p.add_argument("--model", help="cylinder:NxL | chain:N[:periodic] | path to model JSON")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--plane", choices=PLANES, help="scan plane (x/K Fisher, z/H Lee-Yang)")
    p.add_argument("--window", type=_parse_window, help="re0,re1,im0,im1")
    p.add_argument("--res", type=_parse_res, help="grid resolution NxM")
    p.add_argument("--fixed-k", type=_parse_complex_pair,
                   help="fixed coupling for Lee-Yang planes / corr runs (re[,im])")
    p.add_argument("--fixed-h", type=_parse_complex_pair,
                   help="fixed field for Fisher planes (re[,im])")
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path prefix")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: every task runs on one thread")
    p.add_argument("--png", action="store_true", help="also write a heatmap PNG")
    p.add_argument("--sites", help="corr sites 'i,m;k,n'")
    p.add_argument("--delta", type=float, help="corr probe strength")
    p.add_argument("--cut", help="noise task: 'im=<value>' row cut CSV inside the window")
    p.add_argument("--draws", type=int, help="verify: random draws per model")
    p.add_argument("--inject-error", action="store_true",
                   help="verify: force a mismatch (self-test of the failure path)")
    p.add_argument("--rerun-from", default=None,
                   help="re-execute the config embedded in an existing output file")
    p.add_argument("--version", action="version", version=f"pfzeros {__version__}")
    # every option named after a config field takes that field's default
    p.set_defaults(**{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING})
    return p


def parse_model(spec: str, fixed_k: complex, fixed_h: complex) -> IsingModel:
    if spec.startswith("cylinder:"):
        dims = spec.split(":")[1].lower().split("x")
        if len(dims) != 2:
            raise ValueError(f"cylinder model must be cylinder:NxL, got {spec!r}")
        n, l = int(dims[0]), int(dims[1])
        return build_cylinder(n, l, fixed_k, fixed_k, fixed_h)
    if spec.startswith("chain:"):
        parts = spec.split(":")
        return build_chain(int(parts[1]), periodic="periodic" in parts[2:], K=fixed_k, H=fixed_h)
    with open(spec, encoding="utf-8") as fh:
        return model_from_json(fh.read())


def _require_cylinder(model: IsingModel, user: str) -> tuple[int, int]:
    dims = cylinder_dims(model)
    if dims is None:
        raise ValueError(f"{user} needs a cylinder model; these bonds form none")
    return dims


def _rebuild_with(model: IsingModel, coupling: complex, field_value: complex) -> IsingModel:
    bonds = [(b.i, b.j, coupling) for b in model.bonds]
    fields = [] if field_value == 0 else [(i, field_value) for i in range(model.n_spins)]
    return from_edge_list(model.n_spins, bonds, fields)


def _fixed_param(cfg: RunConfig, plane: str) -> complex:
    """The parameter a polynomial plane holds fixed: H on Fisher planes, K on Lee-Yang planes."""
    return complex(*(cfg.fixed_h if ZERO_FAMILY[plane] == "fisher" else cfg.fixed_k))


def _require_no_field(cfg: RunConfig, user: str) -> None:
    # the kicked maps are computed at H = 0 and have no field to take
    if complex(*cfg.fixed_h) != 0:
        raise ValueError(f"{user} takes no longitudinal field; --fixed-h must be 0")


def make_evaluator(cfg: RunConfig, model: IsingModel):
    plane = cfg.plane
    if plane == "kickH":
        dims = _require_cylinder(model, "the kick-field plane")
        if cfg.backend not in ("oracle", "kicked"):
            raise ValueError("the kick-field plane takes the oracle or kicked backend")
        _require_no_field(cfg, "the kick-field plane")
        return KickedFieldPlaneEvaluator(dims[0], dims[1], complex(*cfg.fixed_k))
    if cfg.backend == "kicked":
        if plane != "K":
            raise ValueError("kicked backend needs plane K")
        _require_no_field(cfg, "the kicked backend")
        return KickedProbabilityEvaluator(*_require_cylinder(model, "kicked backend"))
    fixed = _fixed_param(cfg, plane)
    if cfg.backend == "oracle":
        return DosEvaluator(density_of_states(model), fixed, plane)
    # circuit backends compile the general scheme per grid point
    fisher = ZERO_FAMILY[plane] == "fisher"

    def factory(w: complex) -> IsingModel:
        param = plane_param(plane, w)
        return _rebuild_with(model, param, fixed) if fisher else _rebuild_with(model, fixed, param)

    return GeneralCircuitEvaluator(factory, cfg.backend)


def _meta_line(cfg: RunConfig) -> str:
    blob = json.dumps(
        {"format_version": FORMAT_VERSION, "config": cfg.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"# pfzeros config={blob}"


def write_grid_csv(path: str, cfg: RunConfig, spec: GridSpec, values: np.ndarray,
                   extra_columns: dict[str, np.ndarray] | None = None) -> None:
    cols = {"value": values}
    if extra_columns:
        cols.update(extra_columns)

    re = [repr(x) for x in spec.re_points().tolist()]
    arrays = [np.asarray(c, dtype=np.float64) for c in cols.values()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_meta_line(cfg) + "\n")
        fh.write("re,im," + ",".join(cols) + "\n")
        # a grid row at a time: tolist() gives the Python floats whose repr is each cell
        for iy, y in enumerate(spec.im_points().tolist()):
            cells = map(",".join, zip(*(map(repr, a[iy].tolist()) for a in arrays)))
            fh.writelines(f"{x},{y!r},{cell}\n" for x, cell in zip(re, cells))


def write_json(path: str, cfg: RunConfig, payload: dict) -> None:
    doc = {"format_version": FORMAT_VERSION, "config": cfg.to_dict(), **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def maybe_png(path: str, spec: GridSpec, values: np.ndarray, enabled: bool) -> None:
    if not enabled:
        return
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:  # PNG output is never load-bearing
        print("matplotlib not available; skipping PNG", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(6, 5))
    disp = np.where(np.isfinite(values), values, np.nan)
    imshow = ax.imshow(
        disp,
        origin="lower",
        extent=(spec.re_min, spec.re_max, spec.im_min, spec.im_max),
        aspect="auto",
        cmap="viridis",
    )
    fig.colorbar(imshow, ax=ax, label="log value")
    ax.set_xlabel(f"Re({spec.plane_tag})")
    ax.set_ylabel(f"Im({spec.plane_tag})")
    fig.savefig(path, dpi=120)
    plt.close(fig)


def cmd_scan(cfg: RunConfig) -> int:
    model = parse_model(cfg.model, complex(*cfg.fixed_k), complex(*cfg.fixed_h))
    spec = cfg.grid_spec()
    evaluator = make_evaluator(cfg, model)
    grid = scan(evaluator, spec)
    write_grid_csv(cfg.out + ".csv", cfg, spec, grid.values)
    write_json(cfg.out + ".json", cfg, {
        "task": "scan",
        "plane": spec.plane_tag,
        "value_kind": "ln L" if cfg.backend != "oracle" or spec.plane_tag == "kickH"
        else "ln |Z / cosh^B K|^2" if spec.plane_tag == "tanhK"
        else "ln |Z|^2 (prefactor-stripped in x/z planes)",
        "finite_cells": int(np.isfinite(grid.values).sum()),
    })
    maybe_png(cfg.out + ".png", spec, grid.values, cfg.png)
    return 0


def cmd_zeros(cfg: RunConfig) -> int:
    spec = cfg.grid_spec()
    plane = spec.plane_tag
    if plane == "kickH":
        raise ValueError("zeros task does not support the kick-field plane; scan it instead")
    model = parse_model(cfg.model, complex(*cfg.fixed_k), complex(*cfg.fixed_h))
    # the evaluator checks backend and plane before any density of states is built
    evaluator = make_evaluator(cfg, model)
    which = ZERO_FAMILY[plane]
    coeffs = (evaluator.coeffs if cfg.backend == "oracle" else
              polynomial_coefficients(density_of_states(model), which, _fixed_param(cfg, plane)))
    roots = roots_of_polynomial(coeffs)
    radii = inclusion_radii(coeffs, roots)
    in_window = map_roots(roots, spec, plane)
    grid = scan(evaluator, spec)
    write_grid_csv(cfg.out + ".csv", cfg, spec, grid.values)
    minima = find_minima(grid)

    # Chebyshev distance in cells between every in-window root and every minimum
    dre, dim = spec.cell_size()
    w = np.array(in_window, dtype=np.complex128)[:, None]
    m = np.array([c.location for c in minima], dtype=np.complex128)[None, :]
    cells = np.maximum(np.abs(w.real - m.real) / dre, np.abs(w.imag - m.imag) / dim)
    has_pair = cells.size > 0
    matches = [
        {
            "root": root,
            "minimum_cell_distance": float(cells[i].min()) if has_pair else math.inf,
            "minimum": minima[int(np.argmin(cells[i]))].location if has_pair else None,
        }
        for i, root in enumerate(in_window)
    ]
    refined = []  # each grid minimum with its nearest in-window root
    if has_pair:
        refined = [
            {"location": in_window[int(np.argmin(col))], "method": "polynomial",
             "iterations": 0, "cell_distance": float(col.min())}
            for col in cells.T
        ]

    payload = {
        "task": "zeros",
        "plane": plane,
        "zero_family": which,
        "n_minima": len(minima),
        "minima": [{"location": c.location, "value": c.value} for c in minima],
        "refined": refined,
        "polynomial_roots": [complex(r) for r in roots],
        "inclusion_radius": radii,
        "discs_disjoint": discs_disjoint(roots, radii),
        "roots_in_window": [complex(r) for r in in_window],
        "matches": matches,
        "origin_root_multiplicity": int(np.sum(roots == 0)),
    }
    if which == "fisher":
        payload["rescale_variable"] = RESCALE_VARIABLE
        payload["mean_unit_circle_distance"] = float(
            np.mean(unit_circle_distance(roots))
        )
    write_json(cfg.out + ".json", cfg, payload)
    maybe_png(cfg.out + ".png", spec, grid.values, cfg.png)
    return 0


def _verify_models() -> list[tuple[str, IsingModel]]:
    plaq = from_edge_list(4, [(0, 1, 0j), (2, 3, 0j), (0, 2, 0j), (1, 3, 0j)])
    return [
        ("2-spin", from_edge_list(2, [(0, 1, 0j)])),
        ("open-4-chain", build_chain(4, K=0j)),
        ("2x2-plaquette", plaq),
        ("3x2-cylinder", build_cylinder(3, 2, 0j, 0j)),
    ]


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.draws < 1:
        raise ValueError("--draws must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = {"general": 0.0, "streamed": 0.0, "effective": 0.0, "kicked": 0.0}
    for name, skeleton in _verify_models():
        for _ in range(cfg.draws):
            k = complex(rng.normal(0, 0.4), rng.normal(0, 0.4))
            h = complex(rng.normal(0, 0.3), rng.normal(0, 0.3))
            model = _rebuild_with(skeleton, k, h)
            z = brute_force_Z(model)
            circ = compile_general(model)
            full = run_full(circ)
            streamed = run_streamed(circ)
            eff = run_effective(model)
            z2 = abs(z) ** 2
            general_err = abs(math.exp(2 * circ.log_prefactor) * full.probability - z2) / z2
            if cfg.inject_error:
                general_err += 1e-6
            streamed_err = abs(full.amplitude - streamed.amplitude)
            eff_err = abs(eff.amplitude * 2**model.n_spins - z) / abs(z)
            worst["general"] = max(worst["general"], general_err)
            worst["streamed"] = max(worst["streamed"], streamed_err)
            worst["effective"] = max(worst["effective"], eff_err)
            rows.append((name, k, h, general_err, streamed_err, eff_err))

    cal = calibrate_kicked_relation(seed=cfg.seed)
    worst["kicked"] = cal.max_rel_error

    tolerances = {"general": 1e-10, "streamed": 1e-12, "effective": 1e-12, "kicked": 1e-8}
    print(f"{'model':<14} {'K':<22} {'H':<22} {'general':>10} {'streamed':>10} {'effective':>10}")
    for name, k, h, ge, se, ee in rows:
        print(f"{name:<14} {k:<22.4f} {h:<22.4f} {ge:>10.2e} {se:>10.2e} {ee:>10.2e}")
    print()
    print(cal.summary())
    print()
    ok = True
    for key, tol in tolerances.items():
        status = "PASS" if worst[key] <= tol else "FAIL"
        ok &= worst[key] <= tol
        print(f"verify {key:<10} worst {worst[key]:.3e}  tolerance {tol:.0e}  {status}")
    write_json(cfg.out + ".json", cfg, {
        "task": "verify",
        "worst_errors": worst,
        "tolerances": tolerances,
        "kicked_calibration": {
            "tanh_sign": cal.tanh_sign,
            "two_power_formula": cal.two_power_formula,
            "two_power_matches_nominal": cal.two_power_matches_nominal,
            "tanh_sign_matches_nominal": cal.tanh_sign_matches_nominal,
            "max_rel_error": cal.max_rel_error,
        },
        "passed": ok,
    })
    return 0 if ok else 3


def cmd_noise(cfg: RunConfig) -> int:
    if cfg.backend not in ("oracle", "kicked"):
        raise ValueError("noise task takes the oracle or kicked backend")
    _require_no_field(cfg, "noise task")
    if cfg.shots < 1:
        raise ValueError("--shots must be >= 1")
    if cfg.cut:
        key, _, val = cfg.cut.partition("=")
        if key != "im":
            raise ValueError("cut must be 'im=<value>'")
        cut_im = float(val)
        if not math.isfinite(cut_im):
            raise ValueError(f"cut im={cut_im!r} is not finite")
    model = parse_model(cfg.model, complex(*cfg.fixed_k), complex(*cfg.fixed_h))
    evaluator = KickedProbabilityEvaluator(*_require_cylinder(model, "noise task"))
    spec = cfg.grid_spec()
    if spec.plane_tag != "K":
        raise ValueError("noise task scans the complex K plane")
    if cfg.cut and not spec.im_min <= cut_im <= spec.im_max:
        raise ValueError(f"cut im={cut_im!r} lies outside the window's im range "
                         f"[{spec.im_min!r}, {spec.im_max!r}]")
    # the exact zeros come first: a model past the exact-count range fails before the scan
    dos = density_of_states(model)
    roots = polynomial_roots(dos, "fisher", complex(*cfg.fixed_h))
    zeros_in_window = map_roots(roots, spec, "K")
    grid = scan(evaluator, spec)
    noisy = noisy_scan(grid, cfg.shots, cfg.seed)
    report = detectability(noisy, zeros_in_window)

    write_grid_csv(cfg.out + "_true.csv", cfg, spec, grid.values)
    write_grid_csv(cfg.out + "_noisy.csv", cfg, spec, np.log(
        np.where(noisy.estimates > 0, noisy.estimates, np.nan)
    ), extra_columns={"estimate": noisy.estimates})
    if cfg.cut:
        iy = int(np.argmin(np.abs(spec.im_points() - cut_im)))
        with open(cfg.out + "_cut.csv", "w", encoding="utf-8") as fh:
            fh.write(_meta_line(cfg) + "\n")
            fh.write("re,true_L,estimate\n")
            re = spec.re_points()
            for ix in range(spec.n_re):
                true_l = math.exp(grid.values[iy, ix]) if np.isfinite(grid.values[iy, ix]) else 0.0
                fh.write(f"{float(re[ix])!r},{float(true_l)!r},{float(noisy.estimates[iy, ix])!r}\n")
    write_json(cfg.out + "_report.json", cfg, {
        "task": "noise",
        "n_shots": cfg.shots,
        "seed": cfg.seed,
        "zeros_in_window": zeros_in_window,
        "detections": [
            {"zero": d.zero, "cell": list(d.cell), "nearest_minimum":
             list(d.nearest_minimum) if d.nearest_minimum else None,
             "distance_cells": d.distance_cells}
            for d in report.detections
        ],
        "fraction_within_radius": report.fraction_within(),
        "radius_cells": report.radius_cells,
    })
    maybe_png(cfg.out + ".png", spec, np.log(np.where(noisy.estimates > 0, noisy.estimates, np.nan)),
              cfg.png)
    return 0


def cmd_corr(cfg: RunConfig) -> int:
    model = parse_model(cfg.model, complex(*cfg.fixed_k), complex(*cfg.fixed_h))
    dims = _require_cylinder(model, "corr task")
    try:
        (i, m), (k, n) = [tuple(int(v) for v in s.split(",")) for s in cfg.sites.split(";")]
    except ValueError as exc:
        raise ValueError("sites must be 'i,m;k,n'") from exc
    setup = KickedSetup(dims[0], dims[1], complex(*cfg.fixed_k), complex(*cfg.fixed_k),
                        complex(*cfg.fixed_h))
    if m == n:
        est = corr_same_row(setup, i, k, m, delta=cfg.delta, backend=cfg.backend)
    else:
        est = corr_cross_row(setup, (i, m), (k, n), delta=cfg.delta, backend=cfg.backend)
    base = setup.base_model()
    sa, sb = setup.site(i, m), setup.site(k, n)
    oracle_value = correlation(base, sa, sb) if base.n_spins <= 20 else None
    payload = {
        "task": "corr",
        "sites": [[i, m], [k, n]],
        "method": est.method,
        "delta": est.delta,
        "backend": est.backend,
        "raw": est.raw,
        "extrapolated": est.extrapolated,
        "value": est.value,
        "probe_signs": PROBE_SIGNS,
    }
    try:  # the norm ratio goes through the effective backend's enumeration
        payload["norm_ratio"] = corr_norm_ratio(base, sa, sb)
    except CapExceededError:
        pass
    if oracle_value is not None:
        payload["oracle"] = oracle_value
        payload["abs_error_vs_oracle"] = abs(est.value - oracle_value)
    write_json(cfg.out + ".json", cfg, payload)
    print(f"corr sites ({i},{m})x({k},{n}) value {est.value:.8f}"
          + (f"  oracle {oracle_value:.8f}" if oracle_value is not None else ""))
    return 0


def cmd_counts(cfg: RunConfig) -> int:
    table = []
    print(f"{'N':>3} {'L':>3} {'general qubits':>15} {'kicked qubits':>14} {'gates':>6}")
    for n in (3, 4, 5):
        for l in (1, 2, 3):
            general = resource_counts(compile_general(build_cylinder(n, l, -0.2, -0.2)))
            kicked = resource_counts(compile_kicked(n, l, -0.2, kick_field_for_ky(-0.2) if l > 1 else 0.1))
            row = {
                "n_circ": n, "l_len": l,
                "general": asdict(general) | {"n_qubits": general.n_qubits},
                "kicked": asdict(kicked) | {"n_qubits": kicked.n_qubits},
                "formula_general_qubits": 3 * n * l - n,
                "formula_kicked_qubits": 2 * n * l,
                "formula_gates": 6 * n * l - 3 * n,
            }
            table.append(row)
            print(f"{n:>3} {l:>3} {general.n_qubits:>15} {kicked.n_qubits:>14} "
                  f"{general.n_gates:>6}")
    own = None
    if cfg.model:
        model = parse_model(cfg.model, complex(*cfg.fixed_k), complex(*cfg.fixed_h))
        own = resource_counts(compile_general(model))
        print(f"model {cfg.model}: general scheme {own.n_qubits} qubits, {own.n_gates} gates")
    write_json(cfg.out + ".json", cfg, {
        "task": "counts",
        "table": table,
        "model_counts": asdict(own) if own is not None else None,
    })
    return 0


def _load_embedded_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first.startswith("# pfzeros config="):
            doc = json.loads(first.split("config=", 1)[1])
        else:
            fh.seek(0)
            doc = json.load(fh)
    if not isinstance(doc, dict) or "config" not in doc:
        raise ValueError(f"{path} has no embedded pfzeros config")
    return RunConfig.from_dict(doc["config"])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.rerun_from:
            cfg = _load_embedded_config(args.rerun_from)
            cfg.out = args.out
        else:
            if not args.task:
                parser.error("--task is required (or --rerun-from)")
            if not args.model and args.task not in ("verify", "counts"):
                parser.error(f"--task {args.task} requires --model")
            values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
            cfg = RunConfig(**values | {"model": args.model or ""})
        handler = {
            "scan": cmd_scan,
            "zeros": cmd_zeros,
            "verify": cmd_verify,
            "noise": cmd_noise,
            "corr": cmd_corr,
            "counts": cmd_counts,
        }[cfg.task]
        return handler(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PfzError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
