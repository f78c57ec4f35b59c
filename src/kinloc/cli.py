"""Command-line front end: estimate / sweep / verify.

Configuration is a flat JSON object of the settings in _SETTINGS, each
declared once with its validator, default and flag; a numeric setting is
validated by the library reader its value reaches (``_read``).  Each
subcommand takes --config and the flags it reads (_COMMANDS), which override
file values.
All numeric output is serialized with 17 significant digits and files are
written via a temp file + rename, so a finished file is always complete and
reruns with the same config and seed are byte-identical.
"""

import argparse
import json
import os
import stat
import sys
import tempfile

import numpy as np

from . import model, montecarlo, oracle, svgplot
from .errors import ConfigError, KinlocError
from .estim import METHODS, WEIGHT_MODES, WeightRule, estimate_all
from .model import MeasurementSet, NoiseSpec, SensorArray, TargetState
from .montecarlo import (DEFAULT_SEED, DEFAULT_TRIALS, Scenario,
                         sweep_acceleration_experiment, sweep_velocity_experiment,
                         timing_report)

VELOCITY_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
ACCELERATION_GRID = (0.01, 0.03, 0.1, 0.3, 1.0)
CSV_HEADER = "sigma,rmse_pos,rmse_vel_ls,rmse_vel_wls,rmse_acc_ls,rmse_acc_wls,failures,t_ls_us,t_wls_us"

# the --weights spelling of each weight rule: its mode with "-" for "_"
_WEIGHT_CHOICES = {mode.replace("_", "-"): mode for mode in WEIGHT_MODES}
_EXPERIMENTS = ("velocity", "acceleration")
_FORMATS = ("text", "json")


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _read(reader, *args):
    """A setting's validator: the library reader its value reaches, called as
    ``reader(value, key, *args)``, whose TypeError or ValueError becomes a
    ConfigError with the same text."""
    def cast(key, value):
        try:
            return reader(value, key, *args)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
    return cast


def _as_choice(choices):
    def cast(key, value):
        if value not in choices:
            raise ConfigError(f"{key} must be one of {sorted(choices)}, got {value!r}")
        return value
    return cast


def _as_str(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _as_bool(key, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


# every setting once: (validator, default or None, argparse settings of its
# flag or None); a config file may set any of them and nothing else, and a
# subcommand takes --config and the flags _COMMANDS lists for it.  Every value
# is validated at load, whatever the subcommand
_SETTINGS = {
    "seed": (_read(model._as_index, 0), DEFAULT_SEED, dict(type=int, metavar="U64")),
    "trials": (_read(model._as_index, 1), DEFAULT_TRIALS, dict(type=int, metavar="K")),
    "grid": (_read(montecarlo._check_grid), None,
             dict(metavar="LIST", help="comma-separated noise levels")),
    "weights": (_as_choice(tuple(_WEIGHT_CHOICES)), "propagated",
                dict(choices=sorted(_WEIGHT_CHOICES))),
    "experiment": (_as_choice(_EXPERIMENTS), "velocity", dict(choices=_EXPERIMENTS)),
    "out": (_as_str, None, dict(metavar="PATH")),
    "svg": (_as_str, None, dict(metavar="PATH")),
    "format": (_as_choice(_FORMATS), "text", dict(choices=_FORMATS)),
    "threads": (_read(model._as_index, 1), 1, dict(type=int, metavar="T")),
    "timing": (_as_bool, False, dict(action="store_const", const=True,
                                     help="report measured per-trial times in the CSV")),
    "sensors": (_read(model._finite, (None, 2)), montecarlo.DEFAULT_SENSOR_POSITIONS, None),
    "position_box": (_read(montecarlo._as_box), montecarlo.DEFAULT_POSITION_BOX, None),
    "velocity_box": (_read(montecarlo._as_box), montecarlo.DEFAULT_VELOCITY_BOX, None),
    "acceleration_box": (_read(montecarlo._as_box), montecarlo.DEFAULT_ACCELERATION_BOX, None),
    "sigma_range": (_read(model._sigma), 1.0, None),
    "sigma_range_rate": (_read(model._sigma), 1.0, None),
    "sigma_drr": (_read(model._sigma), 1.0, None),
    "position": (_read(model.as_vec2), None, None),
    "velocity": (_read(model.as_vec2), None, None),
    "acceleration": (_read(model.as_vec2), None, None),
    "ranges": (_read(model._finite, (None,)), None, None),
    "range_rates": (_read(model._finite, (None,)), None, None),
    "drrs": (_read(model._finite, (None,)), None, None),
}


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then the JSON config file, then non-None CLI overrides."""
    config = {key: default for key, (_, default, _) in _SETTINGS.items()
              if default is not None}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = sorted(set(raw) - set(_SETTINGS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in raw.items():
            config[key] = _SETTINGS[key][0](key, value)
    for key, value in overrides.items():
        if value is not None:
            config[key] = _SETTINGS[key][0](key, value)
    return config


def _file_mode(path: str) -> int:
    """The mode a plain open() would leave the file with: an existing file's own,
    else 0o666 less the umask (mkstemp creates its temp file 0o600)."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)     # the umask can only be read by setting it
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    mode = _file_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kinloc.", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_output_dirs(config, keys) -> None:
    """Raise ConfigError, naming the path as given, when an output's path is empty,
    its directory is missing, the output names a directory, or two outputs name one
    file: checked before the work runs, not at ``_atomic_write``'s temp file."""
    seen = {}
    for key in keys:
        path = config.get(key)
        if path is None:
            continue
        if not path:
            raise ConfigError(f"cannot write --{key}: the path is empty")
        if os.path.isdir(path) or not os.path.basename(path):
            raise ConfigError(f"cannot write --{key} {path}: it names a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"cannot write --{key} {path}: its directory does not exist")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"cannot write --{key} {path}: --{seen[real]} names the same file")
        seen[real] = key


def _weight_rule(config) -> WeightRule:
    return WeightRule(mode=_WEIGHT_CHOICES[config["weights"]])


def _noise(config) -> NoiseSpec:
    return NoiseSpec(config["sigma_range"], config["sigma_range_rate"],
                     config["sigma_drr"])


def _render_estimate_text(result) -> str:
    lines = []
    for name in METHODS:
        est = getattr(result, name)
        (x, y), cond = est._xy, est.gram_condition
        # the position solution also reports its trilateration residual
        residual = (f"residual={_g17(est.residual_norm)} "
                    if hasattr(est, "residual_norm") else "")
        lines.append(f"{name:<13} {_g17(x)} {_g17(y)}  {residual}cond={_g17(cond)}")
    return "\n".join(lines) + "\n"


def _render_estimate_json(result) -> str:
    entries = []
    for name in METHODS:
        x, y = getattr(result, name)._xy
        entries.append(f'  "{name}": [{_g17(x)}, {_g17(y)}]')
    return "{\n" + ",\n".join(entries) + "\n}\n"


def cmd_estimate(config) -> int:
    _check_output_dirs(config, ("out",))
    sensors = SensorArray(config["sensors"])
    has_truth = any(config.get(k) is not None for k in ("position", "velocity", "acceleration"))
    has_meas = any(config.get(k) is not None for k in ("ranges", "range_rates", "drrs"))
    if has_truth == has_meas:
        raise ConfigError("estimate needs either a truth state (position/velocity/"
                          "acceleration) or explicit measurements (ranges/range_rates/"
                          "drrs), not both and not neither")
    if has_truth and config.get("position") is None:
        raise ConfigError("a truth state needs position; velocity and acceleration default to 0")

    if has_truth:
        truth = TargetState(config["position"],
                            config.get("velocity", (0.0, 0.0)),
                            config.get("acceleration", (0.0, 0.0)))
        rng = np.random.default_rng(config["seed"])
        measurements = model.synthesize_measurements(truth, sensors, _noise(config), rng)
    else:
        missing = [k for k in ("ranges", "range_rates", "drrs") if config.get(k) is None]
        if missing:
            raise ConfigError(f"explicit measurements need all three lists, missing: "
                              f"{', '.join(missing)}")
        measurements = MeasurementSet(config["ranges"], config["range_rates"],
                                      config["drrs"], _noise(config))

    result = estimate_all(measurements, sensors, _weight_rule(config))
    if config["format"] == "json":
        text = _render_estimate_json(result)
    else:
        text = _render_estimate_text(result)
    if config.get("out"):
        _atomic_write(config["out"], text)
    else:
        sys.stdout.write(text)
    return 0


def _sweep_csv(sweep, with_timing: bool) -> str:
    lines = [CSV_HEADER]
    for point in sweep.points:
        # wall-clock times are never reproducible; only report them on request
        t_ls = t_wls = 0.0
        if with_timing:
            # each variant's time: the position stage and that variant's stages, in order
            for method, t in zip(METHODS, point.mean_stage_times):
                t_ls += 0.0 if method.endswith("_wls") else t
                t_wls += 0.0 if method.endswith("_ls") else t
        lines.append(",".join([
            _g17(point.sigma),
            *(_g17(getattr(point, "rmse_" + method)) for method in METHODS),
            str(point.failures),
            _g17(t_ls * 1e6),
            _g17(t_wls * 1e6),
        ]))
    return "\n".join(lines) + "\n"


def _base_scenario(config) -> Scenario:
    return Scenario(
        sensors=config["sensors"], position_box=config["position_box"],
        velocity_box=config["velocity_box"], acceleration_box=config["acceleration_box"],
        noise=_noise(config), trials=config["trials"], seed=config["seed"],
        motion_mode="constant_velocity")


def cmd_sweep(config) -> int:
    if config.get("out") is None:
        raise ConfigError("sweep needs an output CSV path (--out)")
    _check_output_dirs(config, ("out", "svg"))
    base = _base_scenario(config)
    rule = _weight_rule(config)
    threads = config["threads"]
    if config["experiment"] == "acceleration":
        grid = config.get("grid") or ACCELERATION_GRID
        sweep = sweep_acceleration_experiment(base, grid, rule, threads=threads)
    else:
        grid = config.get("grid") or VELOCITY_GRID
        sweep = sweep_velocity_experiment(base, grid, rule, threads=threads)

    # the figure first: one it rejects (no finite point) leaves neither file
    figure = svgplot.sweep_figure(sweep) if config.get("svg") else None
    _atomic_write(config["out"], _sweep_csv(sweep, config["timing"]))
    if figure is not None:
        _atomic_write(config["svg"], figure)

    report = timing_report(sweep)
    out = [f"wrote {config['out']}" + (f" and {config['svg']}" if config.get("svg") else "")]
    out.append("mean per-trial runtime (us):")
    for method in METHODS:
        out.append(f"  {method:<13} {report[method] * 1e6:.3f}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_verify(config) -> int:
    report = oracle.verification_suite(instances=config["trials"], seed=config["seed"])
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        sys.stdout.write(f"{check.name:<24} max deviation {check.max_deviation:.3e} "
                         f"(tolerance {check.tolerance:.0e})  {status}\n")
    if report.all_passed:
        sys.stdout.write("all checks passed\n")
        return 0
    sys.stdout.write("oracle disagreement detected\n")
    return 1


# the flags of each subcommand, besides --config
_COMMANDS = {
    "estimate": ("run the estimator pipeline on one measurement set",
                 ("seed", "weights", "out", "format")),
    "sweep": ("Monte Carlo RMSE sweep over a noise grid",
              ("seed", "trials", "grid", "weights", "experiment", "out", "svg", "threads",
               "timing")),
    "verify": ("check analytic derivatives and solver against oracles", ("seed", "trials")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinloc",
        description="Closed-form position/velocity/acceleration estimation from "
                    "range, range-rate, and range-rate-derivative measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="JSON config file")
        for flag in flags:
            cmd.add_argument("--" + flag, **_SETTINGS[flag][2])
    return parser


def _parse_grid_flag(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--grid must be a comma-separated number list: {text!r}") from exc


def main(argv=None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command = overrides.pop("command")
    path = overrides.pop("config")
    try:
        if overrides.get("grid") is not None:
            overrides["grid"] = _parse_grid_flag(overrides["grid"])
        config = load_config(path, overrides)
        if command == "estimate":
            return cmd_estimate(config)
        if command == "sweep":
            return cmd_sweep(config)
        return cmd_verify(config)
    except (KinlocError, ValueError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
