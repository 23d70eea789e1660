"""Command-line front end.

Subcommands: `run` (experiment from a config file), `sweep` (override the sweep
variable/grid), `validate` (fast self-checks), `convergence` (per-iteration
solver traces). Exit codes: 0 success, 1 configuration error, 2 experiment or
validation failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .channel import (
    InstantaneousChannels,
    build_scsi,
    exp_correlation,
    psd_sqrt,
    sample_batch,
)
from .config import (
    ConfigError,
    ExperimentSpec,
    SweepSpec,
    default_single_user_scenario,
    levels_for_bits,
    load_config,
)
from .harness import ExperimentError, emit_csv, run_experiment
from .multi_user import (
    WATER_LEVEL_TOL,
    SscaParams,
    instantaneous_rates,
    rate_jacobian,
    ssca_run,
    wmmse_solve,
    wmmse_solve_batch,
)
from .rng import substream
from .single_user import (
    PddParams,
    QuadraticForm,
    brute_force_solve,
    build_quadratic_form,
    mrt_rate,
    pdd_solve,
)

log = logging.getLogger("ttsbeam")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ttsbeam", description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (default: $TTSBEAM_SEED if set)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="output CSV path")

    p_sweep = sub.add_parser("sweep", help="run with an overridden sweep grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--var", required=True, help="sweep variable name")
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")

    p_val = sub.add_parser("validate", help="run the built-in invariant/oracle checks")
    p_val.add_argument("--config", default=None, help="optional config to validate")

    p_conv = sub.add_parser("convergence", help="emit a per-iteration solver trace")
    p_conv.add_argument("--scheme", required=True, choices=["tts-pdd", "tts-ssca"])
    p_conv.add_argument("--config", default=None)
    p_conv.add_argument("--out", required=True)
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("TTSBEAM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"TTSBEAM_SEED must be an integer, got '{raw}'") from None


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def _cmd_run(args) -> int:
    """`run`, and `sweep` with the config's sweep replaced by --var/--grid."""
    spec = _apply_overrides(load_config(args.config), args)
    if args.command == "sweep":
        spec.sweep = SweepSpec(variable=args.var, grid=args.grid.split(","))
    records = run_experiment(spec)
    emit_csv(records, args.out)
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


def _cmd_convergence(args) -> int:
    if args.config is not None:
        spec = _apply_overrides(load_config(args.config), args)
        scenario, seed = spec.scenario, spec.seed
        ssca_params = spec.ssca
        weights = spec.weights
    else:
        scenario = default_single_user_scenario()
        seed = args.seed if args.seed is not None else 0
        ssca_params = SscaParams()
        weights = np.ones(scenario.num_users)
    scsi = build_scsi(scenario, substream(seed, "scsi", 0))
    if args.scheme == "tts-pdd":
        if scenario.num_users != 1:
            print("tts-pdd trace requires a single-user scenario", file=sys.stderr)
            return 1
        result = pdd_solve(build_quadratic_form(scsi), PddParams(levels=levels_for_bits(1)),
                           record_trace=True)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("outer_iter,inner_iter,al_value,objective,violation_inf_norm\n")
            for row in result.trace:
                fh.write(f"{row[0]},{row[1]},{row[2]:.6g},{row[3]:.6g},{row[4]:.6g}\n")
    else:
        result = ssca_run(scsi, scenario.transmit_power, scenario.noise_powers,
                          weights, ssca_params, levels=levels_for_bits(1),
                          rng=substream(seed, "ssca", 0, 1))
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,rho_t,gamma_t,sum_r_hat,v_change_inf_norm\n")
            for row in result.trace:
                fh.write(f"{row[0]},{row[1]:.6g},{row[2]:.6g},{row[3]:.6g},{row[4]:.6g}\n")
    log.info("wrote trace to %s", args.out)
    return 0


# ---------------------------------------------------------------------------
# validate: quick self-checks of the main invariants
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
    return ok


def _validate(args) -> int:
    scenario = default_single_user_scenario()
    seed = args.seed if args.seed is not None else 0
    if args.config is not None:
        spec = _apply_overrides(load_config(args.config), args)
        scenario, seed = spec.scenario, spec.seed
    ok = True

    corr = exp_correlation(16, 0.6)
    s = psd_sqrt(corr)
    ok &= _check("correlation PSD square root",
                 np.linalg.norm(s @ s - corr) <= 1e-8 * np.linalg.norm(corr))

    rng = substream(seed, "validate", "scsi")
    su = scenario if scenario.num_users == 1 else default_single_user_scenario()
    scsi = build_scsi(su, rng)
    qf = build_quadratic_form(scsi)
    v = np.exp(1j * substream(seed, "validate", "v").uniform(0, 2 * np.pi, su.num_elements))
    g, h_r, h_d = sample_batch(scsi, 20000, substream(seed, "validate", "mc"))
    h_eff = np.einsum("sn,snm->sm", h_r[:, 0, :] * v[None, :], g.conj()) + h_d[:, 0, :]
    mc = float(np.mean(np.sum(np.abs(h_eff) ** 2, axis=1)))
    analytic = qf.expected_gain(v)
    ok &= _check("average channel power matches quadratic form",
                 abs(mc - analytic) <= 0.03 * analytic,
                 f"mc={mc:.4e} analytic={analytic:.4e}")

    hit = 0
    for i in range(5):
        rng_i = substream(seed, "validate", "pdd", i)
        x = (rng_i.standard_normal((6, 6)) + 1j * rng_i.standard_normal((6, 6))) / np.sqrt(2)
        phi = x @ x.conj().T / 6
        b = (rng_i.standard_normal(6) + 1j * rng_i.standard_normal(6)) / np.sqrt(2)
        qf_i = QuadraticForm(phi=phi, b=b, const_term=0.0)
        res = pdd_solve(qf_i, PddParams(levels=2))
        ref = brute_force_solve(qf_i, levels=2)
        hit += res.objective >= 0.95 * ref.objective
    ok &= _check("penalty solver near brute-force optimum", hit >= 4, f"{hit}/5")

    rng_w = substream(seed, "validate", "wmmse")
    h = (rng_w.standard_normal((3, 4)) + 1j * rng_w.standard_normal((3, 4))) / np.sqrt(2)
    state = wmmse_solve(h, np.ones(3), 1.0, np.ones(3) * 0.1)
    mono = all(b >= a - 1e-9 for a, b in zip(state.trace, state.trace[1:]))
    ok &= _check("precoder iteration monotone", mono)
    h1 = h[:1]
    state1 = wmmse_solve(h1, np.ones(1), 1.0, np.array([0.1]))
    ok &= _check("single-user precoder matches matched filter",
                 abs(state1.objective - mrt_rate(h1[0], 1.0, 0.1)) <= 1e-6)

    rng_s = substream(seed, "validate", "wmmse-stack")
    # channel scales over two decades, so the items stop at different iterations
    hs = (rng_s.standard_normal((4, 3, 4)) + 1j * rng_s.standard_normal((4, 3, 4))) / np.sqrt(2)
    hs *= np.logspace(-1.0, 1.0, 4)[:, None, None]
    problem = (np.ones(3), 1.0, np.full(3, 0.1))
    stacked = wmmse_solve_batch(hs, *problem)
    alone = [wmmse_solve(hi, *problem) for hi in hs]
    same = all(np.array_equal(a.w, b.w) and a.iterations == b.iterations
               for a, b in zip(stacked, alone))
    within = all(np.sum(np.abs(a.w) ** 2) <= 1.0 + WATER_LEVEL_TOL + 1e-14 for a in stacked)
    ok &= _check("stacked precoders match one-by-one", same and within,
                 f"iterations {[a.iterations for a in stacked]}")

    rng_j = substream(seed, "validate", "jac")
    n, m, k = 5, 3, 2
    ch = InstantaneousChannels(
        g=(rng_j.standard_normal((n, m)) + 1j * rng_j.standard_normal((n, m))) / np.sqrt(2),
        h_r=(rng_j.standard_normal((k, n)) + 1j * rng_j.standard_normal((k, n))) / np.sqrt(2),
        h_d=(rng_j.standard_normal((k, m)) + 1j * rng_j.standard_normal((k, m))) / np.sqrt(2),
    )
    w = (rng_j.standard_normal((k, m)) + 1j * rng_j.standard_normal((k, m))) / np.sqrt(2)
    vv = np.exp(1j * rng_j.uniform(0, 2 * np.pi, n))
    noise = np.full(k, 0.3)
    _, c = instantaneous_rates(vv, w, ch, noise)
    jac = rate_jacobian(ch, w, c, noise)
    eps = 1e-6
    worst = 0.0
    for idx in range(n):
        for re_im, ref in ((1.0, 2 * jac[idx].real), (1j, 2 * jac[idx].imag)):
            dv = np.zeros(n, dtype=complex)
            dv[idx] = re_im * eps
            rp, _ = instantaneous_rates(vv + dv, w, ch, noise)
            rm, _ = instantaneous_rates(vv - dv, w, ch, noise)
            fd = (rp - rm) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-6))))
    ok &= _check("rate gradient matches finite differences", worst < 1e-5, f"max rel err {worst:.2e}")

    scsi_a = build_scsi(su, substream(seed, "validate", "det"))
    scsi_b = build_scsi(su, substream(seed, "validate", "det"))
    same = (np.array_equal(scsi_a.zbar_r, scsi_b.zbar_r)
            and np.array_equal(scsi_a.fbar, scsi_b.fbar))
    ok &= _check("statistical CSI reproducible from seed", same)
    return 0 if ok else 2


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse may still exit directly (e.g. --help); map its code
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1

    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        if args.seed is None:
            args.seed = _env_seed()
        if args.command in ("run", "sweep"):
            return _cmd_run(args)
        if args.command == "validate":
            return _validate(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ExperimentError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
