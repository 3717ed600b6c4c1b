"""Smoke test of ``tools/bitdump.py``, the bit-for-bit check of the
benchmark workloads', the CTA engine's, a min-sum run's, a hypergraph
run's, a dense Schur run's and the divergence runs' set-up outputs and
traces (the min-sum and divergence runs also at d = 1, the divergence
runs also with Schur messages at d = 2), and of the
oracle's outputs on each of its paths: a dump at the self-test sizes
holds the expected arrays and matches itself, and ``--compare`` names
each array whose bits changed: by one ulp, or a -0.0 for a +0.0."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpjacobi import objective

ROOT = Path(__file__).resolve().parent.parent
BITDUMP = ROOT / "tools" / "bitdump.py"


def _bitdump(*args):
    return subprocess.run([sys.executable, str(BITDUMP), *map(str, args)],
                          capture_output=True, text=True, check=False)


def test_bitdump_toy_dump_and_compare(tmp_path):
    a = tmp_path / "a.npz"
    run = _bitdump("--out", a, "--toy", "--seeds", "1-2")
    assert run.returncode == 0, run.stderr
    with np.load(a) as f:
        arrays = dict(f)
    trace = ("grad_norm", "dist_to_opt", "phi_gap", "vectors_sent", "x_final", "rounds",
             "monitor_H", "monitor_h")
    oracle = ("x_star", "phi_star")
    rates = ("mu", "mu_r", "L_r", "L_del_r", "kappa", "sigma_r", "tau_max")
    surrogate = ("mu_tilde_r", "L_tilde_r", "L_tilde_del_r", "ell_tilde_r", "kappa_tilde")
    fields = {"path_exact": trace + oracle + rates, "ring_schur": trace + oracle,
              "cta_plin": trace + oracle + rates + surrogate, "minsum_tol": trace + oracle,
              "h_mp_jacobi": trace + oracle, "schur_full": trace + oracle,
              "minsum_d1": trace + oracle}
    diverge = {f"{w}/seed{s}/{run}/{name}" for w in ("diverge", "diverge_d1", "schur_diverge")
               for s in (1, 2)
               for run in ("fast", "slow", "overflow", "large") for name in trace}
    paths = {f"oracle/seed{s}/{path}/{name}" for s in (1, 2)
             for path in ("plain", "weighted", "cholesky", "eigvalsh", "pinv")
             for name in oracle}
    assert set(arrays) == {f"{w}/seed{s}/{name}" for w, names in fields.items()
                           for s in (1, 2) for name in names} | diverge | paths
    assert arrays["oracle/seed1/weighted/x_star"].shape == (8, 2)
    assert arrays["oracle/seed2/pinv/x_star"].sum() == pytest.approx(0.0, abs=1e-9)
    assert arrays["path_exact/seed1/x_final"].shape[1] == 1
    assert arrays["path_exact/seed1/x_star"].shape == arrays["path_exact/seed1/x_final"].shape
    assert arrays["path_exact/seed2/L_r"].shape == (4,)      # the path cluster and three singletons
    assert arrays["path_exact/seed2/tau_max"].shape == ()
    assert arrays["ring_schur/seed2/monitor_H"].shape[1:] == (2, 2)
    assert arrays["cta_plin/seed1/x_final"].shape == (8, 2)
    assert arrays["cta_plin/seed1/mu_tilde_r"].shape == (4,)
    assert len(arrays["cta_plin/seed2/grad_norm"]) == 201
    grad_norm = arrays["minsum_tol/seed1/grad_norm"]       # stopped by tol_grad = 1e-8
    assert grad_norm[-1] <= 1e-8 < grad_norm[-2] and len(grad_norm) == 21
    assert len(arrays["h_mp_jacobi/seed1/grad_norm"]) == 201       # HYPER's 200 rounds
    assert arrays["h_mp_jacobi/seed1/x_final"].shape == (20, 2)
    assert len(arrays["schur_full/seed1/grad_norm"]) == 201       # SCHUR_FULL's 200 rounds
    assert arrays["schur_full/seed2/monitor_H"].shape[1:] == (3, 3)
    assert arrays["diverge/seed1/fast/rounds"] == 7               # stopped by the rule
    assert 20 <= arrays["diverge/seed2/slow/rounds"] <= 40
    assert arrays["diverge/seed1/overflow/rounds"] == 1
    large = arrays["diverge/seed2/large/grad_norm"]               # converged from 1e11
    assert len(large) == arrays["diverge/seed2/large/rounds"] + 1 and large[-1] < 1e-6
    assert arrays["minsum_d1/seed1/x_final"].shape == (8, 1)
    assert arrays["minsum_d1/seed1/grad_norm"][-1] <= 1e-8
    assert arrays["diverge_d1/seed1/overflow/rounds"] == 1
    assert arrays["diverge_d1/seed1/overflow/monitor_H"].shape[1:] == (1, 1)
    assert arrays["schur_diverge/seed1/overflow/rounds"] == 1
    assert np.isnan(arrays["schur_diverge/seed1/overflow/x_final"]).all()
    assert arrays["schur_diverge/seed1/fast/monitor_H"].shape[1:] == (2, 2)

    same = _bitdump("--compare", a, a)
    assert same.returncode == 0 and "0 of 390 arrays differ" in same.stdout

    def saved(name, h0, x_nudge):
        """The dump with monitor_h[0, 0] of ring_schur seed 1 set to h0, and
        x_final of path_exact seed 2 at one entry and its mu one ulp up if
        x_nudge."""
        out = dict(arrays)
        h = out["ring_schur/seed1/monitor_h"].copy()
        h[0, 0] = h0
        x = out["path_exact/seed2/x_final"].copy()
        mu = out["path_exact/seed2/mu"]
        if x_nudge:
            x[3, 0] = np.nextafter(x[3, 0], np.inf)
            mu = np.nextafter(mu, np.inf)
        out["ring_schur/seed1/monitor_h"], out["path_exact/seed2/x_final"] = h, x
        out["path_exact/seed2/mu"] = mu
        np.savez(tmp_path / name, **out)
        return tmp_path / name

    plus, minus = saved("plus.npz", 0.0, False), saved("minus.npz", -0.0, True)
    diff = _bitdump("--compare", plus, minus)
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == ["path_exact/seed2/mu",
                                        "path_exact/seed2/x_final",
                                        "ring_schur/seed1/monitor_h",
                                        "3 of 390 arrays differ"]


def test_oracle_problems_take_their_paths(monkeypatch):
    """Each oracle problem of the dump is settled where its name says: by
    the Gershgorin bound at unit weights, the scaled bound, the eigenvalue
    test, or none of them (the pinv solve). ``cholesky`` keeps the name of
    the certificate that once settled it, so that dumps still compare; the
    eigenvalue test settles it now."""
    spec = importlib.util.spec_from_file_location("bitdump", BITDUMP)
    bitdump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitdump)

    def settled(q):
        H, _ = q.assemble()
        with monkeypatch.context() as unit:
            unit.setattr(objective, "_SCALED_STEPS", 0)
            plain = objective._gershgorin_certified(q)
        vals = np.linalg.eigvalsh(H)
        return (plain, objective._gershgorin_certified(q),
                bool(vals[0] > 1e-12 * max(abs(vals[-1]), 1.0)))

    for seed in (1, 7):
        assert {path: settled(q) for path, q in bitdump.oracle_problems(seed).items()} == {
            "plain": (True, True, True),
            "weighted": (False, True, True),
            "cholesky": (False, False, True),
            "eigvalsh": (False, False, True),
            "pinv": (False, False, False)}
