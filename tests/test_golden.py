"""Golden-output guard: sha256 of small CLI outputs for fixed argv and seeds.

A change meant to alter no behaviour (a refactor or a speedup) must leave
every digest here unchanged.  A change that alters output on purpose
updates the digests and says why.  The digests were recorded on x86-64
Linux with NumPy 2.4; another libm or NumPy build may round differently.

The mmm cases cover the class merge in ``simulate._rebuild``: an exact phase
of off-grid classes handed to logdet mode (in ``mmm_exact_handover`` replica
0's last exact step sorts its 419,280 new classes in place, and its merge's
stable sort places them among 6,230 survivors; replica 1 hands 8,356 classes
over, whose four logdet merges take ``_merge_into_head``), an early switch
(``--exact-event-cap 1000``) that merges spectrum bins every generation,
and a run in logdet mode from the first generation.  ``mmm_logdet_paretolog``
and ``mmm_logdet_bpd3`` run in logdet mode with a paretolog tail and with
three bins per decade; their fittest mutant climbs from log-fitness about
50 to about 1e11, so the spectrum bins reach ten more decades of the
log-fitness grid as the run goes.  ``fmm_logdet_jobs2`` repeats
``fmm_logdet`` on two worker processes and must match it byte for byte.
``fmm_restart_seed_wrap`` starts replica 0 at attempt seed 2**64 - 2 and
restarts 54 times, so its attempt seeds wrap through 2**64 - 1 to 0, 1, ...:
they cover seeds of two 32-bit words, of one word, and the seed 0.
``fmm_restart_blocks`` restarts 161 times, so its attempts' pools and first
substream states, hashed in screen rounds of 1, 2, 4, ... up to 64
attempts, fill a 64-attempt round and end inside the next; at t-max 20 the
attempts that outlive their first 16 generations wait for a next chunk of 4.
``nu_large_alpha`` reaches horizons T of about 54000, where the
search in ``growth.period_T`` starts far from T = 1.  ``fmm_exact_big_means``
raises the exact-mode cap to 1e18, so exact generations draw the mutant
count and some survivor counts from Poisson means above 1e9, where
``simulate._poisson`` falls back to its normal approximation.
``recurse_short`` stops below the period T = 14 of alpha = 5, so its
``nu_hat`` column is NaN throughout.  ``recurse_alpha100`` and
``recurse_half_alpha20`` run for many periods (T = 272 and T = 54) with the
dominant index up to about T behind t, so each step of the solver compares
up to about T past indices and drops the rest; at alpha 100 the cycle
has not locked in to 1e-9 by t = 3000, which
``test_alpha100_period_not_detected`` pins.  ``recurse_half_alpha12_locked``
(T = 33, lock-in at t1 = 864, windows of 33 to 35 columns after it, just
past the 32-column scalar cutoff) and ``recurse_half_alpha20_locked``
(t1 = 2532, windows of 55 and 56 columns) run well past lock-in, where the
solver predicts blocks of steps from one period back and confirms them in
NumPy; their digests were recorded with the solver that scans every
step.  ``test_recurse_file_seed_digest``
reads a seed file whose values span 1e-304 to 1e304 and outgrow the
recursion for 305 steps, so the seed term wins most steps of a long
transient.  ``recurse_csv_blocks`` writes 2051 = 2 * 1024 + 3 rows, so a
writer that works in blocks of 1024 rows ends on a partial block that
holds the NaN tail of ``nu_hat``.  ``STDOUT_CASES`` pin what commands write to stdout when no
``--out`` is given: CSV, JSON, the simulate CSV followed by its summary
JSON, and the ``verify-lemmas`` table.  ``freq_header_only`` writes a
J,R table without data rows (generation 1 has no earlier class) followed
by its P table; ``nu_sweep_200`` writes columns of Python scalars.
"""
import hashlib
import math

import numpy as np
import pytest

from branchlab import simulate
from branchlab.cli import main

CASES = {
    "fmm_exact_restarts": (
        ["simulate", "--model", "fmm", "--tail", "pareto:alpha=3", "--beta", "0.9",
         "--log-f", "0.1823215567939546", "--t-max", "20", "--replicas", "3",
         "--seed", "5"],
        ["0d8850b017efad767b0f23dbae0df8edc3784fc9e6b70f08c52578fb9fe78cd1",
         "79367db1abd8966e2d67543ab96e9d960045bb0e68cad059bbdbf6e26040c713"],
    ),
    "fmm_restart_seed_wrap": (
        ["simulate", "--model", "fmm", "--tail", "pareto:alpha=3", "--beta", "0.9",
         "--log-f", "0.1823215567939546", "--t-max", "40", "--replicas", "1",
         "--seed", "2152535657050944081"],
        ["101e6afc2eb8e74d8085961639ecef0523bf8620fa4c41b59c848bc9d7d731a4",
         "e7f45dc6e4630231b013ffbd721c153fceedddebb484c8c72ccb1e74c9fc4d1f"],
    ),
    "fmm_restart_blocks": (
        ["simulate", "--model", "fmm", "--tail", "pareto:alpha=3", "--beta", "0.9",
         "--log-f", "0.1823215567939546", "--t-max", "20", "--replicas", "1",
         "--seed", "1424"],
        ["0938f12077747a43a9125afe770003a1a56ac2e0b626015d1676ba21d71f5a1c",
         "a060809fbb2438d256e9aa796f06ec05eba6e12a8315db00204841dc50f01bd8"],
    ),
    "fmm_logdet": (
        ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
         "--t-max", "30", "--replicas", "2", "--seed", "9"],
        ["2218b658fe04b85755244c07e9972fb5d38bbfa080a4ef4aa780ad577b101eaa",
         "cee8ba3829816b3e0d02663c387e038e51a850546ae2ab5437c671303b56a72b"],
    ),
    "mmm_exact_handover": (
        ["simulate", "--model", "mmm", "--log-f", "0.6931471805599453",
         "--t-max", "12", "--replicas", "2", "--seed", "3"],
        ["2934c16c8f828353f481f77ff94da3f8d5157cb3502745f20ce0a0624c048600",
         "7ec7dcc62adad7fdfc309d628fb6749099877d5898633d09b9d4789a0a6cf4fa"],
    ),
    "mmm_logdet_early_switch": (
        ["simulate", "--model", "mmm", "--tail", "pareto:alpha=2", "--beta", "0.3",
         "--log-f", "1", "--t-max", "30", "--replicas", "2", "--seed", "4",
         "--exact-event-cap", "1000"],
        ["7e929891007bbf19cce894f1d80d95458ba5fe6558c855cd74c9b9ba7c6642c5",
         "3e92b8356ef4ec92f74d1de4e3ff30802df59518a750bb3bb979af4a3493a5b8"],
    ),
    "mmm_logdet": (
        ["simulate", "--model", "mmm", "--log-f", "50", "--t-max", "60",
         "--replicas", "2", "--seed", "1"],
        ["b059216049ee89a09cb21bbae747b57487ad510e8634a7f5bc274d411485795c",
         "f250707b1d47af5e10e7a3d3ba58545c1ccc50dd4ee6cb52090996c26ce4d177"],
    ),
    "mmm_logdet_paretolog": (
        ["simulate", "--model", "mmm", "--tail", "paretolog:alpha=1,gamma=0.5",
         "--log-f", "50", "--t-max", "60", "--replicas", "2", "--seed", "2"],
        ["44baa825815da18123b11e507bf950f265d33d6604a8487298e48fd528a7210c",
         "3087a3928cfe2f50ac50aae9abc049de9a43ecd68e1d2554d4948a796f7455ad"],
    ),
    "mmm_logdet_bpd3": (
        ["simulate", "--model", "mmm", "--log-f", "50", "--t-max", "60",
         "--replicas", "2", "--seed", "6", "--mmm-bins-per-decade", "3"],
        ["ee6c0620c410bdec2447b97b5725b66fe7956fbf4830146489e304906f86ce61",
         "a36e262a8bb0203c95d3527a740e6e0f45527196aca35f55d1f748aad493d77e"],
    ),
    "fmm_exact_big_means": (
        ["simulate", "--model", "fmm", "--log-f", "2", "--t-max", "18",
         "--replicas", "2", "--seed", "7", "--exact-event-cap", "1e18"],
        ["2f6ff5c6672e3ed2c2a916def986c731f6cc850dfba771d45e6af5b64eb491ed",
         "a575fecab60a60db94aa6ebb91289648fe6e39e9104c9ed06a83101e46bcd11a"],
    ),
    "fmm_logdet_jobs2": (
        ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
         "--t-max", "30", "--replicas", "2", "--seed", "9", "--jobs", "2"],
        ["2218b658fe04b85755244c07e9972fb5d38bbfa080a4ef4aa780ad577b101eaa",
         "cee8ba3829816b3e0d02663c387e038e51a850546ae2ab5437c671303b56a72b"],
    ),
    "nu": (
        ["nu", "--alpha-min", "0.05", "--alpha-max", "10", "--points", "20",
         "--log-grid"],
        ["5f3553cc3b1006c6800387efdaaefaa665d9ce37c08e964d5599b8c36c3766cb"],
    ),
    "nu_large_alpha": (
        ["nu", "--alpha-min", "0.05", "--alpha-max", "2e4", "--points", "40",
         "--log-grid"],
        ["f8e7f6461e2fda1b50128b54da6e4245bb4da100ffd0d8b4a69462c8b778c04c"],
    ),
    "freq_recursion": (
        ["freq", "--from", "recursion", "--alpha", "1", "--t", "20,40,41"],
        ["2206f372b05c9d9e088f275860f77c35f44234aa849f39875e1717fc7162d87b",
         "6c1cba296667fb80061a76f2671deb52b211328a9d918859f3ba215d75f0d223"],
    ),
    "freq_run": (
        ["freq", "--from", "run", "--t", "5,10", "--seed", "5"],
        ["6ca0fedb4f31097c92e76d7304d52808218f12edfba4c4d0ffd29c0836ebc761",
         "4ad7c5d0749e95489593bebedf5e40ab201a9d69183fafcabc5067d325a0b883"],
    ),
    "collapse": (
        ["collapse", "--alpha", "1", "--t-pairs", "300:303,300:301"],
        ["3a6b8b17a5e94a130b536ea02ecc18d3746dfb564825d34bdf854cc9696ba4c6"],
    ),
    "recurse_period": (
        ["recurse", "--alpha", "1", "--t-max", "200", "--detect-period"],
        ["724138fe9342fe32dd615e1d218bfd1c9027445a94c4f828cb81f0bfaaea16d3",
         "fab03abea8528b0f859b92d22dca17242ad5e60b667d93758d586fe6dc32c99e"],
    ),
    "recurse_short": (
        ["recurse", "--alpha", "5", "--t-max", "10"],
        ["a425d188950c44df1328a3955006a64eeab95be5e74c09242bfb7cd9264d3362"],
    ),
    "recurse_alpha100": (
        ["recurse", "--alpha", "100", "--t-max", "3000"],
        ["b9a351cc9ea74a5b86ba1f5915cb717a17f508f2ffb4867a25297e083eb1a320"],
    ),
    "recurse_csv_blocks": (
        ["recurse", "--alpha", "1", "--t-max", "2051"],
        ["1b7a72cfa5d995861463341d0855102aec66a3bd71c13ca9d52d9ffb6a00d9a3"],
    ),
    "recurse_half_alpha20": (
        ["recurse", "--alpha", "20", "--seed", "half", "--t-max", "2000"],
        ["5367b2278857f3703baeed0648aa4cde0e1a04fbac63ea1d53653f2939303f5d"],
    ),
    "recurse_half_alpha12_locked": (
        ["recurse", "--alpha", "12", "--seed", "half", "--t-max", "3000"],
        ["cc5326addd9885779a0d43cc732013b46430273011b5d31b24fcb163e640f4c3"],
    ),
    "recurse_half_alpha20_locked": (
        ["recurse", "--alpha", "20", "--seed", "half", "--t-max", "6000"],
        ["0b148681250d6211001bd17e382776c85bb6ca3d02bc98e4ea123dc108233d4c"],
    ),
    "seed_ctex": (
        ["seed-ctex", "--alpha", "1", "--phis", "1.3333333333333333,1.5,1.5"],
        ["e36269cba6a6d494ccb738fba10a980acdcbc4d4ee1fd393e852961d2d7e20a0"],
    ),
}

# argv run without --out: (exit code, sha256 of everything written to stdout)
STDOUT_CASES = {
    "nu": (["nu", "--alpha", "1"], 0,
           "164fe001468ebcf7436dab35a8f65a6ae1445c24a1e6e41c5144e1a57aa16614"),
    "nu_sweep_200": (
        ["nu", "--alpha-min", "0.05", "--alpha-max", "2e4", "--points", "200",
         "--log-grid"], 0,
        "ef0572ff51662cd0b3a8fe9ec66f8fa94999913a3ee65f43a5bcaced5176a01e",
    ),
    "freq_header_only": (
        ["freq", "--from", "recursion", "--alpha", "1", "--t", "1"], 0,
        "0815738bc2543421a4f714b8ed12b323705b72f0ff270517f82da216944e33f3",
    ),
    "seed_ctex": (
        ["seed-ctex", "--alpha", "1", "--phis", "1.3333333333333333,1.5,1.5",
         "--t-max", "20"], 0,
        "e36269cba6a6d494ccb738fba10a980acdcbc4d4ee1fd393e852961d2d7e20a0",
    ),
    "simulate_fmm": (
        ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
         "--t-max", "30", "--replicas", "2", "--seed", "9"], 0,
        "ae86ef6672aa353b761ef90e2e0be72ac50b162f012daad1d0e248f5cf5f1443",
    ),
    "verify_lemmas": (
        ["verify-lemmas", "--replicas", "200", "--seed", "1"], 0,
        "25053f92598411b5bf4634695da15fc11442b0a5892432ec91eded8b6fa2c408",
    ),
}

# second output file per subcommand, written beside --out
_SIDE_FILE = {"simulate": ".summary.json", "recurse": ".period.json", "freq": ".p.csv"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digests(tmp_path, name):
    argv, digests = CASES[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    paths = [out]
    if len(digests) > 1:
        paths.append(tmp_path / (name + _SIDE_FILE[argv[0]]))
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == digests
    assert sorted(tmp_path.iterdir()) == sorted(paths)


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_digests(capsys, name):
    argv, code, digest = STDOUT_CASES[name]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_alpha100_period_not_detected(tmp_path, capsys):
    """The cycle test fails at the same t1 and leaves no file behind."""
    argv = ["recurse", "--alpha", "100", "--t-max", "3000", "--detect-period"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: no stationary cycle within horizon 3000 (first candidate t1=2710); "
        "try a horizon of at least T(T+1) = 74256, enough for every alpha checked "
        "(up to 30)\n")
    assert list(tmp_path.iterdir()) == []


def test_recurse_file_seed_digest(tmp_path):
    # every third value drops to 1e-304, where the recursion wins
    ks = [-304 if i % 3 == 2 else -304 + 2 * i for i in range(305)]
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("".join(f"1e{k}\n" for k in ks))
    out = tmp_path / "out"
    argv = ["recurse", "--alpha", "0.3", "--seed", f"file:{seed_file}", "--t-max", "1000"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f906eb67bca3fc2db6e962760e40b034b901dce7f015cce4714a941089169075")


def test_big_means_case_reaches_the_normal_approximation(tmp_path, monkeypatch):
    """``fmm_exact_big_means`` draws above the cap for mutants and survivors."""
    seen = {"mutant": 0.0, "survivor": 0.0}
    step_exact = simulate.step_exact

    def watched(state, cfg, rng):
        if not state.extinct:
            seen["mutant"] = max(seen["mutant"], cfg.beta * math.exp(state.log_fitsum))
            lam = (1.0 - cfg.beta) * state.count * np.exp(state.log_fit)
            seen["survivor"] = max(seen["survivor"], float(lam.max()))
        return step_exact(state, cfg, rng)

    monkeypatch.setattr(simulate, "step_exact", watched)
    argv, _ = CASES["fmm_exact_big_means"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert seen["mutant"] > simulate._NORMAL_APPROX_MEAN
    assert seen["survivor"] > simulate._NORMAL_APPROX_MEAN


@pytest.mark.parametrize("name", ["mmm_logdet_paretolog", "mmm_logdet_bpd3"])
def test_table_cases_grow_the_spectrum_table(tmp_path, monkeypatch, name):
    """Both cases extend the spectrum table well past its first size."""
    sizes = []
    build = simulate._SpectrumTable._build

    def watched(self, n_grid):
        sizes.append(n_grid)
        build(self, n_grid)

    monkeypatch.setattr(simulate._SpectrumTable, "_build", watched)
    argv, _ = CASES[name]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert max(sizes) >= 8 * min(sizes)  # three doublings at least
