"""Workload process of the qsearch benchmark; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORK_DIR [--setup-only]

Run from the checkout root. Set-up imports qsearch, generates the inputs
from SEED and does the warm-up, then prints ``READY``. Without
``--setup-only`` it then times passes over the workload's tasks for up to
SECONDS (at least one pass), checks every task's output outside the timed region and prints
``RESULT <json>`` as its last line. With TRACE = 1 the first half of the
time runs untraced passes and the second half traced ones.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from tracing import Tracer, layer_totals  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
DEFAULT_POINTS = 2000  # grid.points when a config leaves it out


class CheckError(Exception):
    """A task's output disagrees with what the program must produce."""


@dataclass
class Task:
    id: str
    mode: str
    doc: dict
    path: str = ""


def read_csv(path: str):
    """(header, numeric rows) of an emitted CSV; '#' lines are skipped."""
    with open(path) as f:
        lines = [line for line in f if not line.startswith("#")]
    header = lines[0].rstrip("\n").split(",")
    return header, lines[1:]


def check_trajectory_csv(path: str, points: int) -> np.ndarray:
    """Row count, 0 <= p_w <= 1 and rho11 + rho22 = 1 (1e-9, as the suite's trace check)."""
    header, lines = read_csv(path)
    if len(lines) != points:
        raise CheckError(f"{path}: {len(lines)} rows, expected {points}")
    data = np.loadtxt(lines, delimiter=",", ndmin=2)
    cols = dict(zip(header, data.T))
    p_w = cols["p_w"]
    if not (np.all(p_w >= 0.0) and np.all(p_w <= 1.0)):
        raise CheckError(f"{path}: p_w outside [0, 1]")
    if "rho11" in cols:
        drift = float(np.max(np.abs(cols["rho11"] + cols["rho22"] - 1.0)))
        if drift > 1e-9:
            raise CheckError(f"{path}: rho11 + rho22 off 1 by {drift:.3g}")
    return p_w


def check_correlation_csv(path: str, doc: dict) -> None:
    """Closed form against the quadrature oracle at t ~ 0, 0.1, 1, 10 (rel 1e-6, criterion 7)."""
    from qsearch.bath import BathSpec, correlation_quadrature

    header, lines = read_csv(path)
    if len(lines) != doc["grid"]["points"]:
        raise CheckError(f"{path}: {len(lines)} rows, expected {doc['grid']['points']}")
    cols = dict(zip(header, np.loadtxt(lines, delimiter=",", ndmin=2).T))
    bath = BathSpec(**doc["bath"])
    for target in (0.0, 0.1, 1.0, 10.0):
        i = int(np.argmin(np.abs(cols["t"] - target)))
        closed = complex(cols["re_f"][i], cols["im_f"][i])
        oracle = correlation_quadrature(float(cols["t"][i]), bath)
        if abs(closed - oracle) > 1e-6 * abs(closed):
            raise CheckError(f"{path}: F({cols['t'][i]:.4g}) = {closed} but quadrature gives {oracle}")


def lowest_pair_residual(doc: dict, eigenvalues) -> float:
    """Largest ||H v - lam v|| / ||H||_F over the two lowest eigenvalues.

    v comes from inverse iteration on H rebuilt from the config, so the
    check does not depend on how the program found its eigenvalues.
    """
    import scipy.linalg
    from qsearch import model

    s = doc["system"]
    n, sigma = s["n"], s["sigma"]
    disorder = model.sample_disorder(n, sigma, "uniform", s["seed"])
    gamma = model.gamma_policy(n, sigma, s["gamma_policy"])
    h = np.asarray(model.build_search_hamiltonian(model.build_complete_graph(n), 0, gamma, disorder).dense())
    scale = float(np.linalg.norm(h, ord="fro"))
    rng = np.random.default_rng(0)
    worst = 0.0
    for lam in eigenvalues[:2]:
        lu = scipy.linalg.lu_factor(h - (lam + 1e-12 * scale) * np.eye(n))
        v = rng.normal(size=n)
        for _ in range(2):
            v = scipy.linalg.lu_solve(lu, v)
            v /= np.linalg.norm(v)
        worst = max(worst, float(np.linalg.norm(h @ v - lam * v)) / scale)
    return worst


class RecipesCli:
    """One fresh ``python -m qsearch.cli <mode> --force`` per task, one at a time."""

    in_process = False

    def __init__(self, seed: int, work: str) -> None:
        self.out = os.path.join(work, "out")
        self.tasks = []
        for path in sorted(glob.glob(os.path.join(ROOT, "recipes", "*.json"))):
            with open(path) as f:
                doc = json.load(f)
            self.tasks.append(Task(os.path.basename(path)[:-5], doc["mode"], doc, path))
        doc = {
            "mode": "correlation",
            "system": {"n": 100000, "sigma": 0.006, "seed": seed, "gamma_policy": "shifted"},
            "bath": {"g": 0.02, "beta": 15.0, "omega_c": 2.0},
            "grid": {"t_max": 100.0, "points": 4000},
            "output": {"stem": "correlation_beta15"},
        }
        path = os.path.join(work, "correlation_beta15.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        self.tasks.append(Task("correlation_beta15", "correlation", doc, path))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )

    def warm_up(self) -> None:
        # fills the file cache; every timed task still starts a cold interpreter
        self.run(self.tasks[0], None)

    def run(self, task: Task, spans_path):
        argv = [task.mode, "--config", task.path, "--out", self.out, "--force"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "qsearch.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path, task.id, *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise CheckError(f"{task.id}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.stdout.split()

    def check(self, task: Task, files) -> None:
        if task.mode == "correlation":
            check_correlation_csv(files[0], task.doc)
        else:
            check_trajectory_csv(files[0], task.doc.get("grid", {}).get("points", DEFAULT_POINTS))


class DenseClosed:
    """experiments.run on dense unitary and spectrum configs (the O(n^3) eigh path)."""

    in_process = True

    def __init__(self, seed: int, work: str) -> None:
        self.out = os.path.join(work, "out")
        self.tasks = [self._task("unitary", n, seed) for n in (1024, 2048, 4096)]
        self.tasks.append(self._task("spectrum", 2048, seed))

    @staticmethod
    def _task(mode: str, n: int, seed: int) -> Task:
        doc = {
            "mode": mode,
            "system": {"n": n, "sigma": 0.02, "seed": seed, "gamma_policy": "shifted"},
            "output": {"stem": f"{mode}_n{n}"},
        }
        return Task(f"{mode}_n{n}", mode, doc)

    def warm_up(self) -> None:
        for mode in ("unitary", "spectrum"):
            self.run(self._task(mode, 256, 0), None)

    def run(self, task: Task, spans_path):
        from qsearch import experiments

        files, _ = experiments.run(experiments.parse_config(task.doc), out_dir=self.out)
        return files

    def check(self, task: Task, files) -> None:
        n = task.doc["system"]["n"]
        if task.mode == "unitary":
            p_w = check_trajectory_csv(files[0], DEFAULT_POINTS)
            if abs(p_w[0] - 1.0 / n) > 1e-12:
                raise CheckError(f"{task.id}: p_w(0) = {p_w[0]!r}, expected 1/n")
            return
        with open(files[0]) as f:
            eigenvalues = json.load(f)["eigenvalues"]
        if len(eigenvalues) != n or np.any(np.diff(eigenvalues) < 0):
            raise CheckError(f"{task.id}: eigenvalues are not {n} ascending values")
        residual = lowest_pair_residual(task.doc, eigenvalues)
        if residual > 1e-10:
            raise CheckError(f"{task.id}: lowest-pair residual {residual:.3g} > 1e-10 ||H||")


class OpenFull:
    """Full-dimension Bloch-Redfield library pipeline on the exact spectrum."""

    in_process = True
    sizes = (16, 24, 32, 40)

    def __init__(self, seed: int, work: str) -> None:
        from qsearch import bath, model

        self.bath = bath.BathSpec(g=0.02, beta=15.0, omega_c=2.0)
        self.times = np.linspace(0.0, 2000.0, 200)
        self.hamiltonians = {}
        self.tasks = [Task(f"redfield_m{m}", "open", {"m": m}) for m in self.sizes]
        for m in (8, *self.sizes):
            disorder = model.sample_disorder(m, 0.1, "uniform", seed)
            gamma = model.gamma_policy(m, 0.1, "shifted")
            self.hamiltonians[m] = model.build_search_hamiltonian(model.build_complete_graph(m), 0, gamma, disorder)

    def warm_up(self) -> None:
        self.run(Task("redfield_m8", "open", {"m": 8}), None)

    def run(self, task: Task, spans_path):
        from qsearch import redfield, spectral

        m = task.doc["m"]
        h = self.hamiltonians[m]
        spectrum = spectral.eigendecompose(h)
        coeffs = spectral.coupling_coefficients(spectrum, retained=m)
        tensor = redfield.assemble_redfield(coeffs, spectrum, self.bath)
        psi = np.asarray(spectrum.eigenvectors).T @ np.full(m, 1.0 / math.sqrt(m))
        traj = redfield.integrate_master(tensor, np.outer(psi, psi).astype(complex), self.times)
        rho_star = redfield.steady_state(tensor)
        series = redfield.solution_population(traj, np.asarray(spectrum.eigenvectors)[h.w, :])
        return tensor, traj.rhos, rho_star, series.values

    def check(self, task: Task, output) -> None:
        tensor, rhos, rho_star, values = output
        if rhos.shape[0] != self.times.size or values.shape != self.times.shape:
            raise CheckError(f"{task.id}: trajectory has {rhos.shape[0]} points, expected {self.times.size}")
        drift = float(np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)))
        herm = float(np.max(np.abs(rhos - np.conj(np.transpose(rhos, (0, 2, 1))))))
        if drift > 1e-9 or herm > 1e-9:
            raise CheckError(f"{task.id}: trace drift {drift:.3g}, Hermiticity defect {herm:.3g} (> 1e-9)")
        gen = tensor.generator()
        residual = float(np.linalg.norm(gen @ rho_star.reshape(-1)) / np.linalg.norm(gen))
        if residual > 1e-10 or abs(np.trace(rho_star) - 1.0) > 1e-9:
            raise CheckError(f"{task.id}: ||L rho*|| / ||L|| = {residual:.3g}, tr rho* = {np.trace(rho_star)}")


class Sweep:
    """experiments.run of an n sweep (secular path) and a beta sweep (m = 2 Redfield)."""

    in_process = True

    def __init__(self, seed: int, work: str) -> None:
        self.out = os.path.join(work, "out")
        rng = random.Random(seed)
        sigma = round(0.005 + 0.002 * rng.random(), 6)
        g = round(0.015 + 0.005 * rng.random(), 6)
        self.tasks = [
            self._task("sweep_n", sigma, 0.005, seed, "n", [1e3, 1e4, 1e5, 1e6, 1e7], 32),
            self._task("sweep_beta", 0.0, g, seed, "beta", [2, 3, 4, 6, 8, 12, 16, 24, 32, 40], 64),
        ]

    @staticmethod
    def _task(stem, sigma, g, seed, parameter, values, seeds) -> Task:
        doc = {
            "mode": "sweep",
            "system": {"n": 10000, "sigma": sigma, "seed": seed, "gamma_policy": "shifted"},
            "bath": {"g": g, "beta": 15.0, "omega_c": 2.0},
            "grid": {"points": 400},
            "sweep": {"parameter": parameter, "values": values, "seeds": seeds, "fit": True},
            "output": {"stem": stem},
        }
        return Task(stem, "sweep", doc)

    def warm_up(self) -> None:
        for task in self.tasks:
            doc = json.loads(json.dumps(task.doc))
            doc["sweep"].update(values=doc["sweep"]["values"][:3], seeds=2)
            self.run(Task(task.id, "sweep", doc), None)

    def run(self, task: Task, spans_path):
        from qsearch import experiments

        files, _ = experiments.run(experiments.parse_config(task.doc), out_dir=self.out, workers=NPROC)
        return files

    def check(self, task: Task, files) -> None:
        sw = task.doc["sweep"]
        _, lines = read_csv(files[0])
        if len(lines) != len(sw["values"]) * sw["seeds"]:
            raise CheckError(f"{task.id}: {len(lines)} rows, expected {len(sw['values']) * sw['seeds']}")
        with open(files[1]) as f:
            fit = json.load(f)["fit"]
        if fit is None or not math.isfinite(fit["exponent"]):
            raise CheckError(f"{task.id}: no finite power-law exponent ({fit})")


WORKLOADS = {"recipes_cli": RecipesCli, "dense_closed": DenseClosed, "open_full": OpenFull, "sweep": Sweep}


def machine_facts(seed: int) -> dict:
    import ctypes

    import scipy

    facts = {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get_threads = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            facts["blas_threads"] = get_threads()
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        facts["commit"] = proc.stdout.strip() or None
    else:
        facts["commit"] = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qsearch", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def run_passes(workload, seconds: float, traced: bool, work: str) -> list:
    """Timed passes; another starts only if it would end within SECONDS."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced and workload.in_process else None
        if tracer:
            tracer.install()
        times, outputs, cli_traces = [], [], []
        pass_start = time.perf_counter()
        for task in workload.tasks:
            spans_path = None
            if traced and not workload.in_process:
                spans_path = os.path.join(work, f"spans_{len(passes)}_{task.id}.json")
                cli_traces.append(spans_path)
            if tracer:
                tracer.task = task.id
            t0 = time.perf_counter()
            try:
                outputs.append(workload.run(task, spans_path))
            except Exception:  # a failed task is counted, the pass goes on
                traceback.print_exc()
                outputs.append(None)
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - pass_start
        if tracer:
            tracer.uninstall()
        failed = outputs.count(None)
        for task, output in zip(workload.tasks, outputs):
            if output is None:
                continue
            try:
                workload.check(task, output)
            except Exception:
                traceback.print_exc()
                failed += 1
        record = {"wall": wall, "tasks": times, "failed": failed}
        if traced:
            record["spans"], record["absent"], record["import_s"] = collect_trace(tracer, cli_traces)
            # in-process open_full returns arrays; every other task returns its files
            record["bytes_written"] = sum(
                os.path.getsize(f) for output in outputs if isinstance(output, list) for f in output
            )
        passes.append(record)
        if time.perf_counter() - start + wall > seconds:
            return passes


def collect_trace(tracer, cli_traces):
    """(span segments, absent names, CLI import seconds) of one traced pass.

    Span ids are unique within a segment: one per process.
    """
    if tracer is not None:
        return [tracer.spans], tracer.absent, 0.0
    segments, absent, import_s = [], [], 0.0
    for path in cli_traces:
        if not os.path.exists(path):
            continue
        with open(path) as f:
            doc = json.load(f)
        os.remove(path)
        import_s += doc["import_s"]
        absent = doc["absent"]
        segments.append(doc["spans"])
    return segments, absent, import_s


def main() -> int:
    name, seed, seconds, trace, work = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]
    setup_only = "--setup-only" in sys.argv[6:]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.perf_counter()
    import qsearch  # noqa: F401

    import_s = time.perf_counter() - start
    workload = WORKLOADS[name](seed, work)
    workload.warm_up()
    print("READY", flush=True)
    if setup_only:
        return 0

    if trace:
        untraced = run_passes(workload, seconds / 2, False, work)
        traced = run_passes(workload, seconds / 2, True, work)
    else:
        untraced, traced = run_passes(workload, seconds, False, work), []
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result = {
        "machine": machine_facts(seed),
        "untraced": [{k: p[k] for k in ("wall", "tasks", "failed")} for p in untraced],
        "traced_wall": [p["wall"] for p in traced],
        "traced_failed": sum(p["failed"] for p in traced),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if traced:
        layers: dict = {}
        for p in traced:
            for segment in p["spans"]:
                layer_totals(segment, layers)
        k = len(traced)
        result["layers"] = {layer: [calls / k, self_s / k] for layer, (calls, self_s) in layers.items()}
        result["absent"] = traced[-1]["absent"]
        result["import_s"] = sum(p["import_s"] for p in traced) / k if not workload.in_process else import_s
        result["bytes_written"] = sum(p["bytes_written"] for p in traced) / k
        with open(os.path.join(work, "spans.json"), "w") as f:
            json.dump([{"pass": i, "segments": p["spans"]} for i, p in enumerate(traced)], f)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
