"""The four workloads: timed operations, answer checks, traced profiles.

Every workload is one caller in a sequential closed loop: the next
operation starts when the previous one has returned.  Each workload has
one round function, `round(inputs, outcome, tracer=None)`, that runs a
fixed set of operations once, checks every answer, and returns
(answers, samples) with one (seconds, units of work) sample per timed
operation.  `measure` repeats the round until the time is up;
`profile` runs it untraced, traced and untraced again.
"""

import contextlib
import functools
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import known
import reference
import trace
from inputs import LARGE_COPIES, THIRTEEN_COPIES

cli = importlib.import_module("stringalg.cli")
automaton = importlib.import_module("stringalg.automaton")
decomp = importlib.import_module("stringalg.decomp")
doze = importlib.import_module("stringalg.doze")
errors = importlib.import_module("stringalg.errors")
rep = importlib.import_module("stringalg.rep")
textio = importlib.import_module("stringalg.textio")

COVER_LEN = 8
# Acceptance criterion 5 gives the oracle 2M nodes per instance; that can
# cost half a minute on one NotLaura instance (one of seed 106 added
# 35 s to a run).  No DOZE-free instance of seeds 1, 2, 3, 11 and 20260809
# (about 7000) needs 20k nodes, so that is the budget here.
ORACLE_BUDGET = 20_000
# The known defect hits 0 to 5 of the 2500 corpus instances of a seed; a
# change that makes it hit more than 1 % is a new fault, not that defect.
KNOWN_DEFECT_SHARE = 0.01
CLI_TIMEOUT_S = 60


class Outcome:
    """Operations of a run, the failed ones, and wrong answers.

    The timed loop repeats a fixed round of operations, so `attempted`
    and `failed` count distinct operations, each weighted by its units of
    work, not repetitions: on one seed both are the same on every run,
    whatever the host's speed.  An operation fails when it raises or an
    answer of it is wrong, on any repetition.  Every failure is also a
    wrong answer, which makes the run incorrect, except the known
    `decompose` defect on corpus_survey (`known.is_known_defect`), which
    only counts as failed.  The first answer of each operation is kept,
    and a later run of the same operation must give the same answer."""

    def __init__(self):
        self.weights = {}
        self.failed = {}
        self.wrong = []
        self.answers = {}

    def record(self, op_id, answer, problems=(), defect=None, weight=1):
        """One run of an operation; weight counts the strings of a scan."""
        self.weights[op_id] = weight
        problems = list(problems)
        if self.answers.setdefault(op_id, answer) != answer:
            problems.append("answer differs from an earlier run of the same operation")
        if defect is None and not problems:
            return
        why = "; ".join(problems) or defect
        self.failed.setdefault(op_id, why)
        if problems:
            self.wrong.append(f"{op_id}: {why}")

    def check(self, what, problems):
        """A check outside the timed operations; only correctness."""
        self.wrong += [f"{what}: {p}" for p in problems]

    @property
    def attempted(self):
        return sum(self.weights.values())

    @property
    def failed_count(self):
        return sum(self.weights[op_id] for op_id in self.failed)


def timed(outcome, op_id, call, check, tracer=None, weight=1, known_defect=False):
    """Run call() as one timed operation; check(raw) -> (answer, problems)
    runs after the clock stops.  An exception is a wrong answer, except
    the known defect where `known_defect` allows it (on the corpus only).
    Returns (answer, (seconds, weight))."""
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        raw = call()
    except Exception as e:
        elapsed = time.perf_counter() - start
        why = traceback.format_exception_only(type(e), e)[-1].strip()
        answer = ("raised", why)
        if known_defect and known.is_known_defect(e):
            outcome.record(op_id, answer, defect=why, weight=weight)
        else:
            outcome.record(op_id, answer, [f"raised {why}"], weight=weight)
        return answer, (elapsed, weight)
    elapsed = time.perf_counter() - start
    answer, problems = check(raw)
    outcome.record(op_id, answer, problems, weight=weight)
    return answer, (elapsed, weight)


# ---------------------------------------------------------------- cli_fixtures


def _on_alarm(signum, frame):
    raise TimeoutError("a CLI process did not finish")


class Spawner:
    """The spawn.py helper process, which starts each CLI process."""

    def __init__(self, workdir):
        self.out = os.path.join(workdir, "stdout")
        self.err = os.path.join(workdir, "stderr")
        self.peak_kib = 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=CLI_TIMEOUT_S)
        self.proc.stdout.close()

    def run(self, argv):
        """One fresh `python -m stringalg.cli` process.

        Returns (exit code, stdout, wall seconds)."""
        cmd = [sys.executable, "-m", "stringalg.cli", *argv]
        self.proc.stdin.write(json.dumps({"argv": cmd, "stdout": self.out, "stderr": self.err}) + "\n")
        self.proc.stdin.flush()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CLI_TIMEOUT_S)
        try:
            reply = self.proc.stdout.readline()
        except TimeoutError:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        code, wall, rss = json.loads(reply)
        self.peak_kib = max(self.peak_kib, rss)
        with open(self.out, encoding="utf-8") as fh:
            return code, fh.read(), wall


def main_in_process(argv):
    """main(argv) in this process with stdout captured: (exit code,
    stdout, seconds).  An exception gives exit code 1, as a process would."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            code = 1
    return code, out.getvalue(), time.perf_counter() - start


def cli_round(commands, outcome, tracer=None, run=main_in_process):
    """Every command once, through `run`: fresh processes when measuring,
    in-process main() when profiling.  The answer is (exit code, stdout),
    so stdout must be byte-identical across repetitions."""
    answers, samples = {}, []
    for command in commands:
        if tracer is not None:
            tracer.op = command["id"]
        code, stdout, seconds = run(command["argv"])
        samples.append((seconds, 1))
        answers[command["id"]] = (code, stdout)
        outcome.record(command["id"], (code, stdout), known.check_cli(command, code, stdout))
    return answers, samples


def _probe(argv):
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    done.check_returncode()
    return time.perf_counter() - start, done


def _networkx_import_s():
    """Cumulative import time of the top-level networkx package, from
    `-X importtime`; 0.0 when the CLI no longer imports it."""
    _, done = _probe(["-X", "importtime", "-c", "import stringalg.cli"])
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "networkx":
            return int(fields[1]) / 1e6
    return 0.0


def cli_start_probes(repeats=5):
    """Interpreter start, package import and networkx import, each the
    median of several fresh processes."""
    code = "import time; t = time.perf_counter(); import stringalg.cli; print(time.perf_counter() - t)"
    return {
        "cli.interpreter_s": statistics.median(_probe(["-c", "pass"])[0] for _ in range(repeats)),
        "cli.import_s": statistics.median(
            float(_probe(["-c", code])[1].stdout) for _ in range(repeats)
        ),
        "cli.import.networkx_s": statistics.median(_networkx_import_s() for _ in range(3)),
    }


# ------------------------------------------------------------- scaled_thirteen


def analyze(text):
    """parse -> classify -> decompose -> check_structure -> support cover."""
    _, p = textio.parse(text)
    report = doze.classify(p)
    dec = decomp.decompose(p)
    structure = decomp.check_structure(p, dec)
    cover = decomp.support_cover_check(p, COVER_LEN, dec)
    return report.verdict, dec, structure, cover


def scaled_round(inputs, outcome, tracer=None, copies=THIRTEEN_COPIES):
    """One analysis pass on `copies` renamed copies of thirteen."""
    text, back = inputs[copies]
    mapped = lambda part: frozenset(back[v] for v in part.objects)

    def check(raw):
        verdict, dec, structure, cover = raw
        answer = (
            verdict,
            frozenset(mapped(part) for part in dec.a_parts),
            frozenset(mapped(part) for part in dec.b_parts),
            mapped(dec.middle),
            tuple(sorted(structure.as_dict().items())),
            cover,
        )
        return answer, known.check_scaled(answer, copies)

    op_id = f"thirteen_x{copies}"
    answer, sample = timed(outcome, op_id, lambda: analyze(text), check, tracer)
    return {op_id: answer}, [sample]


# -------------------------------------------------------------- corpus_survey


def survey(text):
    """parse -> classify, then decompose + check_structure when the
    verdict is StrictLauraOrTilted."""
    _, p = textio.parse(text)
    verdict = doze.classify(p).verdict
    all_pass = None
    if verdict == known.STRICT:
        all_pass = decomp.check_structure(p, decomp.decompose(p)).all_pass
    return verdict, all_pass


def _survey_check(answer):
    return answer, ["check_structure does not pass"] if answer[1] is False else []


def corpus_round(inputs, outcome, tracer=None):
    """Every corpus instance once; the answer is (verdict, all_pass)."""
    answers, samples = {}, []
    for op_id, text in inputs:
        call = functools.partial(survey, text)
        answers[op_id], sample = timed(outcome, op_id, call, _survey_check, tracer, known_defect=True)
        samples.append(sample)
    return answers, samples


def _string_ok(ends, gens, letters):
    """Composable, reduced, and no zero generator inside a maximal
    same-direction run: the definition of a string, checked naively."""
    at = None
    for i, (arrow, inv) in enumerate(letters):
        src, tgt = ends[arrow][::-1] if inv else ends[arrow]
        if at is not None and src != at:
            return False
        if i and letters[i - 1] == (arrow, not inv):
            return False
        at = tgt
    runs, i = [], 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j][1] == letters[i][1]:
            j += 1
        arrows = tuple(a for a, _ in letters[i:j])
        runs.append(arrows[::-1] if letters[i][1] else arrows)
        i = j
    return not any(
        run[k : k + len(g)] == g for run in runs for g in gens for k in range(len(run) - len(g) + 1)
    )


def witness_problems(p, w):
    """Independent check that a NotLaura witness pumps: for n = 1, 2 the
    walk rho1 . w1 . band^n . w3 . rho2 starts and ends with its zero
    generators and its interior is a string, and the band closes up and
    stays a string when repeated past the longest generator."""
    ends = {a.name: (a.source, a.target) for a in p.quiver.arrows}
    gens = set(p.zero_paths)
    letters = lambda walk: [(l.arrow, l.inverse) for l in walk.letters]
    band = letters(w.band.walk)
    problems = []
    if w.rho1 not in gens or w.rho2 not in gens:
        problems.append("witness ends are not zero generators")
    closes = bool(band) and _string_ok(ends, gens, band) and (
        ends[band[-1][0]][0 if band[-1][1] else 1] == w.band.walk.base
    )
    if not closes or not _string_ok(ends, gens, band * (max(map(len, gens)) + 2)):
        problems.append("witness band is not a band")
    for n in (1, 2):
        walk = (
            [(a, False) for a in w.rho1]
            + letters(w.w1)
            + band * n
            + letters(w.w3)
            + [(a, False) for a in w.rho2]
        )
        if not _string_ok(ends, (), walk) or not _string_ok(ends, gens, walk[1:-1]):
            problems.append(f"pumped walk at power {n} is not a double-zero")
    return problems


def oracle_check(inputs, outcome):
    """Laura vs NotLaura, outside every timed region.

    Each instance is classified again, and the verdict must equal the one
    its timed operations gave.  Then:
    - laura verdicts: the brute-force oracle finds no witness up to the
      pumping bound, as acceptance criterion 5 does;
    - NotLaura verdicts: `witness_problems` checks the witness, and on the
      string corpus the oracle must also find a witness up to the length
      of the exact witness pumped once (at least min(bound, 8)), as
      criterion 5 does.  On the special biserial J-quotients that oracle
      search takes minutes, so only the witness is checked there.
    Every instance is checked; each oracle search is bounded by
    ORACLE_BUDGET nodes.  Operations that raised are allowed on at most
    KNOWN_DEFECT_SHARE of the instances.  Returns (instances checked, of those the ones
    where the oracle ran out of nodes)."""
    over_budget = 0
    defects = sum(outcome.answers[op_id][0] == "raised" for op_id, _ in inputs)
    if defects > len(inputs) * KNOWN_DEFECT_SHARE:
        outcome.check("known defect", [f"{defects} of {len(inputs)} instances raise, more than it explains"])
    for op_id, text in inputs:
        try:
            report = doze.classify(textio.parse(text)[1])
        except Exception as e:
            outcome.check(f"oracle {op_id}", [f"classify raises {e!r}"])
            continue
        timed_verdict = outcome.answers[op_id][0]
        problems = []
        if timed_verdict not in ("raised", report.verdict):
            problems.append(f"timed verdict {timed_verdict}, classified again {report.verdict}")
        m = report.analyzed
        bound = automaton.pumping_bound(m)
        try:
            if report.verdict != known.NOT_LAURA:
                if doze.find_doze_bruteforce(m, bound, node_budget=ORACLE_BUDGET) is not None:
                    problems.append(f"{report.verdict}, but the oracle finds a witness")
            else:
                problems += witness_problems(m, report.evidence)
                if op_id.startswith("string:"):
                    target = max(len(report.evidence.assembled(1).letters), min(bound, 8))
                    if doze.find_doze_bruteforce(m, target, node_budget=ORACLE_BUDGET) is None:
                        problems.append(f"NotLaura, but the oracle finds no witness up to {target}")
        except errors.SearchBudgetExceeded:
            over_budget += 1
        outcome.check(f"oracle {op_id}", problems)
    return len(inputs), over_budget


# ---------------------------------------------------------------- pumped_scan


def scan_jobs(inputs):
    """(op id, text, min_len, max_len, strings): one job per length of the
    thirteen window, plus skew6 up to length 12."""
    low, high = known.THIRTEEN_WINDOW
    jobs = [
        (f"thirteen:{n}", inputs["thirteen"][0], n, n, known.THIRTEEN_STRINGS_PER_LENGTH)
        for n in range(low, high + 1)
    ]
    jobs.append(("skew6:12", inputs["skew6"][0], 0, 12, known.SKEW6_SCAN12_STRINGS))
    return jobs


def _scan(text, min_len, max_len):
    _, p = textio.parse(text)
    return rep.conjecture_scan(p, max_len, min_len=min_len)


def scan_round(inputs, outcome, tracer=None):
    """Every scan job once; one sample per job, weighted by its strings."""
    answers, samples = {}, []
    for op_id, text, min_len, max_len, count in scan_jobs(inputs):
        want = known.SKEW6_SCAN_COUNT[12] if op_id.startswith("skew6") else 0

        def check(result):
            got = result.count_both_ge2
            answer = (got, tuple(w.key() for w in result.witnesses))
            return answer, [] if got == want else [f"{got} witnesses, expected {want}"]

        call = functools.partial(_scan, text, min_len, max_len)
        answers[op_id], sample = timed(outcome, op_id, call, check, tracer, weight=count)
        samples.append(sample)
    return answers, samples


def pumped_checks(inputs, outcome):
    """Window sizes and the pumped modules of dimension 1, 5, 9."""
    low, high = known.THIRTEEN_WINDOW
    _, p13 = textio.parse(inputs["thirteen"][0])
    _, p6 = textio.parse(inputs["skew6"][0])
    sizes = [len(automaton.strings_of_length(p13, range(n, n + 1))) for n in range(low, high + 1)]
    sizes.append(len(automaton.strings_of_length(p6, range(0, 13))))
    want = [known.THIRTEEN_STRINGS_PER_LENGTH] * (high - low + 1) + [known.SKEW6_SCAN12_STRINGS]
    outcome.check("window sizes", [] if sizes == want else [f"{sizes}, expected {want}"])
    w = doze.find_doze(p6)
    modules = [rep.dozed_module(p6, w, n) for n in range(3)]
    totals = [M.total_dim for M in modules]
    problems = [] if totals == known.DOZED_TOTALS else [f"dozed dimensions {totals}"]
    if not all(rep.pd_at_least_2(p6, M) and rep.id_at_least_2(p6, M) for M in modules):
        problems.append("a pumped module has pd < 2 or id < 2")
    outcome.check("dozed modules", problems)


# ------------------------------------------------------------ measure, profile


ROUNDS = {
    "cli_fixtures": cli_round,
    "scaled_thirteen": scaled_round,
    "corpus_survey": corpus_round,
    "pumped_scan": scan_round,
}


def after_checks(workload, inputs, outcome):
    """The checks that run once, after the timed rounds."""
    if workload == "corpus_survey":
        return oracle_check(inputs, outcome)
    if workload == "pumped_scan":
        pumped_checks(inputs, outcome)
    return None


def measure(workload, inputs, seconds, workdir):
    """End-to-end run: whole rounds until the time is up.  In-process
    workloads also measure the host's speed before the first round and
    after each (`reference.HostSpeed`); cli_fixtures, whose time is mostly
    process start, does not track it and stays in wall-clock time.

    Returns the (seconds, units, scale) samples, where scale is the
    round's host-speed scale (1.0 on cli_fixtures), the reference times,
    peak RSS, the outcome and, on corpus_survey, the oracle counts."""
    outcome = Outcome()
    samples = []
    host = None if workload == "cli_fixtures" else reference.HostSpeed()
    with contextlib.ExitStack() as stack:
        one_round = functools.partial(ROUNDS[workload], inputs)
        if workload == "cli_fixtures":
            spawner = stack.enter_context(Spawner(workdir))
            one_round = functools.partial(one_round, run=spawner.run)
        start = time.perf_counter()
        deadline = start + seconds
        while not samples or time.perf_counter() < deadline:
            done = one_round(outcome)[1]
            scale = host.after_round(time.perf_counter() - start) if host else 1.0
            samples += [(seconds, units, scale) for seconds, units in done]
    if workload == "cli_fixtures":
        peak_kib = spawner.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    oracle = after_checks(workload, inputs, outcome)
    return {
        "samples": samples,
        "reference": host.samples if host else [],
        "peak_mb": peak_kib / 1024,
        "outcome": outcome,
        "oracle": oracle,
    }


def busy(samples):
    return sum(seconds for seconds, _ in samples)


def _traced(one_round, outcome):
    """One round with a fresh tracer installed: (tracer, answers, samples)."""
    tracer = trace.Tracer()
    tracer.install()
    try:
        answers, samples = one_round(outcome, tracer)
    finally:
        tracer.uninstall()
    return tracer, answers, samples


def profile(workload, inputs):
    """The workload's round untraced, traced, and untraced again, so that
    warm-up and drift between rounds do not count as tracing overhead.

    Returns (tracer, extras, outcome, untraced s, traced s); extras holds
    the metrics measured outside the tracer.  The traced answers must
    equal the untraced ones."""
    outcome = Outcome()
    extras = cli_start_probes() if workload == "cli_fixtures" else {}
    one_round = functools.partial(ROUNDS[workload], inputs)
    plain, first = one_round(outcome)
    tracer, traced_answers, traced = _traced(one_round, outcome)
    second = one_round(outcome)[1]
    if traced_answers != plain:
        outcome.check("traced run", ["answers differ from the untraced run"])
    if workload == "cli_fixtures":
        extras["cli.main_s"] = statistics.median(seconds for seconds, _ in first + second)
    elif workload == "scaled_thirteen":
        extras.update(scaling_exponents(inputs, tracer, outcome))
    after_checks(workload, inputs, outcome)
    return tracer, extras, outcome, (busy(first) + busy(second)) / 2, busy(traced)


SCALING_STAGES = (
    "automaton.build",
    "automaton.band_census",
    "doze.classify",
    "decomp.decompose",
    "decomp.check_structure",
)


def scaling_exponents(inputs, small, outcome):
    """log2(self time at LARGE_COPIES copies / at THIRTEEN_COPIES) per
    stage; `small` is the tracer of the round's traced pass."""
    large_round = functools.partial(scaled_round, inputs, copies=LARGE_COPIES)
    large_self = _traced(large_round, outcome)[0].layer_totals()[1]
    small_self = small.layer_totals()[1]
    return {
        f"scaling.{stage}.exp": (
            math.log2(large_self[stage] / small_self[stage]) if small_self[stage] and large_self[stage] else 0.0
        )
        for stage in SCALING_STAGES
    }
