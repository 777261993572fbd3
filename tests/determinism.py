#!/usr/bin/env python3
"""CLI determinism gate: run a command two ways, require identical bytes.

A table row is (name, steps, variant-A args, variant-B args, artifacts).
Each step is an `aetr-sweep` argv in which V marks where the variant's args
go. Each variant runs every step in order, writing into its own $AETR_OUT
directory. The row passes when every step exits 0 and both directories
hold the same non-empty set of files, including every listed artifact,
with identical bytes. A will_fail row is a negative control whose variants
must differ; ctest registers it WILL_FAIL. It runs the same `fig8 --quick`
sweep as the traced and ledger rows, so a crash or a missing artifact fails
those rows instead of passing unnoticed here.

Scripted rows drive the multi-process scenarios a two-variant table cannot
express: SIGKILL then --resume, SIGTERM drains, and an optimizer run that
is interrupted (exit 4) and resumed. Two more pin CLI contracts: bad
`opt` numbers exit 2, and `aetr-serve run --dump-config` round-trips. They
wait for a file the programs write (an atomic snapshot, the gateway's
--port-file), giving up after TIMEOUT_S, instead of sleeping a fixed time.
The golden row pins every `aetr-sweep all` artifact to the sha256 listed
in tests/golden_sweep_all.sha256.

tests/CMakeLists.txt registers one ctest per row under the label
`determinism`; run them with `ctest --preset default -L determinism`, or
one row by hand:

    python3 tests/determinism.py --list
    python3 tests/determinism.py --sweep build/bench/aetr-sweep \\
        --serve build/bench/aetr-serve traced
"""
import argparse
import collections
import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

TIMEOUT_S = 30.0
V = object()  # placeholder in a step for the variant's args

Row = collections.namedtuple("Row", "name steps a b artifacts will_fail",
                             defaults=(False,))
J1, J4 = ["--jobs", "1"], ["--jobs", "4"]
# The ablation studies folded into aetr-sweep, and the main CSV of each.
ABLATIONS = ["adaptive", "buffer", "jitter", "mcu", "min-interspike", "width"]
ABLATION_CSVS = ["aetr_ablation_adaptive.csv", "aetr_ablation_batching.csv",
                 "aetr_ablation_buffer.csv", "aetr_ablation_jitter.csv",
                 "aetr_ablation_mcu.csv", "aetr_ablation_min_interspike.csv",
                 "aetr_ablation_width.csv"]

ROWS = [
    # Chrome traces and sampled metrics do not depend on --jobs.
    Row("traced", [["fig8", "--quick", "--trace", "--metrics", V]], J1, J4,
        ["aetr_fig8.csv", "aetr_fig8_points.csv",
         "aetr_fig8_j000_trace.json", "aetr_fig8_j000_metrics.csv"]),
    # Energy ledgers, the fleet health roll-up, and the HTML report
    # rendered from them.
    Row("ledger", [["fig8", "--quick", "--ledger", "--metrics", V],
                   ["fleet", "--quick", "--ledger", V],
                   ["report"]], J1, J4,
        ["aetr_fig8_j000_ledger.csv", "aetr_fig8_j000_stack.txt",
         "aetr_fleet_health.csv", "aetr_report.html"]),
    Row("faults", [["faults", "--quick", V]], J1, J4,
        ["aetr_faults.csv", "aetr_faults_points.csv"]),
    Row("fig8-full", [["fig8", V]], J1, J4,
        ["aetr_fig8.csv", "aetr_fig8_points.csv"]),
    # The ablation studies' full grids do not depend on --jobs.
    Row("ablations", [[f"ablation-{name}", V] for name in ABLATIONS], J1, J4,
        ABLATION_CSVS),
    Row("seed-differs", [["fig8", "--quick", "--jobs", "4", V]],
        ["--seed", "1"], ["--seed", "2"],
        ["aetr_fig8.csv", "aetr_fig8_points.csv"], will_fail=True),
]

# `sha256sum *` of the `aetr-sweep all --jobs 2` output directory. An
# intentional output change regenerates it and says so in CHANGES.md.
GOLDEN = pathlib.Path(__file__).with_name("golden_sweep_all.sha256")

OPT_ARTIFACTS = ["aetr_opt_trials.csv", "aetr_opt_pareto.csv",
                 "aetr_opt_pareto.svg", "aetr_opt_summary.json",
                 "aetr_opt_checkpoint.csv"]


class Failure(Exception):
    pass


_spawned = []


def run(argv, expect=0, env=None):
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != expect:
        raise Failure(f"{' '.join(map(str, argv))} exited {proc.returncode}"
                      f" (expected {expect}):\n{proc.stderr[-2000:]}")
    return proc.stdout


def spawn(argv):
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    _spawned.append(proc)
    return proc


def finish(proc):
    """Wait for a signalled process; it must drain and exit 0."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(f"pid {proc.pid} still running {TIMEOUT_S:.0f} s "
                      "after the signal")
    if proc.returncode != 0:
        raise Failure(f"{' '.join(map(str, proc.args))} exited "
                      f"{proc.returncode}:\n{out[-2000:]}")
    return out


def wait_for(path, proc):
    """Block until `path` exists while `proc` keeps running."""
    deadline = time.monotonic() + TIMEOUT_S
    while not path.exists():
        if proc.poll() is not None:
            raise Failure(f"{proc.args[1]} exited {proc.returncode} before "
                          f"{path.name} appeared")
        if time.monotonic() > deadline:
            raise Failure(f"{path.name} did not appear within "
                          f"{TIMEOUT_S:.0f} s")
        time.sleep(0.01)


def compare(a_dir, b_dir, artifacts):
    files = [sorted(p.name for p in d.iterdir() if p.is_file())
             for d in (a_dir, b_dir)]
    if not files[0]:
        raise Failure("nothing to compare: no artifacts written")
    missing = [f for f in artifacts if f not in files[0] or f not in files[1]]
    if missing:
        raise Failure(f"missing artifacts: {', '.join(missing)}")
    if files[0] != files[1]:
        only = set(files[0]) ^ set(files[1])
        raise Failure(f"file sets differ: {', '.join(sorted(only))}")
    differ = [f for f in files[0]
              if (a_dir / f).read_bytes() != (b_dir / f).read_bytes()]
    if differ:
        raise Failure(f"{len(differ)} of {len(files[0])} files differ: "
                      f"{', '.join(differ)}")


def run_row(row, sweep, work):
    for variant, args in (("a", row.a), ("b", row.b)):
        out = work / variant
        out.mkdir()
        env = {**os.environ, "AETR_OUT": str(out)}
        for step in row.steps:
            argv = [x for s in step for x in (args if s is V else [s])]
            run([sweep, *argv, "--quiet"], env=env)
    compare(work / "a", work / "b", row.artifacts)


def gen_stream(serve, path):
    run([serve, "gen", "--out", path, "--events", "20000",
         "--rate-hz", "100000", "--seed", "7"])


def serve_kill_resume(sweep, serve, work):
    """SIGKILL a paced file-ingest run once it has checkpointed; --resume
    must end with the summary of an uninterrupted run, for a trace stream
    with history on and off and for an .aedat stream, and the two trace
    summaries are byte-identical (history drops per-event logs, never a
    counter). History-off snapshots stay under 64 KiB."""
    trace, aedat = work / "stream.trace", work / "stream.aedat"
    gen_stream(serve, trace)
    gen_stream(serve, aedat)
    for stream, history, tag in ((trace, [], "hist"),
                                 (trace, ["--no-history"], "nohist"),
                                 (aedat, [], "aedat")):
        ref, resumed = work / f"ref-{tag}", work / f"resumed-{tag}"
        ref_snap, live = work / f"ref-{tag}.snap", work / f"live-{tag}.snap"
        base = [serve, "run", "--in", stream, *history,
                "--snapshot-interval-sec", "0.02"]
        run(base + ["--out-dir", ref, "--snapshot", ref_snap])
        paced = spawn(base + ["--out-dir", resumed, "--snapshot", live,
                              "--pace-us", "20000", "--pace-every", "200"])
        wait_for(live, paced)
        paced.kill()
        if paced.wait() != -signal.SIGKILL:
            raise Failure(f"{tag}: the paced run ended before the kill")
        run(base + ["--out-dir", resumed, "--snapshot", live, "--resume"])
        compare(ref, resumed, ["summary.txt"])
        for snap in (ref_snap, live) if history else ():
            if snap.stat().st_size >= 64 * 1024:
                raise Failure(f"{snap.name} is {snap.stat().st_size} B, "
                              "not under 64 KiB")
    hist, nohist = (work / f"ref-{tag}" / "summary.txt"
                    for tag in ("hist", "nohist"))
    if hist.read_bytes() != nohist.read_bytes():
        raise Failure("summary.txt differs between history on and "
                      "--no-history")


def feed_fifo(stream, fifo):
    try:
        with open(fifo, "wb") as f:
            f.write(stream.read_bytes())
    except BrokenPipeError:
        pass  # the reader drained and closed the pipe mid-stream


def serve_drain(sweep, serve, work):
    """SIGTERM mid-stream drains and writes the summary: a run reading a
    FIFO, and the socket gateway with a live session."""
    stream, fifo = work / "stream.trace", work / "stream.fifo"
    gen_stream(serve, stream)
    os.mkfifo(fifo)
    reader = spawn([serve, "run", "--in", fifo, "--out-dir", work / "fifo",
                    "--snapshot", work / "fifo.snap",
                    "--snapshot-interval-sec", "0.02",
                    "--pace-us", "20000", "--pace-every", "200"])
    threading.Thread(target=feed_fifo, args=(stream, fifo),
                     daemon=True).start()
    wait_for(work / "fifo.snap", reader)
    reader.send_signal(signal.SIGTERM)
    if "drained" not in finish(reader):
        raise Failure("the FIFO run completed before SIGTERM arrived")
    if not (work / "fifo" / "summary.txt").stat().st_size:
        raise Failure("the FIFO run wrote an empty summary")

    port_file = work / "gw.port"
    gateway = spawn([serve, "listen", "--uds", work / "gw.sock",
                     "--port-file", port_file, "--out-dir", work / "net",
                     "--snapshot-dir", work / "snaps",
                     "--snapshot-interval-sec", "0.005"])
    wait_for(port_file, gateway)
    sender = spawn([serve, "send", "--in", stream, "--uds", work / "gw.sock",
                    "--name", "a", "--chunk", "100",
                    "--pace-us", "100000", "--pace-every", "100"])
    wait_for(work / "snaps" / "a.snap", gateway)
    if sender.poll() is not None:
        raise Failure("the session ended before SIGTERM")
    gateway.send_signal(signal.SIGTERM)
    finish(gateway)
    try:
        sender.wait(timeout=TIMEOUT_S)  # cut off by the drain; any exit code
    except subprocess.TimeoutExpired:
        raise Failure("the sender outlived the drained gateway")
    if not (work / "net" / "summary-a.txt").stat().st_size:
        raise Failure("the drained gateway wrote an empty summary")


def opt_interrupt_resume(sweep, serve, work):
    """`opt --interrupt-after` exits 4 with its checkpoint on disk, and
    --resume completes the search to the uninterrupted artifacts."""
    opt = [sweep, "opt", "--quick", "--jobs", "4", "--quiet", "--out"]
    run(opt + [work / "straight"])
    run(opt + [work / "resumed", "--interrupt-after", "10"], expect=4)
    run(opt + [work / "resumed", "--resume"])
    compare(work / "straight", work / "resumed", OPT_ARTIFACTS)


def opt_bad_numbers(sweep, serve, work):
    """`opt` exits 2 on a malformed --rate or --fault-level, a rate that is
    not > 0, and a fault level outside [0, 1], before running a trial."""
    opt = [sweep, "opt", "--quick", "--jobs", "1", "--quiet", "--out", work]
    for flag, value in (("--rate", "5e4x"), ("--rate", "0"), ("--rate", "-1"),
                        ("--rate", "nan"), ("--fault-level", "0.1x"),
                        ("--fault-level", "-1"), ("--fault-level", "2")):
        run(opt + [flag, value], expect=2)


def serve_config_round_trip(sweep, serve, work):
    """`run --dump-config` round-trips through --config byte for byte, a
    misspelt key in --config exits 2 with a did-you-mean hint, and a
    snapshot interval below 1 ps exits 2 as either flag."""
    a_conf, b_conf = work / "a.conf", work / "b.conf"
    a_conf.write_text(run([serve, "run", "--dump-config"]))
    b_conf.write_text(run([serve, "run", "--config", a_conf, "--dump-config"]))
    if not a_conf.stat().st_size:
        raise Failure("--dump-config printed nothing")
    if a_conf.read_bytes() != b_conf.read_bytes():
        raise Failure("--config a.conf --dump-config differs from a.conf")
    typo = work / "typo.conf"
    typo.write_text("fifo.overlow_policy = drop_oldest\n")
    proc = subprocess.run([serve, "run", "--config", typo, "--dump-config"],
                          capture_output=True, text=True)
    if proc.returncode != 2:
        raise Failure(f"misspelt key exited {proc.returncode}, expected 2")
    if "did you mean 'fifo.overflow_policy'" not in proc.stderr:
        raise Failure(f"no did-you-mean hint:\n{proc.stderr[-2000:]}")
    # A snapshot interval that rounds to 0 ps would never advance the
    # snapshot grid; both flags refuse it.
    for cmd in (["run", "--in", "-"], ["listen", "--uds", work / "gw.sock"]):
        run([serve, *cmd, "--snapshot-interval-sec", "1e-13"], expect=2)


def sweep_all_golden(sweep, serve, work):
    """`aetr-sweep all --jobs 2` writes exactly the artifacts GOLDEN lists,
    each with its listed sha256; a failure names every file that is
    missing, unlisted or different."""
    run([sweep, "all", "--jobs", "2", "--quiet"],
        env={**os.environ, "AETR_OUT": str(work)})
    want = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        want[name.lstrip("*")] = digest
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in work.iterdir() if p.is_file()}
    problems = [f"{n} missing" for n in sorted(want.keys() - got.keys())]
    problems += [f"{n} not in {GOLDEN.name}"
                 for n in sorted(got.keys() - want.keys())]
    problems += [f"{n} differs (sha256 {got[n][:12]}, listed {want[n][:12]})"
                 for n in sorted(want.keys() & got.keys())
                 if got[n] != want[n]]
    if problems:
        raise Failure(f"{len(problems)} of {len(want)} artifacts off the "
                      "golden list:\n  " + "\n  ".join(problems))


SCRIPTS = {
    "serve-kill-resume": serve_kill_resume,
    "serve-drain": serve_drain,
    "opt-resume": opt_interrupt_resume,
    "opt-bad-numbers": opt_bad_numbers,
    "serve-dump-config": serve_config_round_trip,
    "golden": sweep_all_golden,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true",
                    help="print the row names (WILL_FAIL rows flagged)")
    ap.add_argument("--sweep", help="path to aetr-sweep")
    ap.add_argument("--serve", help="path to aetr-serve")
    ap.add_argument("row", nargs="?")
    args = ap.parse_args()
    rows = {r.name: r for r in ROWS}
    if args.list:
        for r in ROWS:
            print(r.name + (" WILL_FAIL" if r.will_fail else ""))
        print("\n".join(SCRIPTS))
        return 0
    if args.row not in rows and args.row not in SCRIPTS:
        ap.error(f"unknown row {args.row!r}; see --list")
    if not (args.sweep and args.serve):
        ap.error("--sweep and --serve are required")
    sweep = pathlib.Path(args.sweep).resolve()
    serve = pathlib.Path(args.serve).resolve()
    with tempfile.TemporaryDirectory(prefix=f"aetr_det_{args.row}_") as tmp:
        try:
            if args.row in SCRIPTS:
                SCRIPTS[args.row](sweep, serve, pathlib.Path(tmp))
            else:
                run_row(rows[args.row], sweep, pathlib.Path(tmp))
        except Failure as e:
            print(f"determinism {args.row}: FAIL: {e}")
            return 1
        finally:
            for proc in _spawned:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    print(f"determinism {args.row}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
