#!/usr/bin/env bash
# Tier-1 gate: the unit/property/integration suite plus a trace smoke
# check that the observability pipeline produces valid JSONL.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Every temp file and dir a step makes goes into tmp_paths; one handler
# removes them all however the script ends.
tmp_paths=()
cleanup() { rm -rf "${tmp_paths[@]}"; }
trap cleanup EXIT

echo "== compile gate =="
python -m compileall -q src

echo "== lint gate =="
if command -v ruff > /dev/null 2>&1; then
  ruff check src tests scripts examples benchmarks
else
  echo "ruff not found; using stdlib fallback linter"
  python scripts/lint.py
fi

echo "== tier-1 test suite =="
python -m pytest tests/ -q

echo "== survey and ablation benches =="
# Each bench regenerates one figure or table of the paper, a survey claim
# or a design ablation, and asserts its shape (who wins, by roughly how
# much).  About 6 s.
python -m pytest benchmarks --ignore=benchmarks/e2e -q

echo "== examples =="
# Every example must run to a zero exit, so an API change cannot leave
# one broken.  TMPDIR points their temp dirs (stores and the like) at a
# dir the EXIT trap removes.  About 5 s.
examples_tmp="$(mktemp -d /tmp/repro-examples.XXXXXX)"
tmp_paths+=("$examples_tmp")
for example in examples/*.py; do
  TMPDIR="$examples_tmp" python "$example" > /dev/null \
    || { echo "examples: $example exited non-zero"; exit 1; }
done
echo "examples ok: $(ls examples/*.py | wc -l) ran to a zero exit"

echo "== e2e benchmark drivers =="
# The benchmark's public-call drivers (presets, WorldBuilder, campaigns
# through the scenario registry) on trimmed workloads.
python -m pytest benchmarks/e2e -q

echo "== e2e benchmark digest gate =="
# Full-size psm-downlink, unap-uplink, campaign-cold (hotspot proxy
# feeds), campaign-warm (the cache-hit path, which never loads the
# simulator), city-grid-1k (fleet proxy feeds) and city-grid-1k-shards2
# (the sharded fleet's cell worlds and migrations) at seed 0: each run's
# summary must hash to its pinned digest in benchmarks/e2e/expected/.
# Every workload but campaign-warm also runs at seeds 1 and 2: the
# psm-downlink and unap-uplink digests pin the same-instant event order
# of the DCF/μNap frame exchange, the campaign-cold and city-grid ones
# that of the Hotspot burst chains and the CBR pull plans.
check_digests() {
  digest_line="$(python benchmarks/e2e/run.py "$@" --repeats 1 --trace 0 \
    | tail -n 1)"
  python - "$digest_line" <<'EOF'
import json
import sys

result = json.loads(sys.argv[1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"digest gate: expected correct=true, failed=0: {sys.argv[1][:200]}")
print(f"digests ok: {result['attempted']} runs match benchmarks/e2e/expected")
EOF
}
check_digests --workload psm-downlink --workload unap-uplink \
  --workload campaign-cold --workload campaign-warm \
  --workload city-grid-1k --workload city-grid-1k-shards2 --seed 0

echo "== e2e ms/sta-s ceiling gate =="
# The seed-0 run above reports each workload's ms per simulated
# station-second, scaled by run.py's host-speed probe.  Each ceiling is
# about 5x the worst of two seed-0 runs on a 2-vCPU host with Python
# 3.11.7 (7.6, 9.8, 0.072 and 0.158): it catches a run that has fallen
# off a cliff, not machine noise.
python - "$digest_line" <<'EOF'
import json
import sys

CEILINGS = {
    "psm-downlink": 40.0,
    "unap-uplink": 50.0,
    "campaign-cold": 0.4,
    "city-grid-1k": 1.0,
}

metrics = json.loads(sys.argv[1])["metrics"]
for workload, ceiling in CEILINGS.items():
    value = metrics[f"{workload}.ms_per_sta_s"]["value"]
    if not value <= ceiling:
        sys.exit(f"ceiling gate: {workload} at {value:.4g} ms/sta-s, "
                 f"over its {ceiling:g} ceiling")
    print(f"ceiling ok: {workload} at {value:.4g} ms/sta-s "
          f"(ceiling {ceiling:g})")
EOF

for seed in 1 2; do
  check_digests --workload psm-downlink --workload unap-uplink \
    --workload campaign-cold --workload city-grid-1k \
    --workload city-grid-1k-shards2 --seed "$seed"
done

echo "== hash-seed independence check =="
# run.py pins PYTHONHASHSEED=0 on its children, so the digest gate cannot
# see a result that moves with the interpreter's hash salt.  Here every
# scenario with a golden in tests/build/golden runs at golden size under
# three salts, and each summary record, sim_events included, must equal
# its checked-in golden.  Under each salt the sharded city grid
# (city-grid-1k-shards2, seed 0) must also hash to its pinned digest, and
# a 2-point campaign must write the same results.jsonl bytes.
hash_dir="$(mktemp -d /tmp/repro-hash.XXXXXX)"
tmp_paths+=("$hash_dir")
for hash_seed in 0 1 12345; do
  PYTHONHASHSEED="$hash_seed" python - <<'EOF'
import json
import os
import sys

sys.path.insert(0, "scripts")
from make_goldens import GOLDEN_SEEDS, golden_dir, golden_record  # noqa: E402

salt = os.environ["PYTHONHASHSEED"]
names = sorted(f[: -len(".json")] for f in os.listdir(golden_dir()) if f.endswith(".json"))
for name in names:
    with open(os.path.join(golden_dir(), f"{name}.json"), encoding="utf-8") as stream:
        golden = json.load(stream)["records"]
    for seed in GOLDEN_SEEDS:
        if golden_record(name, seed) != golden[str(seed)]:
            sys.exit(f"hash-seed check: {name} seed {seed} differs from its "
                     f"golden under PYTHONHASHSEED={salt}")
print(f"hash seed {salt} ok: {', '.join(names)} match their goldens")
EOF
  mkdir -p "$hash_dir/$hash_seed"
  shard_line="$(PYTHONHASHSEED="$hash_seed" python benchmarks/e2e/child.py \
    --workload city-grid-1k-shards2 --seed 0 --workdir "$hash_dir/$hash_seed" \
    | tail -n 1)"
  python - "$shard_line" "$hash_seed" <<'EOF'
import json
import sys

digest = json.loads(sys.argv[1])["digest"]
with open("benchmarks/e2e/expected/city-grid-1k-shards2.json", encoding="utf-8") as stream:
    pinned = json.load(stream)["0"]
if digest != pinned:
    sys.exit(f"hash-seed check: city-grid-1k-shards2 digest {digest} under "
             f"PYTHONHASHSEED={sys.argv[2]}, pinned {pinned}")
print(f"hash seed {sys.argv[2]} ok: city-grid-1k-shards2 matches its pinned digest")
EOF
  PYTHONHASHSEED="$hash_seed" python -m repro campaign --scenario hotspot \
    --param n_clients=1,2 --set duration_s=5 --store "$hash_dir/$hash_seed/store" \
    > /dev/null 2>&1
done
for hash_seed in 1 12345; do
  cmp "$hash_dir/0/store/results.jsonl" "$hash_dir/$hash_seed/store/results.jsonl" \
    || { echo "hash-seed check: campaign store differs under PYTHONHASHSEED=$hash_seed"; \
         exit 1; }
done
echo "hash-seed check ok: the campaign store is byte-identical under all three salts"

echo "== bad-input smoke check =="
# A value outside a spec field's domain ends in one "error:" line and
# exit status 2, never a traceback.
bad_status=0
bad_err="$(python -m repro fig2 --duration nan 2>&1 > /dev/null)" || bad_status=$?
if [ "$bad_status" -ne 2 ] || [[ "$bad_err" != error:* ]] \
  || [[ "$bad_err" == *Traceback* ]]; then
  echo "bad-input smoke: fig2 --duration nan exited $bad_status: $bad_err"
  exit 1
fi
echo "bad-input smoke ok: $bad_err"

echo "== trace smoke check =="
trace_file="$(mktemp /tmp/repro-trace.XXXXXX.jsonl)"
tmp_paths+=("$trace_file")
# With --profile as well, the profiler wraps step() on the traced
# simulators, so its step count must equal the trace's dispatch records.
profile_out="$(python -m repro fig2 --duration 10 --trace "$trace_file" --profile)"

python - "$trace_file" "$profile_out" <<'EOF'
import json
import re
import sys

required = ("time_s", "layer", "entity", "kind")
count = 0
dispatches = 0
layers = set()
with open(sys.argv[1], encoding="utf-8") as stream:
    for number, line in enumerate(stream, start=1):
        record = json.loads(line)
        for key in required:
            if key not in record:
                sys.exit(f"line {number}: missing {key!r}: {record}")
        layers.add(record["layer"])
        dispatches += record["kind"] == "dispatch"
        count += 1
if count == 0:
    sys.exit("trace smoke check produced an empty trace")
steps = [int(n) for n in re.findall(r"^steps: (\d+)", sys.argv[2], re.MULTILINE)]
if len(steps) != 1 or steps[0] != dispatches:
    sys.exit(f"profiler steps {steps} != {dispatches} traced dispatches")
print(f"trace ok: {count} events across layers {sorted(layers)}")
print(f"profile ok: {steps[0]} profiled steps == {dispatches} traced dispatches")
EOF

echo "== scenario registry smoke check =="
python -m repro scenarios > /dev/null
python - <<'EOF'
import json
import subprocess
import sys

out = subprocess.run(
    [sys.executable, "-m", "repro", "scenarios", "--json"],
    check=True, capture_output=True, text=True,
).stdout
entries = {e["name"]: e for e in json.loads(out)}
expected = {
    "hotspot", "faulty-hotspot", "unscheduled", "psm-baseline",
    "psm-crossval", "fleet-hotspot", "city-grid",
    "unap-hotspot", "pamas", "ecmac",
}
missing = expected - set(entries)
if missing:
    sys.exit(f"scenarios smoke: missing registrations: {sorted(missing)}")
for name, entry in entries.items():
    if not entry["declarative"]:
        sys.exit(f"scenarios smoke: {name} has no spec factory")
    if not entry["parameters"]:
        sys.exit(f"scenarios smoke: {name} lists no parameters")
if not any(
    p["name"] == "n_aps" and p["default"] == 4
    for p in entries["fleet-hotspot"]["parameters"]
):
    sys.exit("scenarios smoke: fleet-hotspot did not introspect n_aps=4")
print(f"scenarios ok: {len(entries)} registered, all declarative")
EOF

echo "== campaign smoke check =="
campaign_dir="$(mktemp -d /tmp/repro-campaign.XXXXXX)"
serial_dir="$(mktemp -d /tmp/repro-campaign-serial.XXXXXX)"
tmp_paths+=("$campaign_dir" "$serial_dir")
campaign_args=(campaign --scenario hotspot
  --param burst_bytes=20000,40000 --param n_clients=1,2
  --set duration_s=5 --seeds 8 --name ci-smoke --json)

# 2x2 grid x 8 seeds (32 runs, so the pool ships chunks of 4 runs per
# task) through the worker pool, then the same grid serially into a
# fresh store: parallel and serial artifacts and stores must be
# byte-identical.
python -m repro "${campaign_args[@]}" --jobs 2 --store "$campaign_dir" \
  > "$campaign_dir/parallel.json" 2> "$campaign_dir/parallel.err"
python -m repro "${campaign_args[@]}" --jobs 1 --store "$serial_dir" \
  > "$serial_dir/serial.json" 2> "$serial_dir/serial.err"
diff "$campaign_dir/parallel.json" "$serial_dir/serial.json" \
  || { echo "campaign smoke: parallel vs serial output differs"; exit 1; }
cmp "$campaign_dir/results.jsonl" "$serial_dir/results.jsonl" \
  || { echo "campaign smoke: parallel vs serial store differs"; exit 1; }

# Resume from the populated store: zero scenario re-executions, not a
# byte of the store rewritten, and one "cached" heartbeat per run.
cp "$campaign_dir/results.jsonl" "$campaign_dir/results.before"
beats_before="$(wc -l < "$campaign_dir/progress.jsonl")"
python -m repro "${campaign_args[@]}" --jobs 2 --store "$campaign_dir" \
  > "$campaign_dir/resumed.json" 2> "$campaign_dir/resumed.err"
grep -q "32 cached, 0 executed" "$campaign_dir/resumed.err" \
  || { echo "campaign smoke: resume was not fully cached:"; \
       cat "$campaign_dir/resumed.err"; exit 1; }
diff "$campaign_dir/parallel.json" "$campaign_dir/resumed.json" \
  || { echo "campaign smoke: resumed output differs"; exit 1; }
cmp "$campaign_dir/results.before" "$campaign_dir/results.jsonl" \
  || { echo "campaign smoke: the resumed pass changed the store"; exit 1; }
cached_beats="$(tail -n +"$((beats_before + 1))" "$campaign_dir/progress.jsonl" \
  | grep -c '"outcome":"cached"' || true)"
[ "$cached_beats" -eq 32 ] \
  || { echo "campaign smoke: $cached_beats cached heartbeats, want 32"; exit 1; }
echo "campaign ok: parallel==serial, resume fully cached, store unchanged"

echo "== crash-resume smoke check (failing grid point) =="
# A Bluetooth quality script with quality 2.0 passes the spec (the
# script has no domain) and fails deterministically when the world is
# built in the worker; the campaign must still complete, quarantine the
# failure, and a second invocation must re-execute only the quarantined
# run (healthy run stays cached).  A value outside a spec field's domain
# (n_clients=0) no longer gets this far: the CLI rejects it before any
# run is dispatched (tests/test_cli_errors.py).
failure_dir="$(mktemp -d /tmp/repro-campaign-fail.XXXXXX)"
tmp_paths+=("$failure_dir")
failure_args=(campaign --scenario hotspot
  --param 'bluetooth_quality_script=[[[0.0,1.0]],[[0.0,2.0]]]'
  --set n_clients=1 --set duration_s=5
  --seeds 1 --name ci-failures --json)

python -m repro "${failure_args[@]}" --store "$failure_dir" \
  > "$failure_dir/first.json" 2> "$failure_dir/first.err"
grep -q "2 runs (0 cached, 2 executed, 1 failed" "$failure_dir/first.err" \
  || { echo "failure smoke: expected 1 failed run:"; \
       cat "$failure_dir/first.err"; exit 1; }
grep -q "failed: ci-failures/" "$failure_dir/first.err" \
  || { echo "failure smoke: missing failure attribution line"; exit 1; }

python -m repro "${failure_args[@]}" --store "$failure_dir" \
  > "$failure_dir/second.json" 2> "$failure_dir/second.err"
grep -q "2 runs (1 cached, 1 executed, 1 failed" "$failure_dir/second.err" \
  || { echo "failure smoke: expected only the quarantined run to retry:"; \
       cat "$failure_dir/second.err"; exit 1; }
diff "$failure_dir/first.json" "$failure_dir/second.json" \
  || { echo "failure smoke: partial-result artifacts differ"; exit 1; }

python - "$failure_dir/first.json" <<'EOF'
import json
import sys

payload = json.load(open(sys.argv[1]))
failed = payload["failed_runs"]
if len(failed) != 1:
    sys.exit(f"expected exactly 1 failed run, got {len(failed)}")
error = failed[0]["error"]
if error["type"] != "ValueError" or "quality" not in error["message"]:
    sys.exit(f"unexpected error envelope: {error}")
if not any(p["failed"] == 1 for p in payload["points"]):
    sys.exit("no grid point reports the failure")
print("failure envelope ok:", error["type"], "-", error["message"])
EOF
echo "crash-resume ok: partial results, quarantine retried, envelopes stable"

echo "== faulty-hotspot smoke check =="
faulty_dir="$(mktemp -d /tmp/repro-faulty.XXXXXX)"
tmp_paths+=("$faulty_dir")
python -m repro campaign --scenario faulty-hotspot \
  --set duration_s=60 --set n_clients=2 \
  --set outage_start_s=20 --set outage_duration_s=15 \
  --seeds 1 --name ci-faulty --json \
  --fields wnic_power_w,switchovers,radio_outages \
  > "$faulty_dir/faulty.json" 2> "$faulty_dir/faulty.err"

python - "$faulty_dir/faulty.json" <<'EOF'
import json
import sys

payload = json.load(open(sys.argv[1]))
point = payload["points"][0]
if not point["qos_maintained"]:
    sys.exit("faulty-hotspot: QoS not maintained through the outage")
if point["stats"]["radio_outages"]["mean"] != 2.0:
    sys.exit(f"faulty-hotspot: expected 2 radio outages: {point['stats']}")
if point["stats"]["switchovers"]["mean"] < 2.0:
    sys.exit("faulty-hotspot: no interface failover happened")
print("faulty-hotspot ok: QoS held across the WLAN outage with failover")
EOF

echo "== fleet-hotspot smoke check =="
fleet_dir="$(mktemp -d /tmp/repro-fleet.XXXXXX)"
tmp_paths+=("$fleet_dir")
python -m repro fleet --duration 30 --json > "$fleet_dir/fleet.json"

python - "$fleet_dir/fleet.json" <<'EOF'
import json
import sys

record = json.load(open(sys.argv[1]))
if record["n_aps"] != 4 or record["n_clients"] != 24:
    sys.exit(f"fleet smoke: unexpected shape: {record['n_aps']} APs, "
             f"{record['n_clients']} clients")
if not record["qos_maintained"]:
    sys.exit("fleet smoke: QoS lost during roaming")
if record["handoffs"] < 1:
    sys.exit("fleet smoke: no handoffs happened in 30 s")
cells = record["cells"]
if sorted(cells) != ["ap0", "ap1", "ap2", "ap3"]:
    sys.exit(f"fleet smoke: missing per-cell breakdowns: {sorted(cells)}")
served = sum(c["bursts_served"] for c in cells.values())
if served == 0:
    sys.exit("fleet smoke: no cell served any bursts")
print(f"fleet ok: {record['handoffs']} handoffs across "
      f"{record['n_aps']} cells, QoS held, {served} bursts served")
EOF

echo "== sharded fleet smoke check (shards=1 vs shards=4 byte-identical) =="
# One fleet run per argument set at --shards 1 and at --shards 4: the
# records, merged stores and per-cell partials must be byte-identical.
# The first set is small enough to roam every client across shards;
# the second is city-grid-1k trimmed to 5 s (the CLI defaults to the
# edf scheduler and a 0.9 utilisation cap, as the preset does).
check_shard_identity() {
  shard_a="$(mktemp -d /tmp/repro-shard-a.XXXXXX)"
  shard_b="$(mktemp -d /tmp/repro-shard-b.XXXXXX)"
  tmp_paths+=("$shard_a" "$shard_b")
  python -m repro "$@" --shards 1 --store "$shard_a" > "$shard_a/out.json"
  python -m repro "$@" --shards 4 --store "$shard_b" > "$shard_b/out.json"
  diff "$shard_a/out.json" "$shard_b/out.json" \
    || { echo "shard smoke ($*): shards=1 vs shards=4 records differ"; exit 1; }
  diff "$shard_a/merged.json" "$shard_b/merged.json" \
    || { echo "shard smoke ($*): merged stores differ"; exit 1; }
  diff -r "$shard_a/shards" "$shard_b/shards" \
    || { echo "shard smoke ($*): per-cell partials differ"; exit 1; }
}
check_shard_identity fleet --clients 8 --aps 4 --duration 20 --json
python - "$shard_a/out.json" <<'EOF'
import json
import sys

record = json.load(open(sys.argv[1]))
if record["handoffs"] < 1:
    sys.exit("shard smoke: no cross-shard roams in 20 s")
if not record["qos_maintained"]:
    sys.exit("shard smoke: QoS lost during sharded roaming")
print(f"shard ok: {record['handoffs']} cross-shard handoffs, "
      "1==4 workers byte-identical")
EOF
check_shard_identity fleet --grid 6x6 --clients 1000 --duration 5 --seed 0 --json
echo "shard ok: city-grid 6x6 with 1000 clients, 1==4 workers byte-identical"

echo "== μNap power-saving smoke check =="
unap_dir="$(mktemp -d /tmp/repro-unap.XXXXXX)"
tmp_paths+=("$unap_dir")
# Same assembly, same seed, same traffic — only the power policy
# differs.  μNap must save WNIC energy over the CAM baseline without
# giving up a byte of throughput or the PSM-era QoS guard.
python -m repro campaign --scenario unap-hotspot \
  --param power_policy=unap,cam \
  --set n_clients=3 --set duration_s=3 --seeds 1 --name ci-unap --json \
  > "$unap_dir/unap.json" 2> "$unap_dir/unap.err"

python - "$unap_dir/unap.json" <<'EOF'
import json
import sys

payload = json.load(open(sys.argv[1]))
points = {p["params"]["power_policy"]: p for p in payload["points"]}
if set(points) != {"unap", "cam"}:
    sys.exit(f"unap smoke: unexpected grid: {sorted(points)}")
for name, point in points.items():
    if not point["qos_maintained"]:
        sys.exit(f"unap smoke: QoS guard lost under {name}")
unap = points["unap"]["stats"]
cam = points["cam"]["stats"]
if unap["bytes_received"]["mean"] != cam["bytes_received"]["mean"]:
    sys.exit("unap smoke: napping changed delivered traffic")
saving = 1.0 - unap["wnic_power_w"]["mean"] / cam["wnic_power_w"]["mean"]
if saving <= 0.05:
    sys.exit(f"unap smoke: expected >5% WNIC saving, got {saving:.1%}")
if unap["naps"]["mean"] <= 0 or unap["micro_doze_dwells"]["mean"] <= 0:
    sys.exit("unap smoke: no micro-sleep evidence in the unap run")
print(f"unap ok: {saving:.1%} WNIC saving over CAM, QoS held, "
      f"{unap['naps']['mean']:.0f} naps")
EOF

echo "== report smoke check =="
report_dir="$(mktemp -d /tmp/repro-report.XXXXXX)"
tmp_paths+=("$report_dir")
report_args=(campaign --scenario hotspot
  --param n_clients=1,2 --set duration_s=5 --seeds 1
  --name ci-report --timeseries 1 --store "$report_dir" --json)
python -m repro "${report_args[@]}" > /dev/null 2> "$report_dir/run.err"
python -m repro report "$report_dir" -o "$report_dir/report.html" \
  --json > "$report_dir/summary.json"
# A fully cached re-run appends "cached" heartbeats with no timing; the
# report of the resumed store must still render.
python -m repro "${report_args[@]}" > /dev/null 2> "$report_dir/resumed.err"
grep -q "2 cached, 0 executed" "$report_dir/resumed.err" \
  || { echo "report smoke: re-run was not fully cached:"; \
       cat "$report_dir/resumed.err"; exit 1; }
python -m repro report "$report_dir" -o "$report_dir/resumed.html" \
  --json > "$report_dir/resumed.json"

python - "$report_dir" <<'EOF'
import json
import os
import re
import sys

report_dir = sys.argv[1]
summary = json.load(open(os.path.join(report_dir, "summary.json")))
if summary["runs"] != 2 or summary["failed"] != 0:
    sys.exit(f"report smoke: unexpected run counts: {summary}")
resumed = json.load(open(os.path.join(report_dir, "resumed.json")))
if (resumed["runs"], resumed["failed"]) != (2, 0):
    sys.exit(f"report smoke: unexpected resumed run counts: {resumed}")
if summary["timeseries"] != 2:
    sys.exit(f"report smoke: expected 2 timeseries files: {summary}")
page = open(os.path.join(report_dir, "report.html"), encoding="utf-8").read()
for anchor in ('id="overview"', 'id="runs"', 'id="failures"',
               'id="timeseries"', 'id="kernel"'):
    if anchor not in page:
        sys.exit(f"report smoke: missing section {anchor}")
if re.search(r'(?:src|href)\s*=\s*["\']https?://', page):
    sys.exit("report smoke: page references external resources")
match = re.search(
    r'<script type="application/json" id="report-data">(.*?)</script>',
    page, re.S)
data = json.loads(match.group(1).replace("<\\/", "</"))
if len(data["timeseries"]) != 2:
    sys.exit("report smoke: embedded payload lost the timeseries")
for block in data["timeseries"].values():
    if not block["rows"] or "time_s" not in block["columns"]:
        sys.exit("report smoke: timeseries block has no samples")
heartbeats = [json.loads(line) for line in
              open(os.path.join(report_dir, "progress.jsonl"))]
kinds = {beat["kind"] for beat in heartbeats}
if not {"campaign-start", "run", "campaign-end"} <= kinds:
    sys.exit(f"report smoke: heartbeat kinds incomplete: {sorted(kinds)}")
print(f"report ok: {summary['bytes']} bytes, self-contained, "
      f"{summary['timeseries']} charts, {len(heartbeats)} heartbeats")
EOF

echo "== crossval smoke check (sim-vs-model agreement gate) =="
crossval_dir="$(mktemp -d /tmp/repro-crossval.XXXXXX)"
surrogate_a="$(mktemp -d /tmp/repro-surrogate-a.XXXXXX)"
surrogate_b="$(mktemp -d /tmp/repro-surrogate-b.XXXXXX)"
tmp_paths+=("$crossval_dir" "$surrogate_a" "$surrogate_b")
# Coarse grid, trimmed durations: the closed-form models must agree
# with the simulator inside the 10% tolerance contract, or the command
# exits non-zero and fails the gate.
python -m repro crossval --n-clients 1,2 --offered 128e3,6e6 --listen 1 \
  --seeds 2 --light-duration 20 --saturated-duration 8 --jobs 2 \
  --store "$crossval_dir" --json \
  > "$crossval_dir/crossval.json.out" 2> "$crossval_dir/crossval.err" \
  || { echo "crossval smoke: tolerance contract violated:"; \
       cat "$crossval_dir/crossval.err"; exit 1; }
grep -q "agreement: worst residual" "$crossval_dir/crossval.err" \
  || { echo "crossval smoke: missing agreement verdict:"; \
       cat "$crossval_dir/crossval.err"; exit 1; }
echo "crossval ok: $(grep 'agreement' "$crossval_dir/crossval.err")"
# Same contract for the μNap predictor: one grid point per policy
# branch (unap + cam) against the unap-hotspot world.
python -m repro crossval --suite unap --saturated-duration 5 --jobs 2 \
  --json \
  > "$crossval_dir/unap-crossval.json.out" 2> "$crossval_dir/unap-crossval.err" \
  || { echo "unap crossval smoke: tolerance contract violated:"; \
       cat "$crossval_dir/unap-crossval.err"; exit 1; }
grep -q "agreement: worst residual" "$crossval_dir/unap-crossval.err" \
  || { echo "unap crossval smoke: missing agreement verdict:"; \
       cat "$crossval_dir/unap-crossval.err"; exit 1; }
echo "unap crossval ok: $(grep 'agreement' "$crossval_dir/unap-crossval.err")"

echo "== surrogate determinism smoke check =="
# Surrogate-refined campaign (3/8 points on the acceptance grid) run
# serially and through the pool: the refined grid selection and the
# stored crossval artifact must be byte-identical.
surrogate_args=(crossval --n-clients 1,2 --offered 128e3,6e6 --listen 1,2
  --seeds 1 --light-duration 10 --saturated-duration 5
  --surrogate-fraction 0.35 --json)
python -m repro "${surrogate_args[@]}" --jobs 1 --store "$surrogate_a" \
  > "$surrogate_a/out.json" 2> "$surrogate_a/err" || true
python -m repro "${surrogate_args[@]}" --jobs 2 --store "$surrogate_b" \
  > "$surrogate_b/out.json" 2> "$surrogate_b/err" || true
grep -q "surrogate screen: 3/8 grid points dispatched" "$surrogate_a/err" \
  || { echo "surrogate smoke: expected 3/8 dispatch (<40% budget):"; \
       cat "$surrogate_a/err"; exit 1; }
diff "$surrogate_a/crossval.json" "$surrogate_b/crossval.json" \
  || { echo "surrogate smoke: jobs=1 vs jobs=2 artifacts differ"; exit 1; }
diff "$surrogate_a/out.json" "$surrogate_b/out.json" \
  || { echo "surrogate smoke: jobs=1 vs jobs=2 output differs"; exit 1; }
echo "surrogate ok: 3/8 points dispatched, serial==parallel artifacts"

echo "ci.sh: all checks passed"
