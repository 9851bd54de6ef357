#!/usr/bin/env sh
# End-to-end smoke of the live introspection plane: start landscape_survey
# in serving mode on an ephemeral port, scrape /metrics, /healthz and /spans
# MID-SWEEP over real loopback HTTP, and assert the headline series are
# present and monotone across two scrapes. This is the "can an operator
# actually watch a sweep" gate — the unit suite (test_obs_export) covers the
# rendering math; this covers the wiring.
#
# Usage: tools/obs_smoke.sh [build-dir]
#   build-dir defaults to ./build (configured if missing).
set -eu

BUILD_DIR="${1:-build}"

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)" \
  --target landscape_survey

TMP="$(mktemp -d)"
SURVEY_PID=""
cleanup() {
  if [ -n "${SURVEY_PID}" ] && kill -0 "${SURVEY_PID}" 2>/dev/null; then
    kill "${SURVEY_PID}" 2>/dev/null || true
    wait "${SURVEY_PID}" 2>/dev/null || true
  fi
  rm -rf "${TMP}"
}
trap cleanup EXIT INT TERM

echo "== start landscape_survey --serve 0 (ephemeral port) =="
"${BUILD_DIR}/examples/landscape_survey" \
  --serve 0 --sweeps 0 --population 1000 \
  --checkpoint "${TMP}/sweep.journal" \
  --events "${TMP}/events.ndjson" \
  >"${TMP}/stdout.log" 2>"${TMP}/stderr.log" &
SURVEY_PID=$!

# The port line appears once population generation finishes and the server
# is bound; the format is pinned in examples/landscape_survey.cpp.
PORT=""
i=0
while [ "${i}" -lt 120 ]; do
  PORT="$(sed -n 's/^serving introspection on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
    "${TMP}/stdout.log")"
  [ -n "${PORT}" ] && break
  if ! kill -0 "${SURVEY_PID}" 2>/dev/null; then
    echo "landscape_survey exited before serving:" >&2
    cat "${TMP}/stdout.log" "${TMP}/stderr.log" >&2
    exit 1
  fi
  i=$((i + 1))
  sleep 1
done
if [ -z "${PORT}" ]; then
  echo "timed out waiting for the serving line" >&2
  exit 1
fi
echo "  serving on 127.0.0.1:${PORT}"

echo "== scrape mid-sweep and assert series presence + monotonicity =="
python3 - "${PORT}" <<'EOF'
import json
import re
import sys
import time
import urllib.request

port = int(sys.argv[1])
base = f"http://127.0.0.1:{port}"


def get(path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        assert resp.status == 200, f"{path}: HTTP {resp.status}"
        return resp.read().decode()


def samples(body):
    out = {}
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


# Wait (bounded) until the first sweep completed so the end-of-run sweep.*
# gauges exist, then scrape twice with a gap.
deadline = time.monotonic() + 120
while True:
    health = json.loads(get("/healthz"))
    if health["sweeps"]["completed"] >= 1:
        break
    assert time.monotonic() < deadline, f"no sweep completed: {health}"
    time.sleep(1)

assert health["status"] in ("ok", "degraded"), health
for key in ("phase", "contracts", "shards", "quarantined", "journal_bytes",
            "breaker"):
    assert key in health, f"healthz missing {key!r}: {health}"
assert health["shards"]["total"] >= 1, health

# shards.committed resets at every serving-mode lap, so a single read can
# legitimately land on 0 — poll for a moment where a commit is visible.
max_committed = 0
deadline = time.monotonic() + 30
while max_committed < 1 and time.monotonic() < deadline:
    max_committed = max(max_committed,
                        json.loads(get("/healthz"))["shards"]["committed"])
assert max_committed >= 1, "never observed a committed shard"
print(f"  /healthz: status={health['status']} phase={health['phase']} "
      f"shards committed observed={max_committed}/{health['shards']['total']}")

s1 = samples(get("/metrics"))
time.sleep(2)
s2 = samples(get("/metrics"))

required = [
    "proxion_contracts_per_s",                          # headline rate
    "proxion_sweep_contracts_total",                    # its source counter
    "proxion_chain_archive_get_storage_at_calls_total", # live RPC volume
]
for name in required:
    assert name in s1, f"missing required series {name}"
    assert name in s2, f"series {name} vanished between scrapes"

# Shard progress gauges and the process-wide RPC resilience counters exist
# (exact members may grow; assert the family).
for prefix in ("proxion_sweep_shards_", "proxion_chain_rpc_"):
    assert any(k.startswith(prefix) for k in s2), f"no series under {prefix}"

# Counters must be monotone between scrapes; the sweep loop keeps running,
# so RPC volume must have strictly advanced.
for name in ("proxion_sweep_contracts_total",
             "proxion_chain_archive_get_storage_at_calls_total"):
    assert s2[name] >= s1[name], f"{name} went backwards: {s1[name]} -> {s2[name]}"
storage = "proxion_chain_archive_get_storage_at_calls_total"
assert s2[storage] > s1[storage], "no RPC progress between scrapes"

# Histogram families render the full bucket/sum/count triple.
hist = [k for k in s2 if re.search(r'_bucket\{le="\+Inf"\}$', k)]
assert hist, "no histogram series"
for bucket in hist:
    family = bucket[: -len('_bucket{le="+Inf"}')]
    assert family + "_sum" in s2, f"{family} missing _sum"
    assert family + "_count" in s2, f"{family} missing _count"

# /spans drains live NDJSON span records.
spans = get("/spans").strip().splitlines()
assert spans, "/spans returned no records"
for line in spans[:5]:
    record = json.loads(line)
    assert "name" in record and "dur_ns" in record, record

print(f"  /metrics: {len(s2)} series, "
      f"contracts_per_s={s2['proxion_contracts_per_s']:.1f}, "
      f"storage calls {s1[storage]:.0f} -> {s2[storage]:.0f}")
print(f"  /spans: {len(spans)} records")
EOF

# The structured event log must have absorbed the operational lines.
if ! grep -q '"component":"sweep"' "${TMP}/events.ndjson"; then
  echo "events.ndjson has no sweep events" >&2
  exit 1
fi
echo "  events.ndjson: $(wc -l <"${TMP}/events.ndjson") events"

echo "obs_smoke: OK"
