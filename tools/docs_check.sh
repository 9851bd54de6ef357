#!/bin/sh
# Docs consistency gate (CI "docs" job):
#   1. every relative markdown link in *.md and docs/*.md resolves to a file
#      that exists in the repo (external http(s)/mailto links are skipped);
#   2. README.md's knob table and PipelineConfig agree both ways: every
#      documented knob exists in src/core/pipeline.h (dotted knobs like
#      `static_tier.enabled` are checked by their leaf member name, and their
#      first component must be a PipelineConfig field), and every field of
#      `struct PipelineConfig` has a row (`<field>` or `<field>.*`);
#   3. README.md's sweep-knob table and DurableSweepConfig agree both ways:
#      every documented knob exists in src/store/durable_sweep.h and every
#      field of `struct DurableSweepConfig` has a row;
#   4. the README knob table and TelemetryConfig agree exactly: every field
#      of `struct TelemetryConfig` in src/core/pipeline.h has a
#      `telemetry.<field>` row, and every `telemetry.*` row names a real
#      field (catches docs rotting in either direction as the live
#      introspection plane grows);
#   5. docs/OPERATIONS.md stays wired to reality: every endpoint path in
#      its endpoint table appears as a string literal in the serving code,
#      and every row of its tuning table names a config field that exists
#      in the header the row points at;
#   6. docs/QUERY_API.md and the /v1 renderers agree exactly: every field
#      name in the spec's `| Field | Type | Meaning |` tables is an
#      append_key() call site in src/serve/*.cpp and vice versa (the spec
#      is normative — an undocumented field is as much a failure as a
#      documented-but-gone one);
#   7. every `proxion_*` series in docs/OPERATIONS.md's "Metrics worth
#      alerting on" table is rendered from a registry name under src/: with
#      the `proxion_` prefix and any `_total` suffix stripped, it must equal
#      some dotted string literal in src/ with `.` sanitized to `_` (an
#      alert on a series nothing exports never fires);
#   8. every `--flag` on a landscape_survey command line in *.md, docs/*.md
#      or tools/*.sh is a `"--flag"` string literal in
#      examples/landscape_survey.cpp, so no doc shows a flag the example no
#      longer parses. A command line is `landscape_survey --...` (a closing
#      quote may sit between the two) up to the end of the line (backslash
#      continuations joined) or the closing backtick of inline code.
# Pure POSIX sh + grep/sed/awk; no network, no build required.
set -eu
cd "$(dirname "$0")/.."

fail=0

# Top-level data members of `struct <name>` in <header>, one per line: lines
# at the struct's own two-space indent that are not comments, with trailing
# comments, initializers (`= ...`, `{...}`) and the `;` stripped, reduced to
# their last identifier.
struct_fields() {
  awk -v open="^struct $1 \\{" '$0 ~ open { in_struct = 1; next }
                                  in_struct && /^\};/ { in_struct = 0 }
                                  in_struct' "$2" |
    grep '^  [^ /]' |
    sed -e 's#  *//.*##' -e 's/ = .*//' -e 's/[{;].*//' \
      -e 's/.*[^A-Za-z_0-9]\([a-z_][a-z_0-9]*\)$/\1/'
}

# ---- 1. relative markdown links ------------------------------------------
for f in *.md docs/*.md; do
  [ -f "$f" ] || continue
  dir=$(dirname "$f")
  links=$(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//; s/#.*//') || true
  for link in $links; do
    case "$link" in
      http://* | https://* | mailto:* | '') continue ;;
    esac
    if [ ! -e "$dir/$link" ] && [ ! -e "$link" ]; then
      echo "docs_check: broken link in $f -> $link" >&2
      fail=1
    fi
  done
done

# ---- 2. README PipelineConfig knobs vs pipeline.h ------------------------
knobs=$(awk '/^\| Knob \| Default \| Meaning \|/ { in_table = 1; next }
             in_table && !/^\|/ { in_table = 0 }
             in_table' README.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p')
if [ -z "$knobs" ]; then
  echo "docs_check: could not find the PipelineConfig knob table in README.md" >&2
  fail=1
fi
pipeline_fields=$(struct_fields PipelineConfig src/core/pipeline.h)
if [ -z "$pipeline_fields" ]; then
  echo "docs_check: could not parse PipelineConfig fields from src/core/pipeline.h" >&2
  fail=1
fi
for knob in $knobs; do
  leaf=${knob##*.}
  if ! grep -q -w "$leaf" src/core/pipeline.h; then
    echo "docs_check: README documents PipelineConfig knob '$knob' but" \
      "'$leaf' does not appear in src/core/pipeline.h" >&2
    fail=1
  fi
  top=${knob%%.*}
  if ! printf '%s\n' "$pipeline_fields" | grep -q "^$top\$"; then
    echo "docs_check: README documents '$knob' but PipelineConfig has no" \
      "field '$top'" >&2
    fail=1
  fi
done
for field in $pipeline_fields; do
  if ! printf '%s\n' "$knobs" | grep -q "^$field\(\..*\)\{0,1\}\$"; then
    echo "docs_check: PipelineConfig field '$field' has no row in" \
      "README.md's knob table" >&2
    fail=1
  fi
done

# ---- 3. README DurableSweepConfig knobs vs durable_sweep.h ---------------
sweep_knobs=$(awk '/^\| Sweep knob \| Default \| Meaning \|/ { in_table = 1; next }
                   in_table && !/^\|/ { in_table = 0 }
                   in_table' README.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p')
if [ -z "$sweep_knobs" ]; then
  echo "docs_check: could not find the DurableSweepConfig knob table in README.md" >&2
  fail=1
fi
sweep_fields=$(struct_fields DurableSweepConfig src/store/durable_sweep.h)
if [ -z "$sweep_fields" ]; then
  echo "docs_check: could not parse DurableSweepConfig fields from src/store/durable_sweep.h" >&2
  fail=1
fi
for knob in $sweep_knobs; do
  if ! printf '%s\n' "$sweep_fields" | grep -q "^$knob\$"; then
    echo "docs_check: README documents DurableSweepConfig knob '$knob' but" \
      "DurableSweepConfig has no such field" >&2
    fail=1
  fi
done
for field in $sweep_fields; do
  if ! printf '%s\n' "$sweep_knobs" | grep -q "^$field\$"; then
    echo "docs_check: DurableSweepConfig field '$field' has no row in" \
      "README.md's sweep-knob table" >&2
    fail=1
  fi
done

# ---- 4. TelemetryConfig fields vs README telemetry.* rows (both ways) ----
telemetry_fields=$(struct_fields TelemetryConfig src/core/pipeline.h)
if [ -z "$telemetry_fields" ]; then
  echo "docs_check: could not parse TelemetryConfig fields from src/core/pipeline.h" >&2
  fail=1
fi
for field in $telemetry_fields; do
  if ! printf '%s\n' "$knobs" | grep -q "^telemetry\.$field\$"; then
    echo "docs_check: TelemetryConfig field '$field' has no" \
      "'telemetry.$field' row in README.md's knob table" >&2
    fail=1
  fi
done
for knob in $knobs; do
  case "$knob" in
    telemetry.*) ;;
    *) continue ;;
  esac
  leaf=${knob##*.}
  if ! printf '%s\n' "$telemetry_fields" | grep -q "^$leaf\$"; then
    echo "docs_check: README documents '$knob' but TelemetryConfig has no" \
      "field '$leaf'" >&2
    fail=1
  fi
done

# ---- 5. OPERATIONS.md endpoint + tuning tables vs source ----------------
endpoints=$(awk '/^\| Endpoint \| Content type \| Meaning \|/ { in_table = 1; next }
                 in_table && !/^\|/ { in_table = 0 }
                 in_table' docs/OPERATIONS.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p')
if [ -z "$endpoints" ]; then
  echo "docs_check: could not find the endpoint table in docs/OPERATIONS.md" >&2
  fail=1
fi
for endpoint in $endpoints; do
  # Placeholder suffixes (<addr>, <hash>) are not part of the registered
  # path; the literal before them is.
  path=${endpoint%%<*}
  if ! grep -qF "\"$path\"" src/serve/*.cpp src/obs/*.cpp \
    examples/landscape_survey.cpp; then
    echo "docs_check: OPERATIONS.md documents endpoint '$endpoint' but" \
      "\"$path\" is not registered anywhere in the serving code" >&2
    fail=1
  fi
done

service_knobs=$(awk '/^\| Service knob \| Where \| Meaning \|/ { in_table = 1; next }
                     in_table && !/^\|/ { in_table = 0 }
                     in_table' docs/OPERATIONS.md |
  sed -n 's/^| `\([^`]*\)` | `\([^`]*\)`.*/\1 \2/p')
if [ -z "$service_knobs" ]; then
  echo "docs_check: could not find the tuning table in docs/OPERATIONS.md" >&2
  fail=1
fi
printf '%s\n' "$service_knobs" | while read -r knob where; do
  [ -n "$knob" ] || continue
  leaf=${knob##*.}
  if [ ! -f "$where" ]; then
    echo "docs_check: OPERATIONS.md tuning row '$knob' points at" \
      "missing file '$where'" >&2
    exit 1
  fi
  if ! grep -q -w "$leaf" "$where"; then
    echo "docs_check: OPERATIONS.md documents tuning knob '$knob' but" \
      "'$leaf' does not appear in $where" >&2
    exit 1
  fi
done || fail=1

# ---- 6. QUERY_API.md field tables vs append_key call sites (both ways) ---
api_fields=$(awk '/^\| Field \| Type \| Meaning \|/ { in_table = 1; next }
                  in_table && !/^\|/ { in_table = 0 }
                  in_table' docs/QUERY_API.md |
  sed -n 's/^| `\([^`]*\)`.*/\1/p' | sort -u)
impl_fields=$(sed -n 's/.*append_key([A-Za-z_][A-Za-z_0-9]*, "\([^"]*\)").*/\1/p' \
  src/serve/*.cpp | sort -u)
if [ -z "$api_fields" ] || [ -z "$impl_fields" ]; then
  echo "docs_check: could not extract /v1 field names (QUERY_API.md tables" \
    "or append_key call sites came up empty)" >&2
  fail=1
fi
for field in $impl_fields; do
  if ! printf '%s\n' "$api_fields" | grep -q "^$field\$"; then
    echo "docs_check: /v1 responses render field '$field' (append_key in" \
      "src/serve) but docs/QUERY_API.md does not document it" >&2
    fail=1
  fi
done
for field in $api_fields; do
  if ! printf '%s\n' "$impl_fields" | grep -q "^$field\$"; then
    echo "docs_check: docs/QUERY_API.md documents field '$field' but no" \
      "append_key call site in src/serve renders it" >&2
    fail=1
  fi
done

# ---- 7. OPERATIONS.md alert series vs registry names in src/ ------------
alert_series=$(awk '/^\| Series \| Alert when \|/ { in_table = 1; next }
                    in_table && !/^\|/ { in_table = 0 }
                    in_table' docs/OPERATIONS.md |
  sed -n 's/^| `\(proxion_[^`]*\)`.*/\1/p')
if [ -z "$alert_series" ]; then
  echo "docs_check: could not find the alert series table in docs/OPERATIONS.md" >&2
  fail=1
fi
registry_names=$(grep -rhoE '"[a-z][a-z0-9_]*(\.[a-z0-9_]+)+"' src \
  --include='*.h' --include='*.cpp' | tr -d '"' | tr '.' '_' | sort -u)
for series in $alert_series; do
  name=${series#proxion_}
  name=${name%_total}
  if ! printf '%s\n' "$registry_names" | grep -qx "$name"; then
    echo "docs_check: OPERATIONS.md alerts on '$series' but no registry" \
      "name under src/ renders it (no dotted literal reads '$name' once" \
      "'.' becomes '_')" >&2
    fail=1
  fi
done

# ---- 8. landscape_survey flags in docs vs the example's parser ----------
shown_flags=$(cat *.md docs/*.md tools/*.sh |
  awk '{ line = line $0 }
       /\\$/ { sub(/\\$/, "", line); next }
       {
         while (match(line, /landscape_survey"? +--/)) {
           line = substr(line, RSTART + length("landscape_survey"))
           command = line
           if (index(command, "`") > 0) {
             command = substr(command, 1, index(command, "`") - 1)
           }
           while (match(command, /--[a-z][a-z0-9-]*/)) {
             print substr(command, RSTART, RLENGTH)
             command = substr(command, RSTART + RLENGTH)
           }
         }
         line = ""
       }' | sort -u)
if [ -z "$shown_flags" ]; then
  echo "docs_check: found no landscape_survey command line in the docs" >&2
  fail=1
fi
for flag in $shown_flags; do
  if ! grep -qF "\"$flag\"" examples/landscape_survey.cpp; then
    echo "docs_check: docs show 'landscape_survey ... $flag' but" \
      "examples/landscape_survey.cpp does not parse \"$flag\"" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs_check: all markdown links resolve;" \
    "all $(echo "$pipeline_fields" | wc -l | tr -d ' ') PipelineConfig and" \
    "$(echo "$sweep_fields" | wc -l | tr -d ' ') DurableSweepConfig fields" \
    "match their README rows;" \
    "all $(echo "$telemetry_fields" | wc -l | tr -d ' ') TelemetryConfig" \
    "fields documented;" \
    "$(echo "$endpoints" | wc -l | tr -d ' ') endpoints and" \
    "$(echo "$service_knobs" | wc -l | tr -d ' ') service knobs wired;" \
    "$(echo "$api_fields" | wc -l | tr -d ' ') /v1 fields in sync;" \
    "$(echo "$alert_series" | wc -l | tr -d ' ') alert series exported;" \
    "$(echo "$shown_flags" | wc -l | tr -d ' ') landscape_survey flags parsed"
fi
exit "$fail"
