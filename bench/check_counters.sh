#!/bin/sh
# Gate one perfbench result against the counters pinned in
# bench/perf_counters.jsonl:
#
#   sh perfbench/run.sh --workload seap-closed --seconds 1 --trace 0 | tail -1 > r.json
#   sh bench/check_counters.sh seap-closed r.json
#
# An end-to-end result (--trace 0): messages_per_op, bits_per_op, both
# latencies and ops_per_round must equal the pinned values exactly;
# minor_words_per_op may be at most 2% above its pin.
#
# A per-layer result (--trace 1): every counter in the workload's "layers"
# pin must equal the result exactly; a workload without that pin fails.
#
# Pins are for the default seed (3).  Needs jq.  Prints one line per
# metric and exits nonzero if any of them is off.
set -e
if [ $# -ne 2 ]; then
  echo "usage: sh bench/check_counters.sh WORKLOAD RESULT_FILE" >&2
  exit 2
fi
pins="$(dirname "$0")/perf_counters.jsonl"
jq -r -e --arg w "$1" --slurpfile pins "$pins" '
  ([$pins[] | select(.workload == $w)] | first) as $p
  | if $p == null then error("no pinned counters for workload \($w)") else . end
  | .metrics as $m
  | if ($m | has("messages_per_op")) then
      [ ("messages_per_op", "bits_per_op", "latency_p50_rounds", "latency_p99_rounds",
         "ops_per_round")
        | { name: ., got: $m[.].value, want: $p[.], ok: ($m[.].value == $p[.]) } ]
      + [ { name: "minor_words_per_op", got: $m.minor_words_per_op.value,
            want: $p.minor_words_per_op,
            ok: ($m.minor_words_per_op.value <= $p.minor_words_per_op * 1.02) } ]
    elif $p.layers == null then error("no pinned per-layer counters for workload \($w)")
    else
      [ $p.layers | to_entries[]
        | { name: .key, got: $m[.key].value, want: .value, ok: ($m[.key].value == .value) } ]
    end
  | (.[] | "\(if .ok then "ok  " else "FAIL" end) \(.name): \(.got) (pinned \(.want))"),
    (if all(.ok) then empty else error("\($w): counters moved") end)
' "$2"
