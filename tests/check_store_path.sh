#!/bin/sh
# End-to-end check of trace_inspect's write and streaming read paths on a
# golden store: it decompresses to a v1 trace that compresses back to the
# same bytes; a small-block copy replays event for event, diffs identical
# to both and yields the same time series as the v1 file; a copy with one
# corrupted block makes diff fail with exit 2, never a verdict.
#
#   check_store_path.sh <trace_inspect> <golden store> <scratch dir>
set -eu
tool=$1
golden=$2
trace=$3/store_path.trace
roundtrip=$3/store_path_roundtrip.ancs
store=$3/store_path.ancs
bad=$3/store_path_bad.ancs

"$tool" decompress "$golden" "$trace"
"$tool" compress "$trace" "$roundtrip"
cmp "$roundtrip" "$golden"

"$tool" compress "$trace" "$store" --block-events=256
"$tool" replay "$store"
"$tool" diff "$store" "$trace"
"$tool" diff "$store" "$golden"
"$tool" timeseries "$trace" --run=1 > "$store.v1.csv"
"$tool" timeseries "$store" --run=1 > "$store.csv"
cmp "$store.v1.csv" "$store.csv"

# Change one byte in the middle of the data region (inside a block).
cp "$store" "$bad"
offset=$(($(wc -c < "$bad") / 2))
byte=$(od -An -tu1 -j "$offset" -N1 "$bad" | tr -d ' ')
printf "\\$(printf %o $(((byte + 1) % 256)))" |
  dd of="$bad" bs=1 seek="$offset" conv=notrunc 2> /dev/null
rc=0
"$tool" diff "$trace" "$bad" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "diff against a corrupted store exited $rc, want 2" >&2
  exit 1
fi
