#!/usr/bin/env bash
# Replay every CLI golden in tests/golden through a diagvf command, from the
# root of the source tree:
#
#   bash tests/replay_goldens.sh diagvf
#   PYTHONPATH=src bash tests/replay_goldens.sh python -m diagvf.cli
#
# Each report must match its golden byte for byte and each command must exit
# with the golden's code; the script stops at the first that does not.
set -euo pipefail

diagvf=("$@")
golden=tests/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
count=0

for name in e1 p2 e1_n8 q4 q4_wide c2 q4_tight q4_decimal float_chain \
    mixed_within_tol irrational4; do
  "${diagvf[@]}" characterize - --json < "$golden/$name.config.json" \
    | diff - "$golden/$name.characterize.json"
  count=$((count + 1))
done

for name in cubic_rest triple double_irrational; do
  "${diagvf[@]}" roots - --json < "$golden/$name.config.json" \
    | diff - "$golden/$name.roots.json"
  count=$((count + 1))
done

# the exact root structure does not depend on --tol
for tol in 1e-8 1e-12; do
  echo '{"quartic": ["4", "0", "-4", "0", "1"]}' \
    | "${diagvf[@]}" roots - --json --tol "$tol" \
    | diff - "$golden/sqrt2_double.roots.json"
  count=$((count + 1))
done

for name in e1_n8 q6 q4 e1_n8_decimal; do
  "${diagvf[@]}" tilt - --json < "$golden/$name.config.json" \
    | diff - "$golden/$name.tilt.json"
  count=$((count + 1))
done

# name:exit code:depth; a series with a negative coefficient exits 1
for case in readme:1:8 exact3:0:8 frac24:1:24 decimal16:1:16 merge4:1:8; do
  IFS=: read -r name want depth <<< "$case"
  code=0
  "${diagvf[@]}" expand - --json --depth "$depth" < "$golden/$name.config.json" \
    > "$out/$name.expand.json" || code=$?
  test "$code" -eq "$want"
  diff "$out/$name.expand.json" "$golden/$name.expand.json"
  count=$((count + 1))
done

# name:exit code; a mixed-sign kernel vector exits 1
for case in dim0:0 dim1:1 dim2:1 dim3:1 onesign:0 beyond:0; do
  IFS=: read -r name want <<< "$case"
  code=0
  "${diagvf[@]}" lattice - --json < "$golden/lattice_$name.config.json" \
    > "$out/lattice_$name.json" || code=$?
  test "$code" -eq "$want"
  diff "$out/lattice_$name.json" "$golden/lattice_$name.lattice.json"
  count=$((count + 1))
done

for name in scan_mixture scan_osc scan_poly scan_signed; do
  "${diagvf[@]}" scan - --json < "$golden/$name.config.json" \
    | diff - "$golden/$name.scan.json"
  count=$((count + 1))
done

echo "replayed $count goldens: all match"
