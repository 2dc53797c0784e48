#!/bin/sh
# Smoke test for the examples that drive host inference end to end:
# quickstart's simulated layer must be bit-exact vs the fixed-point
# reference, and mlp_on_tie's 16-bit accelerator accuracy must equal
# the trained float model's.
#
#   $1 = quickstart binary
#   $2 = mlp_on_tie binary
set -e
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$1" > "$DIR/quickstart.txt"
if ! grep -q "bit-exact vs the fixed-point reference" \
    "$DIR/quickstart.txt"; then
    echo "quickstart: simulation is not bit-exact" >&2
    cat "$DIR/quickstart.txt" >&2
    exit 1
fi

"$2" > "$DIR/mlp.txt"
acc() { sed -n "s/^$1 *| *\([0-9.]*\) %.*/\1/p" "$DIR/mlp.txt"; }
float="$(acc 'float accuracy')"
fxp="$(acc '16-bit TIE accuracy')"
if [ -z "$float" ] || [ "$float" != "$fxp" ]; then
    echo "mlp_on_tie: float accuracy '$float' != 16-bit '$fxp'" >&2
    cat "$DIR/mlp.txt" >&2
    exit 1
fi
echo "examples_smoke: ok (mlp accuracy $float %)"
