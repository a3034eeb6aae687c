#!/bin/sh
# End-to-end tour of the ridgekit command-line interface.
# Each subcommand prints a JSON run report to stdout.
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# --- cycles: the unit square carries a cycle for the coordinate maps ---
cat > "$work/square.csv" <<EOF
0,0
0,1
1,0
1,1
EOF
cat > "$work/dirs2.csv" <<EOF
1,0
0,1
EOF
ridgekit cycles check --points "$work/square.csv" \
    --directions "$work/dirs2.csv" --minimal

# --- cycles: values interpolated exactly on a staircase, its coordinates
# written as fractions, decimals and exponents ---
cat > "$work/stairs.csv" <<EOF
0,0
1/2,0
5e-1,3/4
1.25,0.75
1.25E0,2
EOF
cat > "$work/stairs-f.csv" <<EOF
1
-0.5
2/3
1e1
-7/4
EOF
ridgekit cycles check --points "$work/stairs.csv" \
    --directions "$work/dirs2.csv" --solve "$work/stairs-f.csv"

# --- uniform approximation of xy on the unit square ---
ridgekit approx uniform --expr "x1*x2" --dirs 1 0 0 1 \
    --bounds 0 1 0 1 --verify

# --- L2 approximation in 4-D along three integer directions ---
cat > "$work/dirs4.csv" <<EOF
1,1,1,-1
1,1,-1,1
1,-1,1,1
EOF
cat > "$work/completion.csv" <<EOF
-1,1,1,1
EOF
cat > "$work/ybox.json" <<EOF
[[0,1],[0,1],[0,1],[0,1]]
EOF
ridgekit approx l2 \
  --expr "8*x1*x2*x3*x4 - (x1^4+x2^4+x3^4+x4^4) + 2*(x1^2*x2^2+x1^2*x3^2+x1^2*x4^2+x2^2*x3^2+x2^2*x4^2+x3^2*x4^2)" \
  --dirs-file "$work/dirs4.csv" --completion-file "$work/completion.csv" \
  --ybox "$work/ybox.json"

# --- bolts on an L-shaped hexagon ---
cat > "$work/hex.json" <<EOF
{"a": [0, 1, 2], "b": [0, 1, 2]}
EOF
ridgekit bolts hexagon --expr "x1*x2" --geom "$work/hex.json" --bounds

# --- smooth decomposition of a three-term ridge sum ---
cat > "$work/dirs3.csv" <<EOF
1,0
0,1
1,1
EOF
ridgekit smooth decompose \
  --expr "sin(x1) + x2^3 + exp(0.5*(x1+x2))" \
  --dirs "$work/dirs3.csv" --box -1 1 -1 1 --crosscheck
# log(x1) is undefined left of this box: every sample stays inside it
ridgekit smooth decompose \
  --expr "log(x1) + x2^3 + exp(0.5*(x1+x2))" \
  --dirs "$work/dirs3.csv" --box 0.25 1.25 0.25 1.25 --crosscheck

# --- sigmoid: pointwise values, a table, and a network fit ---
ridgekit sigmoid eval --d 2 --lambda 0.25 --x 0 2 6 19.6
# a transition 7.6e-4 wide, and a segment index beyond 64 bits
ridgekit sigmoid eval --d 0.5 --lambda 0.4 --x 158868.00011918705
ridgekit sigmoid eval --d 1 --lambda 0.25 --x 1e20
ridgekit sigmoid table --d 2 --lambda 0.25 --from 0 --to 2 --step 0.4
ridgekit sigmoid fit --expr "x1^3 + x1^2 - 5*x1 + 3" --interval -1 1 --eps 0.01
