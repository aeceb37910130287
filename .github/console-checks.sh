#!/usr/bin/env bash
# The console-script checks: run the installed `hardyrp` on small inputs and
# check outputs and exit codes.  Writes its files to $RUNNER_TEMP.
#
#     RUNNER_TEMP=$(mktemp -d) bash .github/console-checks.sh
set -eo pipefail
: "${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}"

# expect_exit N cmd...: run cmd, and fail the step unless it exits N
expect_exit() {
  want=$1
  shift
  rc=0
  "$@" || rc=$?
  if [ "$rc" != "$want" ]; then
    echo "$* exited $rc, expected $want"
    exit 1
  fi
}
printf '{"atoms": [[1.0, 1.0]], "density": [{"interval": [0.5, 2.0], "expr": "1"}]}' > "$RUNNER_TEMP/measure.json"
hardyrp psi --measure "$RUNNER_TEMP/measure.json" --points 0.5,1,3
hardyrp outer-eval --measure "$RUNNER_TEMP/measure.json" --points 2j,1+1j,-0.5+0.01j
hardyrp symbol --measure "$RUNNER_TEMP/measure.json" --points=-2,0.5,1,3
hardyrp certify-psd --measure "$RUNNER_TEMP/measure.json"
hardyrp rp-certify --measure "$RUNNER_TEMP/measure.json"
hardyrp os-check --measure "$RUNNER_TEMP/measure.json"
hardyrp fixed-point --measure "$RUNNER_TEMP/measure.json"
hardyrp hankel-gram --measure "$RUNNER_TEMP/measure.json"
hardyrp symbol-from-measure --measure "$RUNNER_TEMP/measure.json" --points 0.5,1,3
hardyrp kernel-demo
expect_exit 2 hardyrp kernel-demo --p=inf
# the doubles theta of x = tan(theta) cannot resolve its resonance
expect_exit 3 hardyrp kernel-demo --p=1e8
compact=$(hardyrp compactness --measure "$RUNNER_TEMP/measure.json")
if [ "$compact" != '{"compact": true}' ]; then
  echo "hardyrp compactness printed $compact, expected {\"compact\": true}"
  exit 1
fi
printf '{"atoms": [[1.0, 1.0], [2.0, 1.0]]}' > "$RUNNER_TEMP/atoms.json"
hardyrp os-check --measure "$RUNNER_TEMP/atoms.json"
hardyrp symbol --measure "$RUNNER_TEMP/atoms.json" --points=-2,0.5,1,3
hardyrp outer-eval --measure "$RUNNER_TEMP/atoms.json" --points 2j,1+1j,-0.5+0.01j
fixed=$(hardyrp fixed-point --measure "$RUNNER_TEMP/atoms.json")
python -c 'import json, sys; d = json.loads(sys.argv[1])["deviation"]; sys.exit(0 if d <= 1e-10 else f"fixed-point on atoms: deviation {d} > 1e-10")' "$fixed"
printf '{"atoms": [[0.001, 1.0], [1.0, 1.0], [1000.0, 1.0]]}' > "$RUNNER_TEMP/wide.json"
for command in os-check fixed-point; do
  out=$(hardyrp "$command" --measure "$RUNNER_TEMP/wide.json")
  python -c 'import json, sys; d = json.loads(sys.argv[2])["deviation"]; sys.exit(0 if d <= 1e-12 else f"{sys.argv[1]} on wide atoms: deviation {d} > 1e-12")' "$command" "$out"
done
printf '{"atoms": [[2.0, 0.5]], "density": [{"interval": [1e-12, "inf"], "expr": "exp(-lam)"}]}' > "$RUNNER_TEMP/expo.json"
for command in fixed-point os-check; do
  out=$(hardyrp "$command" --measure "$RUNNER_TEMP/expo.json")
  python -c 'import json, sys; d = json.loads(sys.argv[2])["deviation"]; sys.exit(0 if d <= 1e-9 else f"{sys.argv[1]} on expo: deviation {d} > 1e-9")' "$command" "$out"
done
printf '{"density": [{"interval": [1e-12, "inf"], "expr": "2/(1+lam**2)"}]}' > "$RUNNER_TEMP/lebesgue.json"
hardyrp psi --measure "$RUNNER_TEMP/lebesgue.json" --points 1e-10,1,1e100 --out "$RUNNER_TEMP/lebesgue.csv"
python -c 'import csv, math, sys; rows = list(csv.DictReader(open(sys.argv[1]))); err = max(abs(float(r["psi"]) / (2 / (math.pi * float(r["p"])) * math.atan(float(r["p"]) / 1e-12)) - 1) for r in rows); sys.exit(0 if len(rows) == 3 and err <= 1e-12 else f"psi on the Lebesgue-Cauchy measure: relative error {err} > 1e-12 against (2/(pi p)) arctan(p/1e-12)")' "$RUNNER_TEMP/lebesgue.csv"
expect_exit 2 hardyrp certify-psd --measure "$RUNNER_TEMP/atoms.json" --anchors inf+1j,2j
for args in "outer-eval --points 0j" "outer-eval --points 1+infj" "fixed-point --anchors ,"; do
  expect_exit 2 hardyrp $args --measure "$RUNNER_TEMP/atoms.json"
done
expect_exit 2 hardyrp symbol --measure "$RUNNER_TEMP/atoms.json" --points nan
expect_exit 2 hardyrp rp-certify --measure "$RUNNER_TEMP/measure.json" --times 0,nan
# a log window that leaves the doubles, or reaches a p where psi_big
# underflows to 0, is a numerical failure
for args in "outer-eval --points 1e-310j" "symbol --points 1e-310" "outer-eval --points 1e300j" "symbol --points 1e300" "outer-eval --points 1e140j" "symbol --points 1e140"; do
  expect_exit 3 hardyrp $args --measure "$RUNNER_TEMP/measure.json"
done
# p^2 that underflows or overflows gives a limit, without a warning
for args in "psi --points 1e-200" "psi --points 1e200" "symbol --points 1e300"; do
  expect_exit 0 hardyrp $args --measure "$RUNNER_TEMP/atoms.json" 2> "$RUNNER_TEMP/stderr"
  if [ -s "$RUNNER_TEMP/stderr" ]; then
    echo "hardyrp $args on atoms wrote to stderr:"
    cat "$RUNNER_TEMP/stderr"
    exit 1
  fi
done
# atoms whose rational form leaves the doubles: no root, or w (1 + l^2)
# overflows; a numerical failure, without a warning
printf '{"atoms": [[1, 1], [1e40, 1]]}' > "$RUNNER_TEMP/faratom.json"
printf '{"atoms": [[1e-200, 1], [1, 1], [1e200, 1]]}' > "$RUNNER_TEMP/wideatoms.json"
for args in "outer-eval --points 1j --measure $RUNNER_TEMP/faratom.json" "symbol --points 1,2 --measure $RUNNER_TEMP/wideatoms.json"; do
  expect_exit 3 hardyrp $args 2> "$RUNNER_TEMP/stderr"
  if grep -q RuntimeWarning "$RUNNER_TEMP/stderr"; then
    echo "hardyrp $args warned:"
    cat "$RUNNER_TEMP/stderr"
    exit 1
  fi
done
printf '{"dim": 2, "C": [[[1, 0], [1, 0]], [[1, 0], [0, 0]]], "D": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "poles": []}' > "$RUNNER_TEMP/pick.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/pick.json" --method both)
expected='{"rank": 1, "winding": 1, "winding_pole_count": 1, "regular": true}'
if [ "$degree" != "$expected" ]; then
  echo "hardyrp degree printed $degree, expected $expected"
  exit 1
fi
printf '{"dim": 2, "C": [[[0, 0], [0.1, 0]], [[0.1, 0], [0, 0]]], "D": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "poles": []}' > "$RUNNER_TEMP/coupled.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/coupled.json" --method both)
if [ "$degree" != "$expected" ]; then
  echo "hardyrp degree on the b = 0.1 coupled example printed $degree, expected $expected"
  exit 1
fi
printf '{"dim": 3, "C": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [1, 0]], [[0, 0], [1, 0], [0, 0]]], "D": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]], "poles": [{"lambda": 1.0, "A": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}]}' > "$RUNNER_TEMP/three.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/three.json" --method both)
expected3='{"rank": 3, "winding": 3, "winding_pole_count": 3, "regular": true}'
if [ "$degree" != "$expected3" ]; then
  echo "hardyrp degree on the 3x3 example printed $degree, expected $expected3"
  exit 1
fi
hardyrp plot-eigencurves --pick "$RUNNER_TEMP/pick.json" --out "$RUNNER_TEMP/curves.svg"
printf '{"dim": 1, "C": [[[1, 0]]], "D": [[[1, 0]]], "poles": []}' > "$RUNNER_TEMP/plus1.json"
printf '{"dim": 1, "C": [[[-1, 0]]], "D": [[[1, 0]]], "poles": []}' > "$RUNNER_TEMP/minus1.json"
hardyrp compose --f "$RUNNER_TEMP/minus1.json" --F "$RUNNER_TEMP/pick.json" --g "$RUNNER_TEMP/plus1.json" --out "$RUNNER_TEMP/composed.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/composed.json" --method both)
if [ "$degree" != "$expected" ]; then
  echo "hardyrp degree on the composition printed $degree, expected $expected"
  exit 1
fi
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 0.0, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/minusinv.json"
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[1, 0]]], "poles": []}' > "$RUNNER_TEMP/identity.json"
printf '{"dim": 1, "C": [[[1, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 0.0, "A": [[[1, 0]]]}, {"lambda": 1e9, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/farpole.json"
hardyrp compose --f "$RUNNER_TEMP/minusinv.json" --F "$RUNNER_TEMP/farpole.json" --g "$RUNNER_TEMP/identity.json" --out "$RUNNER_TEMP/farcomposed.json"
python -c 'import json, sys; c = json.load(open(sys.argv[1]))["C"][0][0][0]; sys.exit(0 if abs(c + 1) <= 1e-9 else f"-1/z o (1 + 1/(0 - z) + 1/(1e9 - z)) has C = {c}, expected -1")' "$RUNNER_TEMP/farcomposed.json"
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 1e-10, "A": [[[1, 0]]]}, {"lambda": 1.0, "A": [[[2, 0]]]}, {"lambda": 1e10, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/spread.json"
hardyrp compose --f "$RUNNER_TEMP/minusinv.json" --F "$RUNNER_TEMP/spread.json" --g "$RUNNER_TEMP/identity.json" --out "$RUNNER_TEMP/spreadcomposed.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/spreadcomposed.json" --method rank)
if [ "$degree" != '{"rank": 3, "regular": true}' ]; then
  echo "hardyrp degree on -1/z o (poles at 1e-10, 1, 1e10) printed $degree, expected {\"rank\": 3, \"regular\": true}"
  exit 1
fi
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 1e-6, "A": [[[1, 0]]]}, {"lambda": 2e-6, "A": [[[1, 0]]]}, {"lambda": 1e10, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/tinypoles.json"
hardyrp compose --f "$RUNNER_TEMP/identity.json" --F "$RUNNER_TEMP/tinypoles.json" --g "$RUNNER_TEMP/identity.json" --out "$RUNNER_TEMP/tinycomposed.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/tinycomposed.json" --method rank)
if [ "$degree" != '{"rank": 3, "regular": true}' ]; then
  echo "hardyrp degree on z o (poles at 1e-6, 2e-6, 1e10) o z printed $degree, expected {\"rank\": 3, \"regular\": true}"
  exit 1
fi
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 0.0, "A": [[[1, 0]]]}, {"lambda": 0.001, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/twopoles.json"
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[1, 0]]], "poles": [{"lambda": 1e10, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/lawbreak.json"
# two poles round to one double, and the degree breaks deg f deg F deg g
expect_exit 3 hardyrp compose --f "$RUNNER_TEMP/twopoles.json" --F "$RUNNER_TEMP/lawbreak.json" --g "$RUNNER_TEMP/identity.json"
printf '{"dim": 1, "C": [[[0.3, 0]]], "D": [[[1, 0]]], "poles": [{"lambda": NaN, "A": [[[1, 0]]]}]}' > "$RUNNER_TEMP/nanpole.json"
expect_exit 2 hardyrp degree --pick "$RUNNER_TEMP/nanpole.json" --method rank
printf '{"atom0": NaN, "atoms": [[1.0, 1.0]]}' > "$RUNNER_TEMP/nanatom.json"
expect_exit 2 hardyrp psi --measure "$RUNNER_TEMP/nanatom.json" --points 1
printf '{"density": [{"interval": [0.5, 2.0], "expr": "-1"}]}' > "$RUNNER_TEMP/negexpr.json"
printf '{"density": [{"interval": [0.5, 2.0], "kind": "table", "samples": [[1.0, -5]]}]}' > "$RUNNER_TEMP/negtable.json"
for input in negexpr negtable; do
  expect_exit 2 hardyrp psi --measure "$RUNNER_TEMP/$input.json" --points 1
done
printf '{"dim": 1e400, "C": [[[1, 0]]], "D": [[[0, 0]]], "poles": []}' > "$RUNNER_TEMP/hugedim.json"
expect_exit 2 hardyrp degree --pick "$RUNNER_TEMP/hugedim.json" --method rank
printf '{"dim": 1, "C": [[[100000.0, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 0.0, "A": [[[1e-9, 0]]]}]}' > "$RUNNER_TEMP/tiny.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/tiny.json" --method rank)
if [ "$degree" != '{"rank": 1, "regular": true}' ]; then
  echo "hardyrp degree on 1e5 + 1e-9/(0 - z) printed $degree, expected {\"rank\": 1, \"regular\": true}"
  exit 1
fi
printf '{"dim": 3, "C": [[[3.7280531654808713, 0.0], [-3.3842944105554547, 0.0], [0.812854730673824, 0.0]], [[-3.3842944105554547, 0.0], [8.980465292534666, 0.0], [12.914218511381684, 0.0]], [[0.812854730673824, 0.0], [12.914218511381684, 0.0], [4.720405208328597, 0.0]]], "D": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]], "poles": [{"lambda": -1.6755848857619835, "A": [[[5.830811084183931e-15, -1.6173258789275057e-32], [-1.997700055079417e-15, -1.0913286040799295e-14], [-4.8583413163395495e-15, -3.839737677679138e-15]], [[-1.997700055079417e-15, 1.0913286040799295e-14], [2.1110376573895907e-14, 4.089898204884508e-31], [8.851198155499176e-15, -7.777618524096606e-15]], [[-4.8583413163395495e-15, 3.839737677679138e-15], [8.851198155499176e-15, 7.777618524096604e-15], [6.57662634336706e-15, 1.1523871108506798e-31]]]}]}' > "$RUNNER_TEMP/tinyresidue.json"
# the winding counts of a 3.4e-14 residue miss its one mirror root
expect_exit 3 hardyrp degree --pick "$RUNNER_TEMP/tinyresidue.json" --method winding
printf '{"dim": 1, "C": [[[-100, 0]]], "D": [[[0.001, 0]]], "poles": []}' > "$RUNNER_TEMP/farlinear.json"
degree=$(hardyrp degree --pick "$RUNNER_TEMP/farlinear.json" --method both)
if [ "$degree" != "$expected" ]; then
  echo "hardyrp degree on -100 + 0.001 z printed $degree, expected $expected"
  exit 1
fi
printf '{"dim": 1, "C": [[[0, 0]]], "D": [[[0, 0]]], "poles": [{"lambda": 0.0, "A": [[[-1e-11, 0]]]}]}' > "$RUNNER_TEMP/negresidue.json"
expect_exit 2 hardyrp degree --pick "$RUNNER_TEMP/negresidue.json" --method rank
