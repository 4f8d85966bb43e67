#!/bin/sh
# dpkit lint must (1) flag every seeded violation in lint_corpus/ with
# the expected rule id — exactly one finding per file, eight total; the
# charge- and gate-before-release files come back as flow's F2 — (2)
# honour per-rule exemptions, and (3) report zero findings on the
# repository's own sources.
set -u

DPKIT="$1"

out=$("$DPKIT" lint --format json lint_corpus)
if [ $? -eq 0 ]; then
  echo "FAIL: corpus lint exited 0 (seeded violations not detected)"
  exit 1
fi

for pair in "bad_r1.ml R1" "bad_r2.ml F2" "bad_r3.ml R3" "bad_r4.ml R4" \
            "bad_r5.ml R5" "bad_r6.ml R6" "bad_r7.ml R7" "bad_r8.ml F2"; do
  file=${pair% *}; rule=${pair#* }
  if ! printf '%s\n' "$out" | grep "\"rule\":\"$rule\"" | grep -q "$file"; then
    echo "FAIL: $rule did not fire on $file"
    printf '%s\n' "$out"
    exit 1
  fi
done

# bad_r8 builds a Released model with no convergence gate: F2 must say so
if ! printf '%s\n' "$out" | grep 'bad_r8\.ml' | grep -q 'convergence gate'; then
  echo "FAIL: bad_r8.ml not reported with the gate message"
  printf '%s\n' "$out"
  exit 1
fi

n=$(printf '%s\n' "$out" | grep -c '"rule"')
if [ "$n" -ne 8 ]; then
  echo "FAIL: expected exactly 8 corpus findings, got $n"
  printf '%s\n' "$out"
  exit 1
fi

# A per-rule exemption must suppress exactly that rule's finding.
ex=$(mktemp)
printf 'R7 bad_r7.ml\n' > "$ex"
out2=$("$DPKIT" lint --format json --exempt "$ex" lint_corpus)
rm -f "$ex"
n2=$(printf '%s\n' "$out2" | grep -c '"rule"')
if [ "$n2" -ne 7 ] || printf '%s\n' "$out2" | grep -q '"rule":"R7"'; then
  echo "FAIL: R7 exemption did not suppress exactly the R7 finding"
  printf '%s\n' "$out2"
  exit 1
fi

if ! "$DPKIT" lint --exempt ../lint.exempt ..; then
  echo "FAIL: repository sources have lint findings (see above)"
  exit 1
fi

echo "lint: 8/8 corpus violations flagged (R2/R8 cases as F2), R7 exemptable,"
echo "      repository clean"
