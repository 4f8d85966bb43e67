#!/bin/sh
# dpkit flow must (1) flag every seeded interprocedural violation in
# flow_corpus/ — findings no token rule can see — with a witness path,
# and stay quiet on its clean case, (2) leave every lexical rule of
# `dpkit lint` silent on that same corpus, (3) make `dpkit lint` report
# the lint corpus's charge- and gate-before-release cases as F2, with
# no lexical R2/R8 left, (4) honour rule-range exemptions and the
# checked-in baseline, and (5) report nothing fresh on the
# repository's own sources.
set -u

DPKIT="$1"

# --- 1. the flow corpus: exactly 12 findings, 1×F1 + 6×F2 + 5×F3 ---
out=$("$DPKIT" flow --format json flow_corpus)
if [ $? -eq 0 ]; then
  echo "FAIL: corpus flow exited 0 (seeded violations not detected)"
  exit 1
fi

n=$(printf '%s\n' "$out" | grep -c '"rule"')
f1=$(printf '%s\n' "$out" | grep -c '"rule":"F1"')
f2=$(printf '%s\n' "$out" | grep -c '"rule":"F2"')
f3=$(printf '%s\n' "$out" | grep -c '"rule":"F3"')
if [ "$n" -ne 12 ] || [ "$f1" -ne 1 ] || [ "$f2" -ne 6 ] || [ "$f3" -ne 5 ]; then
  echo "FAIL: expected 12 corpus findings (1 F1, 6 F2, 5 F3), got $n ($f1/$f2/$f3)"
  printf '%s\n' "$out"
  exit 1
fi

for f in launder_main charge_branch fire_helper wrap_helper smuggle_main \
         seed_engine seed_net pay_skip gate_branch try_skip borrow_stream; do
  if ! printf '%s\n' "$out" | grep -q "$f\.ml"; then
    echo "FAIL: no finding reported in $f.ml"
    printf '%s\n' "$out"
    exit 1
  fi
done

# result-aware summaries: a helper that refuses with Error before it
# pays makes its caller's Ok arm charged
if printf '%s\n' "$out" | grep -q '"file":"[^"]*pay_first\.ml"'; then
  echo "FAIL: F2 flagged the Ok arm of a pay-first helper (pay_first.ml)"
  printf '%s\n' "$out"
  exit 1
fi

# the gate obligation: a charged Released with a gate on one branch
if ! printf '%s\n' "$out" | grep 'gate_branch\.ml' | grep -q 'convergence gate'; then
  echo "FAIL: gate_branch.ml not reported with the gate message"
  printf '%s\n' "$out"
  exit 1
fi

# every corpus finding is interprocedural or whole-program: its witness
# must exist, and the cross-module ones must span two files
text=$("$DPKIT" flow flow_corpus)
for w in \
  "launder_helper.ml:7:12 row-tainted born" \
  "fire_main.ml:7:22 call to Fire_helper.fire" \
  "release_main.ml:11:2 call to Wrap_helper.wrap" \
  "smuggle_main.ml:10:27 certify-owned stream born" \
  "seed_net.ml:6:16 seed 0x5EED in net domain" \
  "pay_skip.ml:6:8 call to Pay_helper.pay_or_skip" \
  "pay_helper.ml:19:7 non-Error exit with no charge in Pay_helper.pay_or_skip" \
  "try_skip.ml:7:8 call to Pay_helper.pay_or_raise" \
  "pay_helper.ml:25:20 non-Error exit with no charge in Pay_helper.pay_or_raise" \
  "borrow_stream.ml:8:10 raw state copy in Borrow_stream.shadow_stream" \
  "borrow_stream.ml:12:10 stream field read in Borrow_stream.borrow_stream"; do
  if ! printf '%s\n' "$text" | grep -q "via .*$w"; then
    echo "FAIL: witness step missing: $w"
    printf '%s\n' "$text"
    exit 1
  fi
done

# --- 2. the token rules are blind to all of them ------------------
# plain lint merges flow's F2 findings, so it exits 1 here; no lexical
# R rule may fire
out=$("$DPKIT" lint --format json flow_corpus)
if printf '%s\n' "$out" | grep -q '"rule":"R'; then
  echo "FAIL: a lexical rule flagged flow_corpus — corpus no longer"
  echo "      exercises the interprocedural gap"
  printf '%s\n' "$out"
  exit 1
fi

# --- 3. lint parity over the lexical corpus -------------------------
out=$("$DPKIT" lint --format json lint_corpus)
if [ $? -eq 0 ]; then
  echo "FAIL: lint exited 0 on lint_corpus"
  exit 1
fi
for r in R2 R8 R9; do
  if printf '%s\n' "$out" | grep -q "\"rule\":\"$r\""; then
    echo "FAIL: lint still reports lexical $r"
    printf '%s\n' "$out"
    exit 1
  fi
done
for pair in "bad_r2.ml F2" "bad_r8.ml F2"; do
  file=${pair% *}; rule=${pair#* }
  if ! printf '%s\n' "$out" | grep "\"rule\":\"$rule\"" | grep -q "$file"; then
    echo "FAIL: lint did not report $rule on $file"
    printf '%s\n' "$out"
    exit 1
  fi
done

# --- 4. a rule-range exemption silences the whole family -----------
ex=$(mktemp)
printf 'F1-F3 flow_corpus/\n' > "$ex"
if ! "$DPKIT" flow --exempt "$ex" flow_corpus > /dev/null; then
  rm -f "$ex"
  echo "FAIL: F1-F3 range exemption did not suppress the corpus findings"
  exit 1
fi
rm -f "$ex"

# --- 5. SARIF carries fingerprints and code flows ------------------
sarif=$("$DPKIT" flow --format sarif flow_corpus)
for key in '"partialFingerprints"' '"dpkitFlow/v1"' '"codeFlows"' \
           '"threadFlows"'; do
  if ! printf '%s\n' "$sarif" | grep -qF "$key"; then
    echo "FAIL: SARIF output missing $key"
    exit 1
  fi
done

# --- 6. the repository itself is clean modulo the baseline ---------
# Baseline fingerprints include the finding's path as written, so the
# check must run from the root the baseline was recorded against.
DPKIT_ABS=$(cd "$(dirname "$DPKIT")" && pwd)/$(basename "$DPKIT")
real=$(cd .. && "$DPKIT_ABS" flow --baseline flow.baseline lib)
if [ $? -ne 0 ]; then
  echo "FAIL: repository sources have non-baselined flow findings"
  printf '%s\n' "$real"
  exit 1
fi
case "$real" in
  "0 findings ("*" baselined"*) : ;;
  *)
    echo "FAIL: unexpected flow summary on ../lib: $real"
    exit 1 ;;
esac

echo "flow: 12/12 corpus violations flagged with witnesses, clean case quiet,"
echo "      token rules blind to all, lint reports R2/R8 cases as F2,"
echo "      range exemptions + baseline honoured"
