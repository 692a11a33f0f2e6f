#!/bin/sh
# Golden outputs of the cqlopt CLI: eval and rewrite on every example
# program, in both constraint domains, and analyze at two iteration
# budgets, each run's standard output followed by its exit status.  A
# program's EDB is the _edb.cql file next to it.  One scripted cqlrepl
# session follows, then a seed-42 fuzz run in each generator mode.
#
#   sh cli_golden.sh CQLOPT EXAMPLES_DIR CQLREPL > cli_golden.out
#
# dune runtest diffs the result against cli_golden.expected; after an
# intended change of output, dune promote updates that file.

cqlopt=$1
dir=$2
cqlrepl=$3
export LC_ALL=C

for prog in "$dir"/*.cql; do
  case $prog in *_edb.cql) continue ;; esac
  name=$(basename "$prog")
  edb=
  edb_note=
  if [ -f "${prog%.cql}_edb.cql" ]; then
    edb="--edb=${prog%.cql}_edb.cql"
    edb_note=" --edb $(basename "${prog%.cql}_edb.cql")"
  fi
  for domain in rat int; do
    for mode in "" --trace --explain; do
      echo "### eval $name$edb_note --domain $domain${mode:+ $mode}"
      "$cqlopt" eval "$prog" $edb --domain "$domain" $mode \
        --max-derivations 5000 --max-iterations 50 2>/dev/null
      echo "### exit $?"
    done
    for mode in "" --optimal --steps=pred,qrp,mg; do
      echo "### rewrite $name --domain $domain${mode:+ $mode}"
      "$cqlopt" rewrite "$prog" --domain "$domain" $mode --max-iters 10 2>/dev/null
      echo "### exit $?"
    done
  done
  # the pred and QRP fixpoints at the default budget, and at a budget of 3
  # that cuts some of them short (their fallback to true)
  for iters in "" 3; do
    echo "### analyze $name${iters:+ --max-iters $iters}"
    "$cqlopt" analyze "$prog" ${iters:+--max-iters $iters} 2>/dev/null
    echo "### exit $?"
  done
done

# the flights program with its EDB loaded as clauses: derivation trees on,
# then off, and a query its iteration budget cuts short
echo "### cqlrepl flights.cql flights_edb.cql"
printf '%s\n' ":load $dir/flights.cql" ":load $dir/flights_edb.cql" ":explain" \
  "?- cheaporshort(madison, D, T, C)." ":explain" \
  "?- flight(S, boston, T, C), T <= 200." ":iterations 3" \
  "?- cheaporshort(S, D, T, C)." ":quit" | "$cqlrepl" 2>/dev/null
echo "### exit $?"

# the differential fuzzer in every mode: its summary line pins the case,
# check, skip and truncation counts of a 200-case run
for mode in decidable linear int update; do
  echo "### fuzz --mode $mode --seed 42 --count 200"
  "$cqlopt" fuzz --mode "$mode" --seed 42 --count 200 2>/dev/null
  echo "### exit $?"
done
