#!/bin/sh
# Golden outputs of the cqlopt CLI: eval and rewrite on every example
# program, in both constraint domains, each run's standard output followed
# by its exit status.  A program's EDB is the _edb.cql file next to it.
#
#   sh cli_golden.sh CQLOPT EXAMPLES_DIR > cli_golden.out
#
# dune runtest diffs the result against cli_golden.expected; after an
# intended change of output, dune promote updates that file.

cqlopt=$1
dir=$2
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
    for mode in "" --naive --stratified --explain; do
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
done
