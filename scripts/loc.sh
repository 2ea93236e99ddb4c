#!/bin/sh
# Prints the number of non-test Go lines outside bench/: every tracked .go
# file except *_test.go files and the bench/ module. This is the line count
# the project's changes are measured by. Given a revision, it also prints
# the change on that revision's count:
#
#	scripts/loc.sh            19011
#	scripts/loc.sh 9090b5a    19011 (-144 on 9090b5a)
set -eu
cd "$(dirname "$0")/.."

# counted keeps the counted paths of a list of tracked files.
counted() { grep '\.go$' | grep -v '_test\.go$' | grep -v '^bench/' || true; }

now=$(git ls-files | counted | xargs cat | wc -l | tr -d ' ')
if [ $# -eq 0 ]; then
	echo "$now"
	exit 0
fi
rev=$(git rev-parse --short "$1^{commit}")
was=$(git ls-tree -r --name-only "$rev" | counted | xargs git archive "$rev" | tar -xOf - | wc -l | tr -d ' ')
printf '%s (%+d on %s)\n' "$now" "$((now - was))" "$rev"
