#!/bin/sh
# Prints the number of non-test Go lines outside bench/: every tracked .go
# file except *_test.go files and the bench/ module. This is the line count
# the project's changes are measured by.
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | xargs cat | wc -l | tr -d ' '
