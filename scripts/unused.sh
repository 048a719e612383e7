#!/bin/sh
# unused.sh lists the exported functions and methods under internal/ whose
# name appears in no non-test .go file of the repository outside its own
# definition, and fails unless scripts/unused.allow names each of them
# with a reason. A name called only from bench/ is pinned by the
# benchmark, which only a benchmark change may touch, so it must be listed
# too. A listed name that has gained a caller (or is gone) also fails, so
# the list cannot go stale. Comments do not count as a use, and the check
# goes by name: a method shares its uses with every method of that name.
#
# Usage: sh scripts/unused.sh   (or: make unused)
set -eu
cd "$(dirname "$0")/.."
# One awk over every file at once: the uses are counted across all of them.
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sort)
# shellcheck disable=SC2086
awk -v allow=scripts/unused.allow '
	FNR == 1 {
		internal = FILENAME ~ /^\.\/internal\//
		bench = FILENAME ~ /^\.\/bench\//
		n = split(FILENAME, p, "/"); pkg = p[n-1]
	}
	{
		line = $0
		sub(/\/\/.*/, "", line)
		if (internal && match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]/)) {
			name = substr(line, 6, RLENGTH - 6)
			owner = pkg
			if (name ~ /^\(/) {
				owner = substr(name, 2, index(name, ")") - 2)
				sub(/^.* /, "", owner); sub(/^\*/, "", owner); sub(/\[.*/, "", owner)
				name = substr(name, index(name, ")") + 2)
			}
			defs[name]++
			keys[name] = keys[name] " " owner "." name
			where[owner "." name] = FILENAME ":" FNR
		}
		gsub(/[^A-Za-z0-9_]+/, " ", line)
		m = split(line, tok, " ")
		for (i = 1; i <= m; i++) {
			uses[tok[i]]++
			if (!bench) outside[tok[i]]++
		}
	}
	END {
		while ((getline l < allow) > 0) {
			if (l ~ /^[ \t]*(#|$)/) continue
			split(l, f, " ")
			if (l !~ /^[^ \t]+[ \t]+[^ \t]/) { print allow ": no reason given for " f[1]; bad = 1 }
			listed[f[1]] = 1
		}
		for (name in defs) {
			if (outside[name] > defs[name]) continue
			why = uses[name] > defs[name] ? "is called only from bench/" : "has no caller outside tests"
			split(substr(keys[name], 2), ks, " ")
			for (i in ks) {
				k = ks[i]
				found[k] = 1
				if (!(k in listed)) { print where[k] ": " k " " why; bad = 1 }
			}
		}
		for (k in listed)
			if (!(k in found)) { print allow ": " k " is listed but has a caller outside bench/ (or is gone)"; bad = 1 }
		exit bad
	}' $files
