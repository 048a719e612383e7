#!/bin/sh
# unused.sh makes two checks over internal/ and fails unless
# scripts/unused.allow names, with a reason, everything either one finds:
#
#   - an exported function or method whose name appears in no non-test
#     .go file of the repository outside its own definition;
#   - an exported field of a *Config struct that no non-test file outside
#     the declaring package sets, as `Field:` in a composite
#     literal or as `.Field =`. A knob nobody turns is a constant.
#
# and fails outright, with no list to excuse it, on a third:
#
#   - a difane_* series registered in non-test Go that nothing reads. A
#     registration is the name as a call's first argument, followed by a
#     comma (`RegisterFunc("difane_x", ...`, `counter("difane_x", ...`); a
#     read is any other string literal, in any .go file (tests and bench/
#     included), that starts with the name: the name itself, a scraped line
#     `difane_x 1` or `difane_x{switch="1"} 2`. A registration in a test
#     (a synthetic registry) reads nothing, nor does a comment or a help
#     string that mentions the name in passing.
#
# A name used (or set) only from bench/ is pinned by the benchmark, which
# only a benchmark change may touch, so it must be listed too. A listed
# name that has gained a caller or a setter (or is gone) also fails, so
# the list cannot go stale. Comments do not count as a use, string
# literals do not count as a set, and both checks go by name: a method
# shares its uses with every method of that name, and a field its setters
# with every field of that name.
#
# Usage: sh scripts/unused.sh   (or: make unused)
set -eu
cd "$(dirname "$0")/.."
# One awk over every file at once: the uses are counted across all of them.
files=$(find . -name '*.go' ! -path './.git/*' | sort)
# shellcheck disable=SC2086
awk -v allow=scripts/unused.allow '
	FNR == 1 {
		test = FILENAME ~ /_test\.go$/
		internal = FILENAME ~ /^\.\/internal\//
		bench = FILENAME ~ /^\.\/bench\//
		n = split(FILENAME, p, "/"); pkg = p[n-1]
		dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
		config = ""
	}
	{
		# Series: the string literals before any line comment.
		s = $0
		while (match(s, /"([^"\\]|\\.)*"|`[^`]*`|\x27([^\x27\\]|\\.)*\x27|\/\//)) {
			lit = substr(s, RSTART + 1, RLENGTH - 2)
			if (substr(s, RSTART, 2) == "//") break
			pre = substr(s, 1, RSTART - 1)
			s = substr(s, RSTART + RLENGTH)
			if (lit !~ /^difane_[a-z0-9_]+([ {]|$)/) continue
			name = lit
			sub(/[ {].*$/, "", name)
			if (lit == name && pre ~ /\($/ && s ~ /^,/) {
				if (!test) { series[name] = FILENAME ":" FNR }
				continue
			}
			reads[name]++
		}
		if (test) next

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

		# Config fields: one-tab lines of a *Config struct.
		if (config != "" && line ~ /^}/) config = ""
		if (config != "" && match(line, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)* +[^ ]/)) {
			names = substr(line, 2, RLENGTH - 2)
			sub(/ +$/, "", names)
			k = split(names, fs, /, */)
			for (i = 1; i <= k; i++) {
				nf++
				fkey[nf] = config "." fs[i]; fname[nf] = fs[i]; fdir[nf] = dir
				fwhere[nf] = FILENAME ":" FNR
			}
		}
		if (internal && match(line, /^type ([A-Z][A-Za-z0-9_]*)?Config struct/))
			config = substr(line, 6, RLENGTH - 12)

		# Setters: `Name:` (not `:=`) and `.Name =` (not `==`).
		s = line " "
		gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
		gsub(/`[^`]*`/, "", s)
		while (match(s, /[A-Z][A-Za-z0-9_]*[ \t]*(:[^=]|=[^=])/)) {
			pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
			set = substr(s, RSTART, RLENGTH)
			s = substr(s, RSTART + RLENGTH - 1)
			if (pre ~ /[A-Za-z0-9_]/) continue
			if ((set ~ /=[^=]$/) != (pre == ".")) continue
			sub(/[ \t]*[:=].*$/, "", set)
			sets[set]++; setsin[set, dir]++
			if (!bench) setsout[set]++
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
		for (i = 1; i <= nf; i++) {
			name = fname[i]; k = fkey[i]
			if (setsout[name] > setsin[name, fdir[i]]) continue
			why = sets[name] > setsin[name, fdir[i]] ? "is set only from bench/" : "is set by no caller outside its package"
			found[k] = 1
			if (!(k in listed)) { print fwhere[i] ": config field " k " " why; bad = 1 }
		}
		for (k in listed)
			if (!(k in found)) { print allow ": " k " is listed but has a caller or setter outside bench/ (or is gone)"; bad = 1 }
		for (name in series)
			if (!(name in reads)) { print series[name] ": series " name " is registered but nothing reads it"; bad = 1 }
		exit bad
	}' $files
