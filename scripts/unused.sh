#!/bin/sh
# unused.sh makes three checks and fails unless scripts/unused.allow names,
# with a reason, everything one of them finds:
#
#   - an exported function or method under internal/ whose name appears in
#     no non-test .go file of the repository outside its own definition;
#   - an exported field of a *Config struct under internal/ that no
#     non-test file outside the declaring package sets. A knob nobody turns
#     is a constant;
#   - an exported name of the root package (the difane facade) with no
#     user. A user is `difane.Name` in non-test Go under examples/, cmd/ or
#     experiments/, in example_test.go, in README.md or in the package
#     doc, or the bare name in the code of another declaration of the root
#     package that is itself kept (so a type in a kept signature stays).
#     The root package's other tests are no users.
#
# and fails outright, with no list to excuse it, on a fourth:
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
# A setter is `Field:` in a composite literal or `.Field =`. A literal's
# field is keyed by the type written before its brace (`wire.ClusterConfig{`,
# `Config{` inside the package, a facade alias such as `difane.Config{`
# resolved to the type it names), so a field is set only where its own
# struct is built. Where no type is written (an elided element type, or
# `.Field =`) the setter goes by name: in a package that declares a *Config
# field of that name it sets that package's own, elsewhere every field of
# that name.
#
# A name used (or set) only from bench/ is pinned by the benchmark, which
# only a benchmark change may touch, so it must be listed too. A listed
# name that has gained a caller, a setter or a user (or is gone) also
# fails, so the list cannot go stale. Comments do not count as a use and
# string literals do not count as a set. The function check goes by name:
# a method shares its uses with every method of that name.
#
# Usage: sh scripts/unused.sh [root]   (or: make unused)
# root defaults to the repository; make unused also runs the gate on the
# fixture trees under scripts/testdata/unused, each of which must fail.
set -eu
cd "${1:-$(dirname "$0")/..}"
# One awk over every file at once: the uses are counted across all of them.
files=$(find . -name '*.go' ! -path './.git/*' ! -path '*/testdata/*' | sort)
[ -f README.md ] && files="$files ./README.md"
# shellcheck disable=SC2086
awk -v allow=scripts/unused.allow '
	# code returns line s with its literals blanked and its comment cut;
	# inraw carries a raw string across lines.
	function code(s,   out, lit) {
		out = ""
		if (inraw) {
			if (!match(s, /`/)) return ""
			s = substr(s, RSTART + 1); inraw = 0
		}
		while (match(s, /"([^"\\]|\\.)*"|\x27([^\x27\\]|\\.)*\x27|`[^`]*`|`|\/\//)) {
			lit = substr(s, RSTART, RLENGTH)
			out = out substr(s, 1, RSTART - 1)
			s = substr(s, RSTART + RLENGTH)
			if (lit == "//") return out
			if (lit == "`") { inraw = 1; return out }
			out = out "\"\""
		}
		return out s
	}
	# facade records every difane.Name in s as a user of Name.
	function facade(s) {
		while (match(s, /difane\.[A-Z][A-Za-z0-9_]*/)) {
			if (RSTART == 1 || substr(s, RSTART - 1, 1) !~ /[A-Za-z0-9_]/)
				fuse[substr(s, RSTART + 7, RLENGTH - 7)]++
			s = substr(s, RSTART + RLENGTH)
		}
	}
	FNR == 1 {
		test = FILENAME ~ /_test\.go$/
		internal = FILENAME ~ /^\.\/internal\//
		bench = FILENAME ~ /^\.\/bench\//
		user = FILENAME ~ /^\.\/(examples|cmd|experiments)\//
		root = FILENAME ~ /^\.\/[^\/]*\.go$/
		n = split(FILENAME, p, "/"); pkg = root ? "difane" : p[n-1]
		dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
		config = ""; inraw = 0; depth = 0; pkgdoc = root; cur = ""; paren = 0
	}
	FILENAME == "./README.md" { facade($0); next }
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
		if (FILENAME == "./example_test.go") facade(code($0))
		if (test) next

		c = code($0)
		if (user) facade(c)
		if (root) {
			if (pkgdoc) {
				if ($0 ~ /^package /) pkgdoc = 0
				else facade($0)
			}
			# Declarations: a top-level name, or one spec of a
			# const/var/type block; each collects the names its code shows.
			if (c ~ /^[)}]/) { cur = ""; paren = 0 }
			else if (match(c, /^(func|type|const|var) [A-Za-z_][A-Za-z0-9_]*/) || (paren && match(c, /^\t[A-Za-z_][A-Za-z0-9_]*/))) {
				cur = substr(c, RSTART, RLENGTH); sub(/^.*[ \t]/, "", cur)
				if (cur ~ /^[A-Z]/) { fdef[cur] = FILENAME ":" FNR }
				else cur = ""
			} else if (c ~ /^func \(/) cur = ""
			if (c ~ /^(const|var|type) \($/) paren = 1
			if (match(c, /^(type |\t)[A-Z][A-Za-z0-9_]* = [a-z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*/)) {
				a = substr(c, RSTART, RLENGTH); sub(/^(type |\t)/, "", a)
				split(a, ap, / = /); alias["difane." ap[1]] = ap[2]
			}
			t = c
			gsub(/[^A-Za-z0-9_.]+/, " ", t)
			m = split(t, tok, " ")
			for (i = 1; i <= m; i++)
				if (tok[i] ~ /^[A-Z]/ && tok[i] != cur) frefs[cur] = frefs[cur] " " tok[i]
		}

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
				fkey[nf] = pkg "." config "." fs[i]; fname[nf] = fs[i]; fdir[nf] = dir
				fwhere[nf] = FILENAME ":" FNR
			}
		}
		if (internal && match(line, /^type ([A-Z][A-Za-z0-9_]*)?Config struct/))
			config = substr(line, 6, RLENGTH - 12)

		# Setters and braces, left to right: `Type{` opens a literal of
		# Type, any other `{` a block or an elided type; `Name:` (not `:=`)
		# sets a field of the innermost literal, `.Name =` (not `==`) goes
		# by name.
		s = c " "
		while (match(s, /[A-Za-z_][A-Za-z0-9_.]*(\[[^]]*\])?\{|[{}]|[A-Z][A-Za-z0-9_]*[ \t]*(:[^=]|=[^=])/)) {
			pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
			set = substr(s, RSTART, RLENGTH)
			s = substr(s, RSTART + RLENGTH)
			if (set == "}") { if (depth > 0) depth--; continue }
			if (set ~ /\{$/) {
				sub(/(\[[^]]*\])?\{$/, "", set)
				if (set != "" && set !~ /\./) set = pkg "." set
				lits[++depth] = set
				continue
			}
			s = substr(set, length(set)) s
			if (pre ~ /[A-Za-z0-9_]/) continue
			if ((set ~ /=[^=]$/) != (pre == ".")) continue
			sub(/[ \t]*[:=].*$/, "", set)
			if (pre != "." && depth > 0 && lits[depth] != "") {
				nt++; ttype[nt] = lits[depth]; tfield[nt] = set; tdir[nt] = dir; tbench[nt] = bench
				continue
			}
			named[set, dir]++
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

		# A setter counts for field k when it is outside the package of k:
		# sets[k] counts them all, out[k] those outside bench/ too. A
		# setter by name in a package that declares a field of that name
		# sets that one; elsewhere it sets every field of that name.
		for (i = 1; i <= nt; i++) {
			k = ttype[i]
			if (k in alias) k = alias[k]
			k = k "." tfield[i]
			sets[k]++; setsin[k, tdir[i]]++
			if (!tbench[i]) out[k]++
		}
		for (i = 1; i <= nf; i++) declared[fname[i], fdir[i]] = 1
		for (key in named) {
			split(key, kk, SUBSEP)
			if (key in declared) continue
			sets[kk[1]] += named[key]
			if (kk[2] !~ /^\.\/bench(\/|$)/) out[kk[1]] += named[key]
		}
		for (i = 1; i <= nf; i++) {
			name = fname[i]; k = fkey[i]
			if (out[k] - setsin[k, fdir[i]] + out[name] > 0) continue
			why = sets[k] - setsin[k, fdir[i]] + sets[name] > 0 ? "is set only from bench/" : "is set by no caller outside its package"
			found[k] = 1
			if (!(k in listed)) { print fwhere[i] ": config field " k " " why; bad = 1 }
		}

		# The facade: keep what a user names, then what a kept
		# declaration names, until nothing changes; the unexported
		# declarations (key "") are kept. A listed name is kept too, once
		# the users have had their say.
		for (pass = 1; pass <= 2; pass++) {
			for (name in fdef)
				if (name in fuse || (pass == 2 && ("difane." name) in listed)) kept[name] = 1
			kept[""] = 1
			for (grew = 1; grew; ) {
				grew = 0
				for (name in kept) {
					m = split(frefs[name], tok, " ")
					for (i = 1; i <= m; i++)
						if (tok[i] in fdef && !(tok[i] in kept)) { kept[tok[i]] = 1; grew = 1 }
				}
			}
			if (pass == 1)
				for (name in fdef)
					if (!(name in kept)) found["difane." name] = 1
		}
		for (name in fdef)
			if (!(name in kept)) { print fdef[name] ": difane." name " has no user"; bad = 1 }

		for (k in listed)
			if (!(k in found)) { print allow ": " k " is listed but has a caller, setter or user outside bench/ (or is gone)"; bad = 1 }
		for (name in series)
			if (!(name in reads)) { print series[name] ": series " name " is registered but nothing reads it"; bad = 1 }
		exit bad
	}' $files
