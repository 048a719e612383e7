package flowspace

import (
	"math/rand"
	"testing"
)

// coverForBySubtract is CoverFor as it stood before it became a chain of
// Carve steps: carve with Subtract, which builds every piece, and
// keep whichever holds the packet. It stays here as the reference the
// allocation-free body must reproduce bit for bit.
func coverForBySubtract(rs []Rule, hit int, clip Match, k Key) (Match, bool) {
	region, ok := rs[hit].Match.Intersect(clip)
	if !ok || !region.Matches(k) {
		return Match{}, false
	}
	pieces := []Match{region}
	for j, r := range rs {
		if j == hit || !r.Before(rs[hit]) || !r.Match.Overlaps(region) {
			continue
		}
		var next []Match
		for _, p := range pieces {
			if !p.Matches(k) {
				continue
			}
			next = append(next, p.Subtract(r.Match)...)
		}
		pieces = next
	}
	for _, p := range pieces {
		if p.Matches(k) {
			return p, true
		}
	}
	return Match{}, false
}

// Property: over random rule sets (prefixes, exact ports, protocol fields,
// any order), a random clip and packets drawn both inside the hit rule and
// anywhere, CoverFor returns exactly what the Subtract chain returns — the
// same match and the same verdict, including for a hit index that is not
// the packet's first match (a higher rule holds k: no cover).
func TestCoverForMatchesSubtractChain(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	covers, refusals := 0, 0
	for trial := 0; trial < 4000; trial++ {
		rs := make([]Rule, 2+rng.Intn(40))
		for i := range rs {
			rs[i] = Rule{
				ID:       uint64(i + 1),
				Priority: int32(rng.Intn(6) * 10),
				Match:    randMatch(rng),
				Action:   Action{Kind: ActForward, Arg: uint32(i)},
			}
		}
		clip := MatchAll()
		if rng.Intn(2) == 0 {
			clip = clip.WithPrefix(FIPSrc, rng.Uint64(), uint(rng.Intn(9)))
		}
		if rng.Intn(4) == 0 {
			clip = clip.WithPrefix(FTPDst, rng.Uint64(), uint(rng.Intn(7)))
		}
		for probe := 0; probe < 10; probe++ {
			hit := rng.Intn(len(rs))
			k := randKey(rng)
			if region, ok := rs[hit].Match.Intersect(clip); ok && probe%5 != 0 {
				k = randKeyIn(rng, region)
			}
			if probe%2 == 0 {
				// The packet's real first match, as the miss path calls it.
				best, _ := EvalTable(rs, k)
				for i := range rs {
					if rs[i].ID == best.ID {
						hit = i
					}
				}
			}
			want, wantOK := coverForBySubtract(rs, hit, clip, k)
			got, gotOK := CoverFor(rs, hit, clip, k)
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d probe %d hit %d key %v:\n got  %v %v\n want %v %v",
					trial, probe, hit, k, got, gotOK, want, wantOK)
			}
			if wantOK {
				covers++
			} else {
				refusals++
			}
		}
	}
	if covers < 10000 || refusals < 1000 {
		t.Fatalf("generator drifted: %d covers, %d refusals", covers, refusals)
	}
}

// Carve against Subtract directly: the piece it leaves is the one member
// of Subtract's list that holds the packet, or none does.
func TestCarveLeavesSubtractsPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20000; trial++ {
		m, o := randMatch(rng), randMatch(rng)
		k := randKeyIn(rng, m)
		var want Match
		wantOK := false
		for _, p := range m.Subtract(o) {
			if p.Matches(k) {
				want, wantOK = p, true
			}
		}
		got := m
		gotOK := got.Carve(&o, &k)
		if gotOK != wantOK || gotOK && got != want {
			t.Fatalf("trial %d: %v minus %v around %v:\n got  %v %v\n want %v %v",
				trial, m, o, k, got, gotOK, want, wantOK)
		}
	}
}

func TestCoverForDoesNotAllocate(t *testing.T) {
	rules := benchRules(200)
	rules = append(rules, Rule{ID: 201, Priority: -1, Match: MatchAll()})
	k := randKeyIn(rand.New(rand.NewSource(22)), rules[17].Match)
	if _, ok := CoverFor(rules, 200, MatchAll(), k); ok {
		t.Fatal("a key inside a higher rule must not get a cover of the default rule")
	}
	var k2 Key
	k2[FIPSrc], k2[FIPDst] = 0x0A0B0C0D, 0xC0A80101
	best, _ := EvalTable(rules, k2)
	hit := int(best.ID - 1)
	if _, ok := CoverFor(rules, hit, MatchAll(), k2); !ok {
		t.Fatal("the first match must get a cover")
	}
	if n := testing.AllocsPerRun(100, func() { CoverFor(rules, hit, MatchAll(), k2) }); n != 0 {
		t.Fatalf("CoverFor allocates %.1f times per call, want 0", n)
	}
}
