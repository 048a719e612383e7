package tcam

import "testing"

func TestInstallEvictHooks(t *testing.T) {
	tb := New("test", 2, EvictLRU)
	var installs, evicts []uint64
	tb.OnInstall = func(id uint64) { installs = append(installs, id) }
	tb.OnEvict = func(id uint64) { evicts = append(evicts, id) }

	mustInsert(t, tb, 0, rule(1, 10, 80))
	mustInsert(t, tb, 1, rule(2, 10, 81))
	// Touch rule 2 so rule 1 is the LRU victim.
	tb.Lookup(2, keyPort(81), 64)
	mustInsert(t, tb, 3, rule(3, 10, 82))

	if len(installs) != 3 || installs[0] != 1 || installs[1] != 2 || installs[2] != 3 {
		t.Fatalf("installs = %v", installs)
	}
	if len(evicts) != 1 || evicts[0] != 1 {
		t.Fatalf("evicts = %v", evicts)
	}

	// Replace-in-place fires OnInstall but not OnEvict.
	mustInsert(t, tb, 4, rule(3, 10, 82))
	if len(installs) != 4 || len(evicts) != 1 {
		t.Fatalf("after replace: installs=%v evicts=%v", installs, evicts)
	}
}

func TestInstallHookMayReenterTable(t *testing.T) {
	// Hooks run outside the table's mutex, so a hook reading the table must
	// not deadlock.
	tb := New("test", 0, EvictNone)
	var sawLen int
	tb.OnInstall = func(uint64) { sawLen = tb.Len() }
	mustInsert(t, tb, 0, rule(1, 10, 80))
	if sawLen != 1 {
		t.Fatalf("hook saw len %d", sawLen)
	}
}

func TestEvictNoneFullFiresNoHooks(t *testing.T) {
	tb := New("test", 1, EvictNone)
	fired := 0
	tb.OnInstall = func(uint64) { fired++ }
	tb.OnEvict = func(uint64) { fired++ }
	mustInsert(t, tb, 0, rule(1, 10, 80))
	if err := tb.Insert(0, rule(2, 10, 81), 0, 0); err != ErrFull {
		t.Fatalf("err = %v", err)
	}
	if fired != 1 { // only the successful insert
		t.Fatalf("hooks fired %d times", fired)
	}
}
