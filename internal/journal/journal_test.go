package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"difane/internal/testutil"
)

type fakeState struct {
	Epoch  uint64 `json:"epoch"`
	Policy string `json:"policy"`
}

func mustOpen(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func mustSeal(t *testing.T, j *Journal, st fakeState) {
	t.Helper()
	if err := j.Seal(st); err != nil {
		t.Fatal(err)
	}
}

func mustLoad(t *testing.T, j *Journal) fakeState {
	t.Helper()
	var st fakeState
	ok, err := j.Load(&st)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v %v", ok, err)
	}
	return st
}

// dirFiles lists the names in dir.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestSealReopenRoundTrip(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t, 2)()
	dir := t.TempDir()
	j := mustOpen(t, dir)
	if ok, err := j.Load(&fakeState{}); ok || err != nil || j.Seq() != 0 {
		t.Fatalf("fresh journal: ok=%v err=%v seq=%d", ok, err, j.Seq())
	}
	for i := 1; i <= 3; i++ {
		mustSeal(t, j, fakeState{Epoch: uint64(i), Policy: "p"})
	}
	j.Close()

	j2 := mustOpen(t, dir)
	defer j2.Close()
	if st := mustLoad(t, j2); st.Epoch != 3 || st.Policy != "p" {
		t.Fatalf("reopened state = %+v, want the third", st)
	}
	if j2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", j2.Seq())
	}
	if names := dirFiles(t, dir); len(names) != 1 || names[0] != stateName {
		t.Fatalf("journal directory holds %v, want only %s", names, stateName)
	}
}

// A crash in the middle of a seal leaves a torn temp file beside the
// previous state.json: Open keeps that state and removes the temp file.
// TestSnapshotTruncatesWAL: every seal replaces the one before, so after
// many commits the directory holds one file, exactly the last sealed
// state, and a reopen loads it.
func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	for i := 1; i <= 50; i++ {
		mustSeal(t, j, fakeState{Epoch: uint64(i), Policy: "p"})
	}
	last := j.Sealed()
	j.Close()

	if names := dirFiles(t, dir); len(names) != 1 || names[0] != stateName {
		t.Fatalf("journal directory holds %v after 50 seals, want only %s", names, stateName)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(last) {
		t.Fatalf("%s holds %d bytes, want the last seal's %d:\n%s", stateName, len(onDisk), len(last), onDisk)
	}
	j2 := mustOpen(t, dir)
	defer j2.Close()
	if st := mustLoad(t, j2); st.Epoch != 50 || j2.Seq() != 50 {
		t.Fatalf("reopened journal holds %+v at seq %d, want epoch 50 at seq 50", st, j2.Seq())
	}
}

func TestTornTempFileLeavesPreviousState(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	mustSeal(t, j, fakeState{Epoch: 1})
	mustSeal(t, j, fakeState{Epoch: 2})
	j.Close()
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte(`{"seq":3,"crc":1,"state":{"ep`), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	if st := mustLoad(t, j2); st.Epoch != 2 || j2.Seq() != 2 {
		t.Fatalf("state after a torn seal = %+v at seq %d, want epoch 2 at seq 2", st, j2.Seq())
	}
	if names := dirFiles(t, dir); len(names) != 1 || names[0] != stateName {
		t.Fatalf("journal directory holds %v after Open, want only %s", names, stateName)
	}
	mustSeal(t, j2, fakeState{Epoch: 3})
	if j2.Seq() != 3 {
		t.Fatalf("seq after a torn seal = %d, want 3", j2.Seq())
	}
}

func TestCorruptCRCFailsOpen(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	mustSeal(t, j, fakeState{Epoch: 1})
	j.Close()

	// Flip a byte inside the state without touching the framing.
	path := filepath.Join(dir, stateName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(buf), `"epoch":1`)
	if i < 0 {
		t.Fatalf("unexpected state file: %s", buf)
	}
	buf[i+len(`"epoch":`)] = '7'
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Open of a corrupt state = %v, want a checksum error", err)
	}
}

// A directory the WAL + snapshot journal wrote is refused with an error
// that names the file, not read as an empty journal.
func TestOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte(`{"seq":1,"kind":"state","data":{},"crc":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "wal.log")) {
		t.Fatalf("Open of an old-format directory = %v, want an error naming wal.log", err)
	}
}

func TestClosedJournalRejectsWrites(t *testing.T) {
	j := mustOpen(t, t.TempDir())
	mustSeal(t, j, fakeState{Epoch: 1})
	sealed := j.Sealed()
	j.Close()
	if err := j.Seal(fakeState{Epoch: 2}); err == nil {
		t.Fatal("seal after close must fail")
	}
	other := mustOpen(t, t.TempDir())
	mustSeal(t, other, fakeState{Epoch: 5})
	mustSeal(t, other, fakeState{Epoch: 6})
	if err := j.Adopt(other.Sealed()); err == nil {
		t.Fatal("adopt after close must fail")
	}
	if st := mustLoad(t, j); st.Epoch != 1 || string(j.Sealed()) != string(sealed) {
		t.Fatalf("closed journal reads %+v, want its last seal", st)
	}
	j.Close() // a second close is harmless
}
