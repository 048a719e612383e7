// Package journal keeps the DIFANE controller's state crash-safe on disk.
// Recovery needs only the last state, so a journal directory holds one
// file, state.json = {"seq":N,"crc":C,"state":S}: C is the IEEE CRC32 of
// S's bytes, N counts the seals. A seal writes a temp file, fsyncs it,
// renames it into place and fsyncs the directory, so a crash leaves the
// previous state or the new one. The sealed bytes stay in memory, and a
// replicating leader ships them to its followers as they are (Sealed,
// Adopt). The older WAL + snapshot format is refused, not migrated.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

const stateName, tmpName = "state.json", "state.json.tmp"

// Journal is an open journal directory, safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	dir    string
	seq    uint64 // of the sealed state; 0 when none is held
	sealed []byte // state.json's bytes, never written to once sealed
	closed bool
}

// Open opens (creating if needed) the journal rooted at dir and reads its
// state. A CRC mismatch fails it; a leftover temp file is removed.
func Open(dir string) (*Journal, error) {
	for _, old := range []string{"wal.log", "snapshot.json"} {
		p := filepath.Join(dir, old)
		if _, err := os.Stat(p); err == nil {
			return nil, fmt.Errorf("journal: %s is in the old WAL + snapshot format, which is no longer read; remove it to start from an empty journal", p)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	_ = os.Remove(filepath.Join(dir, tmpName)) // failing, the next seal truncates it
	j := &Journal{dir: dir}
	buf, err := os.ReadFile(filepath.Join(dir, stateName))
	if err == nil {
		j.seq, _, err = parse(buf)
		j.sealed = buf
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %s: %w", filepath.Join(dir, stateName), err)
	}
	return j, nil
}

// parse reads the header Seal writes and checks the state's CRC: the
// state's bytes are summed, not scanned.
func parse(sealed []byte) (uint64, []byte, error) {
	head, state, ok := bytes.Cut(sealed, []byte(`,"state":`))
	var seq uint64
	var crc uint32
	if _, err := fmt.Sscanf(string(head), `{"seq":%d,"crc":%d`, &seq, &crc); err != nil || !ok || !bytes.HasSuffix(state, []byte("}")) {
		return 0, nil, fmt.Errorf("corrupt state file")
	}
	state = state[:len(state)-1]
	if crc32.ChecksumIEEE(state) != crc {
		return 0, nil, fmt.Errorf("state %d: checksum mismatch", seq)
	}
	return seq, state, nil
}

// Seal durably replaces the state with state, under the next seq: a commit.
func (j *Journal) Seal(state any) error {
	data, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("journal: marshal state: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sealed := fmt.Appendf(nil, `{"seq":%d,"crc":%d,"state":`, j.seq+1, crc32.ChecksumIEEE(data))
	return j.replaceLocked(j.seq+1, append(append(sealed, data...), '}'))
}

// Sealed returns state.json's bytes (nil: none), not to be modified.
func (j *Journal) Sealed() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealed
}

// Adopt durably makes another journal's Sealed bytes this one's, as they
// are: the follower side. The CRC is verified; a seq at or below the one
// held is ignored (a re-ship).
func (j *Journal) Adopt(sealed []byte) error {
	seq, _, err := parse(sealed)
	if err != nil {
		return fmt.Errorf("journal: adopt: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq <= j.seq {
		return nil
	}
	return j.replaceLocked(seq, sealed)
}

// replaceLocked makes sealed state.json and j's state. Caller holds j.mu.
func (j *Journal) replaceLocked(seq uint64, sealed []byte) error {
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	tmp := filepath.Join(j.dir, tmpName)
	err := os.WriteFile(tmp, sealed, 0o644)
	if err == nil {
		err = syncPath(tmp)
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(j.dir, stateName))
	}
	if err == nil {
		err = syncPath(j.dir)
	}
	if err != nil {
		return fmt.Errorf("journal: seal: %w", err)
	}
	j.seq, j.sealed = seq, sealed
	return nil
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Seq returns the sealed state's sequence number (0: no state held).
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Load decodes the sealed state into v; ok is false when none is held.
func (j *Journal) Load(v any) (ok bool, err error) {
	sealed := j.Sealed()
	if sealed == nil {
		return false, nil
	}
	_, state, err := parse(sealed)
	if err == nil {
		err = json.Unmarshal(state, v)
	}
	return true, err
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Close makes further seals and adoptions fail; the state stays readable.
func (j *Journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
}
