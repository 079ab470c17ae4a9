package replog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Store persists a replica's durable state in a directory:
//
//	log.jsonl      — the entries following the snapshot, one record a line
//	snapshot.json  — the latest Snapshot
//	state.json     — hard state (current term, voted-for)
//
// Writes are synchronous appends; snapshot installation rewrites the log so
// it always holds exactly the tail after the snapshot.
//
// A record is an entry's JSON behind its CRC-32 (IEEE) in eight hex digits
// and a space. Recovery ends the tail at the first record whose checksum does
// not match, as at a torn write. A line that starts with '{' is a record
// written before records carried a checksum, and is read as plain JSON.
type Store struct {
	mu  sync.Mutex
	dir string
	log *os.File
}

// HardState is the election state a replica must remember across restarts.
type HardState struct {
	// Term is the highest term seen.
	Term uint64 `json:"term"`
	// VotedFor is the replica ID granted a vote in Term ("" if none).
	VotedFor string `json:"votedFor,omitempty"`
}

// Persisted is everything a restarting replica recovers from disk.
type Persisted struct {
	// State is the saved hard state (zero value when never saved).
	State HardState
	// Snapshot is the latest snapshot (zero value when never taken).
	Snapshot Snapshot
	// Entries is the log tail following the snapshot, in index order.
	Entries []Entry
}

// OpenStore opens (creating if needed) the store in dir and loads whatever
// state it holds. A truncated trailing log line (torn write from a crash)
// is dropped; any entry breaking index contiguity ends the recovered tail.
func OpenStore(dir string) (*Store, *Persisted, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("replog: open store: %w", err)
	}
	st := &Store{dir: dir}
	p := &Persisted{}
	if err := readJSONFile(filepath.Join(dir, "state.json"), &p.State); err != nil {
		return nil, nil, err
	}
	if err := readJSONFile(filepath.Join(dir, "snapshot.json"), &p.Snapshot); err != nil {
		return nil, nil, err
	}
	entries, err := readLogFile(filepath.Join(dir, "log.jsonl"), p.Snapshot.Index)
	if err != nil {
		return nil, nil, err
	}
	p.Entries = entries
	f, err := os.OpenFile(filepath.Join(dir, "log.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("replog: open log: %w", err)
	}
	st.log = f
	return st, p, nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("replog: read %s: %w", filepath.Base(path), err)
	}
	if len(data) == 0 {
		return nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("replog: decode %s: %w", filepath.Base(path), err)
	}
	return nil
}

// appendRecords appends the records of entries to buf. Both writers of the
// log encode through it.
func appendRecords(buf []byte, entries []Entry) ([]byte, error) {
	for i := range entries {
		line, err := json.Marshal(&entries[i])
		if err != nil {
			return nil, fmt.Errorf("replog: encode entry %d: %w", entries[i].Index, err)
		}
		buf = fmt.Appendf(buf, "%08x ", crc32.ChecksumIEEE(line))
		buf = append(append(buf, line...), '\n')
	}
	return buf, nil
}

// parseRecord decodes one log line; false means the line is torn or damaged.
func parseRecord(line []byte) (Entry, bool) {
	var e Entry
	if line[0] != '{' {
		sum, body, ok := bytes.Cut(line, []byte{' '})
		if !ok || len(sum) != 8 {
			return e, false
		}
		want, err := strconv.ParseUint(string(sum), 16, 32)
		if err != nil || uint32(want) != crc32.ChecksumIEEE(body) {
			return e, false
		}
		line = body
	}
	return e, json.Unmarshal(line, &e) == nil
}

func readLogFile(path string, snapIndex uint64) ([]Entry, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("replog: read log: %w", err)
	}
	defer f.Close()
	var entries []Entry
	next := snapIndex + 1
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, ok := parseRecord(line)
		if !ok {
			break // torn trailing write or damaged record: keep what came before
		}
		if e.Index <= snapIndex {
			continue // covered by the snapshot after a non-rewritten install
		}
		if e.Index != next {
			break // gap or stale suffix: stop at the contiguous prefix
		}
		entries = append(entries, e)
		next++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replog: scan log: %w", err)
	}
	return entries, nil
}

// AppendEntries durably appends entries to the log file.
func (s *Store) AppendEntries(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	buf, err := appendRecords(nil, entries)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.log.Write(buf); err != nil {
		return fmt.Errorf("replog: append log: %w", err)
	}
	return s.log.Sync()
}

// RewriteLog atomically replaces the log file with the given entries (used
// after a follower truncates a conflicting suffix or installs a snapshot).
func (s *Store) RewriteLog(entries []Entry) error {
	buf, err := appendRecords(nil, entries)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := filepath.Join(s.dir, "log.jsonl.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("replog: rewrite log: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("replog: rewrite log: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("replog: rewrite log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replog: rewrite log: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, "log.jsonl")); err != nil {
		return fmt.Errorf("replog: rewrite log: %w", err)
	}
	old := s.log
	nf, err := os.OpenFile(filepath.Join(s.dir, "log.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("replog: reopen log: %w", err)
	}
	s.log = nf
	old.Close()
	return nil
}

// SaveHardState durably records term and vote (atomic rename).
func (s *Store) SaveHardState(hs HardState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeJSONFile(s.dir, "state.json", &hs)
}

// SaveSnapshot durably records the snapshot, then rewrites the log to the
// remaining tail so replay stays bounded.
func (s *Store) SaveSnapshot(snap Snapshot, tail []Entry) error {
	s.mu.Lock()
	if err := writeJSONFile(s.dir, "snapshot.json", &snap); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	return s.RewriteLog(tail)
}

func writeJSONFile(dir, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("replog: encode %s: %w", name, err)
	}
	tmp := filepath.Join(dir, name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("replog: write %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("replog: write %s: %w", name, err)
	}
	return nil
}

// Close releases the log file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
