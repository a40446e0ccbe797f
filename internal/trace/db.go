package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DB is the Trace Database of §III (Figure 4): persistent, indexed
// storage for job traces "for efficient lookup and storage". Traces are
// stored one JSON file per trace under a root directory, with an
// in-memory index rebuilt on open. DB is safe for concurrent use.
type DB struct {
	mu   sync.RWMutex
	root string
	idx  map[string]string // trace name -> file path
}

// OpenDB opens (creating if needed) a trace database rooted at dir.
func OpenDB(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: open db: %w", err)
	}
	db := &DB{root: dir, idx: make(map[string]string)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: scan db: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".trace.json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".trace.json")
		db.idx[name] = filepath.Join(dir, e.Name())
	}
	return db, nil
}

// Put stores (or replaces) a trace under its Name. The trace must
// validate. Writes are atomic (WriteFileAtomic), so handles in any
// number of processes may store one name at once: the last rename wins.
func (db *DB) Put(tr *Trace) error {
	if tr.Name == "" {
		return fmt.Errorf("trace: Put: trace has no name")
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace: Put %q: %w", tr.Name, err)
	}
	data, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return fmt.Errorf("trace: encode %q: %w", tr.Name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	path := filepath.Join(db.root, sanitize(tr.Name)+".trace.json")
	if err := WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("trace: write %q: %w", tr.Name, err)
	}
	db.idx[tr.Name] = path
	return nil
}

// WriteFileAtomic writes path through a temp file of its own beside it,
// <base>.<digits>.tmp, which fill writes and which is then renamed into
// place. A reader never sees a half-written file, and writers racing on
// one path, in one process or many, never share a temp file: each
// rename installs one whole file, and the last one stays. On any
// failure the temp file is removed and path is left as it was. The file
// is readable by all (0644), as os.WriteFile(path, data, 0o644) leaves
// it under the usual umask. Every file the module stores is written
// through it: trace databases, .strc traces and cache entries.
func WriteFileAtomic(path string, fill func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = fill(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Get loads a trace by name.
func (db *DB) Get(name string) (*Trace, error) {
	db.mu.RLock()
	path, ok := db.idx[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("trace: %q not found", name)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: read %q: %w", name, err)
	}
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("trace: decode %q: %w", name, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: stored trace %q corrupt: %w", name, err)
	}
	return &tr, nil
}

// sanitize makes a trace name filesystem-safe.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

// Encode writes a trace as JSON to a writer-friendly byte slice. It is
// the wire format used by cmd/tracegen and cmd/mrprofiler.
func Encode(tr *Trace) ([]byte, error) {
	return json.MarshalIndent(tr, "", " ")
}

// Decode parses a trace from JSON and validates it.
func Decode(data []byte) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}
