package trace

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

func testTrace(name string) *Trace {
	return &Trace{Name: name, Jobs: []*Job{
		{ID: 0, Arrival: 0, Template: validTemplate()},
	}}
}

func TestDBPutGetRoundTrip(t *testing.T) {
	db, err := OpenDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace("run-1")
	if err := db.Put(tr); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "run-1" || len(got.Jobs) != 1 ||
		got.Jobs[0].Template.AppName != "WordCount" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDBGetMissing(t *testing.T) {
	db, _ := OpenDB(t.TempDir())
	if _, err := db.Get("nope"); err == nil {
		t.Fatal("expected error for missing trace")
	}
}

func TestDBPutRejectsInvalid(t *testing.T) {
	db, _ := OpenDB(t.TempDir())
	if err := db.Put(&Trace{Name: ""}); err == nil {
		t.Fatal("unnamed trace should be rejected")
	}
	if err := db.Put(&Trace{Name: "empty"}); err == nil {
		t.Fatal("empty trace should be rejected")
	}
}

func TestDBReopenSeesPersistedTraces(t *testing.T) {
	dir := t.TempDir()
	db, _ := OpenDB(dir)
	if err := db.Put(testTrace("persist")); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db2.Get("persist")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Template.NumMaps != 4 {
		t.Fatal("reopened trace corrupt")
	}
}

func TestDBOverwrite(t *testing.T) {
	db, _ := OpenDB(t.TempDir())
	tr := testTrace("x")
	if err := db.Put(tr); err != nil {
		t.Fatal(err)
	}
	tr2 := testTrace("x")
	tr2.Jobs[0].Arrival = 42
	if err := db.Put(tr2); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("x")
	if got.Jobs[0].Arrival != 42 {
		t.Fatal("overwrite did not take effect")
	}
	if len(db.List()) != 1 {
		t.Fatal("overwrite created a second entry")
	}
}

func TestDBCorruptFileDetected(t *testing.T) {
	dir := t.TempDir()
	db, _ := OpenDB(dir)
	if err := db.Put(testTrace("bad")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk.
	path := filepath.Join(dir, "bad.trace.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("bad"); err == nil {
		t.Fatal("corrupt trace should fail to load")
	}
}

func TestDBSanitizesNames(t *testing.T) {
	db, _ := OpenDB(t.TempDir())
	tr := testTrace("weird/name with spaces!")
	if err := db.Put(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("weird/name with spaces!"); err != nil {
		t.Fatal(err)
	}
}

func TestDBConcurrentAccess(t *testing.T) {
	db, _ := OpenDB(t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			if err := db.Put(testTrace(name)); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Get(name); err != nil {
				t.Error(err)
			}
			db.List()
		}(i)
	}
	wg.Wait()
	if len(db.List()) != 8 {
		t.Fatalf("expected 8 traces, got %d", len(db.List()))
	}
}

// TestDBHandlesShareOneName: two handles on one directory — two
// processes, as far as the file system can tell — store one name at
// once. Each write goes through a temp file of its own, so every Put
// succeeds and the stored trace is one of the two, whole.
func TestDBHandlesShareOneName(t *testing.T) {
	dir := t.TempDir()
	var dbs [2]*DB
	for i := range dbs {
		var err error
		if dbs[i], err = OpenDB(dir); err != nil {
			t.Fatal(err)
		}
	}
	a, b := testTrace("shared"), testTrace("shared")
	b.Jobs[0].Arrival = 5
	want := map[uint64]bool{a.ContentHash(): true, b.ContentHash(): true}
	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, tr := range []*Trace{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = dbs[i].Put(tr)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := dbs[round%2].Get("shared")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !want[got.ContentHash()] {
			t.Fatalf("round %d: the stored trace is neither input", round)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Fatalf("%d files in the database, want the one trace", len(left))
	}
}

func TestDBIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.List()) != 0 {
		t.Fatalf("foreign files indexed: %v", db.List())
	}
}

// List returns the stored trace names, sorted.
func (db *DB) List() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.idx))
	for n := range db.idx {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
