package rcache

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/sched"
	"simmr/internal/synth"
)

// The environment that turns a run of this test binary into one child
// process of TestSharedDirAcrossProcesses.
const (
	sharedDirEnv   = "SIMMR_RCACHE_SHARED_DIR"
	sharedChildEnv = "SIMMR_RCACHE_SHARED_CHILD"
)

// sharedFixture is twelve results of different sizes, each under the
// key of the trace that produced it; every process rebuilds the same.
func sharedFixture(t testing.TB) ([]Key, []*engine.Result) {
	t.Helper()
	cfg := engine.DefaultConfig()
	var keys []Key
	var results []*engine.Result
	for i := 0; i < 12; i++ {
		tr, err := synth.ProductionTrace(10+5*i, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(cfg, tr, sched.FIFO{})
		if err != nil {
			t.Fatal(err)
		}
		k, _ := KeyFor(tr.ContentHash(), cfg, sched.FIFO{})
		keys, results = append(keys, k), append(results, res)
	}
	return keys, results
}

// TestSharedDirAcrossProcesses pins what processes sharing one cache
// directory see. The disk is the only store a fresh entry reaches, so
// four processes Put and Get overlapping key sets there (each key is in
// two sets) while one of them Clears midway. Every Get is a miss or the
// key's own result, and once they exit the directory holds no temp file
// and only entries that decode to theirs.
func TestSharedDirAcrossProcesses(t *testing.T) {
	if dir := os.Getenv(sharedDirEnv); dir != "" {
		sharedDirChild(t, dir)
		return
	}
	keys, want := sharedFixture(t)
	dir := t.TempDir()
	cmds := make([]*exec.Cmd, 4)
	outs := make([]bytes.Buffer, len(cmds))
	for i := range cmds {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSharedDirAcrossProcesses$", "-test.count=1", "-test.timeout=5m")
		cmd.Env = append(os.Environ(), sharedDirEnv+"="+dir, sharedChildEnv+"="+strconv.Itoa(i))
		cmd.Stdout, cmd.Stderr = &outs[i], &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[i] = cmd
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("child %d: %v\n%s", i, err, outs[i].Bytes())
		}
	}
	index := map[string]int{}
	for i, k := range keys {
		index[k.String()+diskExt] = i
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		i, ok := index[e.Name()]
		if !ok {
			t.Errorf("%s left in the shared directory", e.Name())
			continue
		}
		img, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(img, keys[i]); err != nil || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s does not decode to its result (err %v)", e.Name(), err)
		}
	}
}

// sharedDirChild is one process of TestSharedDirAcrossProcesses: child
// n loops over keys 3n … 3n+5 (mod 12), a Get then a Put each, and
// child 0 clears the directory halfway.
func sharedDirChild(t *testing.T, dir string) {
	id, err := strconv.Atoi(os.Getenv(sharedChildEnv))
	if err != nil {
		t.Fatal(err)
	}
	keys, want := sharedFixture(t)
	// A one-byte budget keeps every entry out of the memory tier, so
	// every Get reads the shared directory.
	c := New(Options{Dir: dir, MemBytes: 1})
	const rounds = 40
	hits := 0
	for round := 0; round < rounds; round++ {
		if id == 0 && round == rounds/2 {
			if err := c.Clear(); err != nil {
				t.Fatalf("Clear: %v", err)
			}
		}
		for j := 0; j < 6; j++ {
			i := (3*id + j) % len(keys)
			if got, ok := c.Get(keys[i]); ok {
				hits++
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("round %d: key %d served another result", round, i)
				}
			}
			c.Put(keys[i], want[i])
		}
	}
	if hits == 0 {
		t.Fatal("no Get hit the shared directory")
	}
}
