package main

import (
	"flag"
	"fmt"
	"os"

	"simmr/pkg/simmr"
)

// cacheFlags is the shared -cache-dir/-cache-mem pair every replaying
// subcommand registers: -cache-dir enables the on-disk tier (and is the
// natural way to share results across invocations), -cache-mem sizes
// the in-memory tier in MiB. Either flag alone enables caching;
// -cache-mem without -cache-dir gives a process-private memory cache
// (useful for sweeps, where cells repeat within one run).
type cacheFlags struct {
	dir   *string
	memMB *int
}

func addCacheFlags(fs *flag.FlagSet) cacheFlags {
	return cacheFlags{
		dir:   fs.String("cache-dir", "", "replay result cache directory; enables content-addressed memoization across runs"),
		memMB: fs.Int("cache-mem", 0, "replay result cache memory budget in MiB: with -cache-dir it holds the results read back from disk, alone it holds every result (0 with -cache-dir: 64 MiB default; 0 alone: caching off)"),
	}
}

// set reports whether either cache flag was given.
func (cf cacheFlags) set() bool { return *cf.dir != "" || *cf.memMB != 0 }

// open builds the cache the flags describe, or nil when neither flag
// was given (caching off, zero overhead).
func (cf cacheFlags) open(tel *simmr.Telemetry) *simmr.Cache {
	if !cf.set() {
		return nil
	}
	return simmr.NewCache(simmr.CacheOptions{
		Dir:       *cf.dir,
		MemBytes:  int64(*cf.memMB) << 20,
		Telemetry: tel,
	})
}

// printCacheLine appends the memoization digest to a command's summary
// output. The format ("cache: N hits, M misses") is part of the CLI
// contract — TestCLIGolden pins it.
func printCacheLine(c *simmr.Cache) {
	if c == nil {
		return
	}
	st := c.Stats()
	fmt.Printf("cache: %d hits, %d misses\n", st.Hits, st.Misses)
}

// printSkippedExports is what a replaying command says in place of its
// event exports (Chrome trace, slot timeline, -timeline) when the result
// came from the cache: a cached result carries no sink output, because no
// events were replayed. Say so instead of writing empty files.
func printSkippedExports(path string) {
	fmt.Printf("cache hit: skipped event exports (%s); rerun without the cache flags to regenerate them\n", path)
}

// runCacheCmd implements `simmr cache info|clear`: operator maintenance
// of an on-disk replay result cache directory.
func runCacheCmd(args []string) error {
	if len(args) == 0 || (args[0] != "info" && args[0] != "clear") {
		return fmt.Errorf("usage: simmr cache info|clear -cache-dir DIR")
	}
	sub := args[0]
	fs := flag.NewFlagSet("cache "+sub, flag.ContinueOnError)
	dir := fs.String("cache-dir", "", "replay result cache directory")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache %s: need -cache-dir DIR", sub)
	}
	// NewCache creates a missing directory; a mistyped one must not be
	// made and then reported empty or cleared.
	fi, err := os.Stat(*dir)
	if err == nil && !fi.IsDir() {
		err = fmt.Errorf("%s is not a directory", *dir)
	}
	if err != nil {
		return fmt.Errorf("cache %s: %w", sub, err)
	}
	c := simmr.NewCache(simmr.CacheOptions{Dir: *dir})
	switch sub {
	case "info":
		entries, bytes, err := c.DiskInfo()
		if err != nil {
			return err
		}
		fmt.Printf("cache %s: %d entries, %d bytes\n", *dir, entries, bytes)
	case "clear":
		if err := c.Clear(); err != nil {
			return err
		}
		fmt.Printf("cache %s: cleared\n", *dir)
	}
	return nil
}
