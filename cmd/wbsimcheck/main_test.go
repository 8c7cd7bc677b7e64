package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMemProfileFlag runs the command on the smallest space with
// -memprofile and checks that it passes and writes a non-empty gzip
// heap profile, as every command's shared profiling flags do.
func TestMemProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	args, stdout := os.Args, os.Stdout
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	t.Setenv("GOGC", "100") // keeps mainExit off the test process's collector target
	defer func() { os.Args, os.Stdout = args, stdout }()
	os.Args = []string{"wbsimcheck", "-cores", "1", "-banks", "1", "-lines", "1", "-memprofile", path}
	os.Stdout = devnull
	if code := mainExit(); code != 0 {
		t.Fatalf("wbsimcheck exited %d on 1c/1b/1l", code)
	}
	os.Stdout = stdout

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("-memprofile wrote %d bytes that are not gzip: %v", len(raw), err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("-memprofile wrote a truncated gzip stream: %v", err)
	}
	if len(body) == 0 {
		t.Fatal("-memprofile wrote an empty profile")
	}
}
