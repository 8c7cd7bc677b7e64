package wbsim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wbsim/internal/core"
)

// TestREADMEProtocolTable pins the README's protocol table to the
// registry: the block between the protocol-table markers must be
// core.ProtocolTable() verbatim. Registering, renaming, or redescribing
// a protocol therefore forces the README row to follow — the
// documentation is generated from the same descriptors every other
// consumer iterates, it cannot drift.
func TestREADMEProtocolTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	const begin = "<!-- protocol-table:begin"
	const end = "<!-- protocol-table:end -->"
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md protocol-table markers missing or out of order (begin=%d end=%d)", i, j)
	}
	block := readme[i:j]
	nl := strings.Index(block, "\n")
	if nl < 0 {
		t.Fatal("no newline after the begin marker")
	}
	got := block[nl+1:]
	if want := core.ProtocolTable(); got != want {
		t.Errorf("README protocol table is out of sync with the registry.\n-- README --\n%s\n-- core.ProtocolTable() --\n%s\npaste the second block between the markers", got, want)
	}
}

// TestDocMakeTargets: every `make <target>` that README.md or DESIGN.md
// quotes in backticks, and every make line of README's "Tests and
// benchmarks" block, must name a target the Makefile defines, so
// deleting or renaming a target forces the docs to follow.
// EXPERIMENTS.md is history and may name targets that are gone.
func TestDocMakeTargets(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w.-]+)[ \t]*:([^=]|$)`).FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}
	quoted := regexp.MustCompile("`make ([\\w.-]+)")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, m := range quoted.FindAllStringSubmatch(read(doc), -1) {
			if !targets[m[1]] {
				t.Errorf("%s quotes `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
	}
	readme := read("README.md")
	i := strings.Index(readme, "## Tests and benchmarks")
	if i < 0 {
		t.Fatal(`README.md has no "Tests and benchmarks" section`)
	}
	block := readme[i+1:]
	if j := strings.Index(block, "\n## "); j >= 0 {
		block = block[:j]
	}
	lines := regexp.MustCompile(`(?m)^make ([\w.-]+)`).FindAllStringSubmatch(block, -1)
	if len(lines) == 0 {
		t.Fatal(`README's "Tests and benchmarks" block lists no make targets`)
	}
	for _, m := range lines {
		if !targets[m[1]] {
			t.Errorf("README's test block runs make %s, which the Makefile does not define", m[1])
		}
	}
}

// TestDocTestNames: every Test or Benchmark name that README.md or
// DESIGN.md quotes in backticks must name a function of some _test.go
// file in the repository, so deleting or renaming a test forces the
// docs to follow. EXPERIMENTS.md is history and may name tests that are
// gone.
func TestDocTestNames(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		data, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	name := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z]\w*`)
	quoted := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(data), -1) {
			for _, n := range name.FindAllString(s, -1) {
				quoted++
				if !defined[n] {
					t.Errorf("%s quotes `%s`, which no _test.go file defines", doc, n)
				}
			}
		}
	}
	if quoted == 0 {
		t.Error("README.md and DESIGN.md quote no test names — the pattern is broken")
	}
}
