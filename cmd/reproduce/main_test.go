package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestSectionNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range sections {
		if s.name == "" || strings.ContainsAny(s.name, ", ") {
			t.Errorf("section %q: name must be a non-empty single word", s.name)
		}
		if seen[s.name] {
			t.Errorf("section name %q appears twice", s.name)
		}
		seen[s.name] = true
	}
}

func TestOnlyUnknownNameListsValidNames(t *testing.T) {
	err := run([]string{"-only", "census,fig99"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown section name accepted")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Errorf("error does not name the unknown section: %v", err)
	}
	for _, s := range sections {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error does not list valid section %q: %v", s.name, err)
		}
	}
}

// TestOnlyRunsSelectedInTableOrder asks for two sections out of table order
// and expects exactly their headings, in table order.
func TestOnlyRunsSelectedInTableOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "chaos,census"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "## ") {
			headings = append(headings, strings.TrimPrefix(line, "## "))
		}
	}
	want := []string{title(t, "census"), title(t, "chaos")}
	if strings.Join(headings, "|") != strings.Join(want, "|") {
		t.Fatalf("headings %q, want %q", headings, want)
	}
}

// TestFourFlags pins the command's surface: every tunable is a constant of
// the full or the -quick parameter set.
func TestFourFlags(t *testing.T) {
	// -h makes run stop after defining its flags; the usage text it prints
	// lists them.
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); err != flag.ErrHelp {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var names []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			names = append(names, strings.Fields(line)[0])
		}
	}
	if got := strings.Join(names, " "); got != "-o -only -quick -seed" {
		t.Fatalf("flags %q, want -o -only -quick -seed", got)
	}
}

func title(t *testing.T, name string) string {
	t.Helper()
	for _, s := range sections {
		if s.name == name {
			return s.title
		}
	}
	t.Fatalf("no section %q", name)
	return ""
}

var (
	goRunRE  = regexp.MustCompile(`go run \./([\w./-]*)`)
	onlyRE   = regexp.MustCompile("(?:^|[\\s`(])-only ([\\w,]+)")
	goTestRE = regexp.MustCompile("go test ([^`#]*)")
	mainRE   = regexp.MustCompile(`(?m)^package main$`)
	testFnRE = regexp.MustCompile(`(?m)^func ((?:Test|Example)\w*)\(`)
)

// TestDocCommandsResolve keeps the documented command lines runnable: every
// `go run ./path` names a main package, every -only list names report
// sections, every `go test ... -run pattern` matches a test or example in
// each package it names, and README's list of section names is the section
// table, in order.
func TestDocCommandsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range goRunRE.FindAllStringSubmatch(line, -1) {
				if !mainRE.Match(goSource(t, filepath.Join(root, m[1]), false)) {
					t.Errorf("%s:%d: go run ./%s names no main package", doc, i+1, m[1])
				}
			}
			for _, m := range onlyRE.FindAllStringSubmatch(line, -1) {
				if _, err := selectSections(m[1]); err != nil {
					t.Errorf("%s:%d: -only %s: %v", doc, i+1, m[1], err)
				}
			}
			for _, m := range goTestRE.FindAllStringSubmatch(line, -1) {
				checkGoTestRun(t, root, fmt.Sprintf("%s:%d", doc, i+1), strings.Fields(m[1]))
			}
		}
	}

	readme, _ := os.ReadFile(filepath.Join(root, "README.md"))
	_, list, ok := strings.Cut(string(readme), "named sections: ")
	list, _, _ = strings.Cut(list, "\n")
	var listed, want []string
	for _, m := range regexp.MustCompile("`(\\w+)`").FindAllStringSubmatch(list, -1) {
		listed = append(listed, m[1])
	}
	for _, s := range sections {
		want = append(want, s.name)
	}
	if !ok || strings.Join(listed, ",") != strings.Join(want, ",") {
		t.Errorf("README lists sections %v, want %v", listed, want)
	}
}

// checkGoTestRun fails unless the -run pattern in args (if any) matches a
// Test or Example function of every package args name.
func checkGoTestRun(t *testing.T, root, where string, args []string) {
	t.Helper()
	var pattern string
	var pkgs []string
	for i, a := range args {
		a = strings.Trim(a, `'"`)
		switch {
		case a == "-run" && i+1 < len(args):
			pattern = strings.Trim(args[i+1], `'"`)
		case strings.HasPrefix(a, "-run="):
			pattern = strings.TrimPrefix(a, "-run=")
		case strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	if pattern == "" {
		return
	}
	top, _, _ := strings.Cut(pattern, "/") // subtest levels follow a slash
	re, err := regexp.Compile(top)
	if err != nil {
		t.Errorf("%s: -run %s: %v", where, pattern, err)
		return
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "...")
		matched := false
		for _, m := range testFnRE.FindAllSubmatch(goSource(t, filepath.Join(root, dir), recursive), -1) {
			matched = matched || re.Match(m[1])
		}
		if !matched {
			t.Errorf("%s: go test %s -run %s matches no Test or Example function", where, pkg, pattern)
		}
	}
}

// goSource concatenates the Go files of dir (and of its subdirectories when
// recursive); a missing dir reads as empty.
func goSource(t *testing.T, dir string, recursive bool) []byte {
	t.Helper()
	var src []byte
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && path != dir && !recursive:
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src = append(src, b...)
		}
		return nil
	})
	return src
}
