package main

import (
	"bytes"
	"flag"
	"io"
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
