package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun pins oohgc's output: each row's args must print exactly its
// golden file under testdata.
func TestRun(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"histogram-spml.golden", []string{"-app", "histogram", "-tech", "spml", "-passes", "2", "-seed", "7"}},
		{"untracked.golden", []string{"-tech", "none", "-passes", "2"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatalf("run(%q): %v", c.args, err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("run(%q) output differs from %s:\n--- got ---\n%s--- want ---\n%s", c.args, c.golden, got, want)
			}
		})
	}
}

// TestRunOracle: -tech oracle is accepted, as in the other commands that
// parse -tech with cliflags.
func TestRunOracle(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-tech", "oracle", "-passes", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dirty tracking via oracle") {
		t.Errorf("oracle run does not name its technique:\n%s", out.String())
	}
}

// TestRunRejectsBadFlags: every malformed flag value makes run return an
// error (so main exits non-zero) instead of running.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-tech", "pml"},
		{"-size", "xl"},
		{"-backend", "qemu"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) = nil error, want a validation failure", args)
		}
	}
}
