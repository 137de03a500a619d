package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRun pins oohwss's output: each row's args must print exactly its
// golden file under testdata.
func TestRun(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"pca-medium.golden", []string{"-workload", "pca", "-size", "medium", "-intervals", "2"}},
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

// TestRunRejectsBadFlags: every malformed flag value makes run return an
// error (so main exits non-zero) instead of running.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "xl"},
		{"-backend", "qemu"},
		{"-workload", "no-such-app"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) = nil error, want a validation failure", args)
		}
	}
}
