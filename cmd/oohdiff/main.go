// Command oohdiff compares two run captures and explains what moved: which
// call paths, counters and pre-copy rounds account for the regression (or
// improvement), not just that numbers changed.
//
// A capture is either the directory `oohbench -capture DIR` writes
// (bench.json, profile.folded, explain.json - each optional) or a single
// one of those files; single files are sniffed by schema. The diff compares the planes both captures have.
//
// Usage:
//
//	oohdiff old-capture/ new-capture/            # markdown to stdout
//	oohdiff -format json old/ new/               # ooh-diff/v1 JSON
//	oohdiff -format folded old/ new/             # diff-flamegraph lines
//	oohdiff -o diff.md -profile diff.pb.gz a/ b/ # plus a pprof diff profile
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/obsdiff"
)

// diffFlags carries every parsed CLI flag into run.
type diffFlags struct {
	format  string
	outPath string
	pprofTo string
}

func main() {
	var df diffFlags
	flag.StringVar(&df.format, "format", cliflags.DiffFormatMarkdown,
		"output format: md (markdown), json (ooh-diff/v1), folded (diff-flamegraph lines)")
	flag.StringVar(&df.outPath, "o", "", "write the report to this file instead of stdout")
	flag.StringVar(&df.pprofTo, "profile", "",
		"also write a pprof-compatible diff profile (negative values = improvements) to this .pb.gz file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: oohdiff [flags] OLD-CAPTURE NEW-CAPTURE\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Each capture is an `oohbench -capture` directory or a single plane file\n")
		fmt.Fprintf(flag.CommandLine.Output(), "(ooh-bench/v1 report, folded profile or ooh-explain/v1 report).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := run(df, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "oohdiff: %v\n", err)
		os.Exit(1)
	}
}

func run(df diffFlags, args []string) error {
	// Validate every flag up front, before touching the inputs: a typo
	// exits non-zero even when the flag would not matter this run.
	format, err := cliflags.ParseDiffFormat(df.format)
	if err != nil {
		return err
	}
	if err := cliflags.ParsePprofPath(df.pprofTo); err != nil {
		return err
	}
	if len(args) != 2 {
		return fmt.Errorf("want exactly two captures (old and new), got %d argument(s)", len(args))
	}

	oldCap, err := obsdiff.LoadCapture(args[0])
	if err != nil {
		return err
	}
	newCap, err := obsdiff.LoadCapture(args[1])
	if err != nil {
		return err
	}
	rep := obsdiff.Diff(oldCap, newCap)

	// Render into memory first: -o never leaves a truncated report behind.
	var buf bytes.Buffer
	switch format {
	case cliflags.DiffFormatJSON:
		err = rep.WriteJSON(&buf)
	case cliflags.DiffFormatFolded:
		err = rep.WriteFolded(&buf)
	default:
		err = rep.WriteMarkdown(&buf)
	}
	if err != nil {
		return fmt.Errorf("rendering %s report: %w", format, err)
	}
	if df.outPath == "" {
		if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
			return err
		}
	} else if err := os.WriteFile(df.outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}

	if df.pprofTo != "" {
		f, err := os.Create(df.pprofTo)
		if err != nil {
			return err
		}
		werr := rep.WritePprof(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing diff profile %s: %w", df.pprofTo, werr)
		}
	}
	return nil
}
