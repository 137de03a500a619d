package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds a whole run, child processes included.
const runLimit = 170 * time.Second

// minSetupSamples is how many set-ups a run measures at least; passes
// that are too long to repeat are topped up with set-up-only processes.
const minSetupSamples = 9

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, not %d", o.seconds)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(nproc())
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if o.record {
		return record(ctx, exe, w, o.seed)
	}

	printHost("start")
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	spansFile := func(w *workload, pass int) string {
		return filepath.Join(o.out, fmt.Sprintf("%s.seed%d.pass%d.spans.jsonl", w.name, o.seed, pass))
	}
	var untraced, traced []*passResult
	var lastU, lastT time.Duration
	for i := 0; ; i++ {
		tr := o.trace == 1 && i%2 == 1
		t0 := time.Now()
		args := []string{"-traced=" + strconv.FormatBool(tr)}
		if tr {
			args = append(args, "-spans", spansFile(w, i))
		}
		p, err := spawn(ctx, exe, w, o.seed, args...)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if tr {
			traced, lastT = append(traced, p), time.Since(t0)
		} else {
			untraced, lastU = append(untraced, p), time.Since(t0)
		}
		if len(untraced) == 0 || o.trace == 1 && len(traced) == 0 {
			continue
		}
		next := lastU
		if o.trace == 1 && i%2 == 0 {
			next = lastT
		}
		if time.Since(start)+next > budget {
			break
		}
	}
	// A traced run also takes one traced pass of every other workload, so
	// that every layer is timed in every traced run: a layer the requested
	// workload does not exercise is timed where it is exercised.
	var home []*passResult
	v := verify(w, o.seed, append(append([]*passResult(nil), untraced...), traced...))
	for _, hw := range workloadList {
		if o.trace == 0 || hw == w {
			continue
		}
		p, err := spawn(ctx, exe, hw, o.seed, "-traced=true", "-spans", spansFile(hw, 0))
		if err != nil {
			return fmt.Errorf("%s traced pass: %w", hw.name, err)
		}
		home = append(home, p)
		v.add(verify(hw, o.seed, []*passResult{p}))
	}
	setups := make([]float64, 0, minSetupSamples)
	for _, p := range untraced {
		setups = append(setups, float64(p.SetupNS)/1e9)
	}
	for o.trace == 0 && len(setups) < minSetupSamples {
		p, err := spawn(ctx, exe, w, o.seed, "-setup-only")
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(p.SetupNS)/1e9)
	}

	got, want := endToEnd(untraced, setups), decl.endToEnd
	if o.trace == 1 {
		got, want = perLayer(untraced, traced, home), decl.perLayer
	}
	if err := sameNames(got, want); err != nil {
		return err
	}

	fmt.Printf("workload %s, seed %d, %d untraced and %d traced passes in %.1fs, one fresh process each\n",
		w.name, o.seed, len(untraced), len(traced), time.Since(start).Seconds())
	for _, f := range v.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	printSummary(untraced, traced, setups, v)
	printMetrics(got, want)
	printHost("end")
	return writeJSON(os.Stdout, result{
		Correct:   v.failed == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   withUnits(got, want),
	})
}

// spawn runs one pass of w in a fresh child process and returns its
// report, with the child's peak resident memory filled in.
func spawn(ctx context.Context, exe string, w *workload, seed uint64, extra ...string) (*passResult, error) {
	args := append([]string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run exceeded %v: %w", runLimit, ctx.Err())
		}
		return nil, err
	}
	var p passResult
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return nil, fmt.Errorf("reading child report: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.PeakRSSKB = ru.Maxrss
	}
	return &p, nil
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// declared is the metric list of BENCHMARK.json: name to unit.
type declared struct {
	endToEnd map[string]string
	perLayer map[string]string
}

func loadDeclared(path string) (declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return declared{}, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return declared{}, fmt.Errorf("%s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d, nil
}

// sameNames fails unless the computed metrics are exactly the declared
// ones, so BENCHMARK.json and the program cannot drift apart.
func sameNames(got map[string]float64, want map[string]string) error {
	var missing, extra []string
	for n := range want {
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metrics differ from BENCHMARK.json: not computed %v, not declared %v", missing, extra)
	}
	return nil
}

func withUnits(got map[string]float64, units map[string]string) map[string]metricValue {
	out := make(map[string]metricValue, len(got))
	for n, v := range got {
		out[n] = metricValue{Value: v, Unit: units[n]}
	}
	return out
}

func printMetrics(got map[string]float64, units map[string]string) {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %16.6g %s\n", n, got[n], units[n])
	}
}

// printHost prints the host facts that explain a run's timings.
func printHost(when string) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	fmt.Printf("host %s: nproc %d, GOMAXPROCS %d, %s, cpu %q, loadavg %s\n",
		when, nproc(), runtime.GOMAXPROCS(0), runtime.Version(), model, load)
}

// record runs one untraced pass and stores its cells as the expected
// outputs of w at seed.
func record(ctx context.Context, exe string, w *workload, seed uint64) error {
	p, err := spawn(ctx, exe, w, seed)
	if err != nil {
		return err
	}
	for _, c := range p.Cells {
		if c.Err != "" {
			return fmt.Errorf("not recording a failed cell: %s: %s", c.ID, c.Err)
		}
	}
	if len(p.Cells) != w.cells {
		return fmt.Errorf("pass has %d cells, want %d", len(p.Cells), w.cells)
	}
	b, err := json.MarshalIndent(expectedFile{Workload: w.name, Seed: seed, Cells: p.Cells}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", "expected", w.name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
