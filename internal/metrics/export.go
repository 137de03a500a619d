package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Label     string `json:"label,omitempty"`
	Value     int64  `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Label     string `json:"label,omitempty"`
	Value     int64  `json:"value"`
}

// HistSnap is one histogram in a Snapshot: the aggregate plus nearest-rank
// percentile upper bounds over the recorded virtual-time values.
type HistSnap struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Label     string `json:"label,omitempty"`
	Count     int64  `json:"count"`
	Sum       int64  `json:"sum"`
	Mean      int64  `json:"mean"`
	P50       int64  `json:"p50"`
	P90       int64  `json:"p90"`
	P99       int64  `json:"p99"`
	Max       int64  `json:"max"`
}

// SeriesSnap is one sampled time-series in a Snapshot.
type SeriesSnap struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// MarshalJSON emits a Point as a compact [ts, v] pair.
func (p Point) MarshalJSON() ([]byte, error) {
	var buf [len("[-9223372036854775808,-9223372036854775808]")]byte
	b := append(buf[:0], '[')
	b = strconv.AppendInt(b, p.TS, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, p.V, 10)
	b = append(b, ']')
	return append(make([]byte, 0, len(b)), b...), nil
}

// UnmarshalJSON parses the [ts, v] pair form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var pair [2]int64
	if err := json.Unmarshal(b, &pair); err != nil {
		return err
	}
	p.TS, p.V = pair[0], pair[1]
	return nil
}

// Snapshot is a point-in-time copy of every metric in a registry, in
// deterministic (sorted-key) order. It is the unit of export: the same
// registry state always marshals to identical bytes.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
	Series     []SeriesSnap  `json:"series,omitempty"`
}

// Snapshot copies the registry's current state. Zero-valued metrics that
// were created but never updated are included (they exist; their value is
// zero). Nil-receiver safe: a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, k := range r.CounterKeys() {
		s.Counters = append(s.Counters, CounterSnap{
			Subsystem: k.Subsystem, Name: k.Name, Label: k.Label,
			Value: r.counters[k].Value(),
		})
	}
	for _, k := range r.GaugeKeys() {
		s.Gauges = append(s.Gauges, GaugeSnap{
			Subsystem: k.Subsystem, Name: k.Name, Label: k.Label,
			Value: r.gauges[k].Value(),
		})
	}
	for _, k := range r.HistogramKeys() {
		h := r.hists[k]
		s.Histograms = append(s.Histograms, HistSnap{
			Subsystem: k.Subsystem, Name: k.Name, Label: k.Label,
			Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
			P50: h.P50(), P90: h.P90(), P99: h.P99(), Max: h.Max(),
		})
	}
	if r.sampler != nil {
		for _, se := range r.sampler.series {
			s.Series = append(s.Series, SeriesSnap{
				Name: se.Name, Points: append([]Point(nil), se.Points...),
			})
		}
	}
	return s
}

// WriteJSONL writes the snapshot as JSON lines: one object per counter,
// gauge, histogram and series, each tagged with a "type" field. Output is
// deterministic (sorted keys, stable field order).
func (s Snapshot) WriteJSONL(w io.Writer) error {
	enc := func(typ string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "{\"type\":%q,%s\n", typ, b[1:])
		return err
	}
	for _, c := range s.Counters {
		if err := enc("counter", c); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := enc("gauge", g); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := enc("histogram", h); err != nil {
			return err
		}
	}
	for _, se := range s.Series {
		if err := enc("series", se); err != nil {
			return err
		}
	}
	return nil
}

// promName builds the fully-qualified Prometheus metric name.
func promName(subsystem, name string) string {
	return "ooh_" + subsystem + "_" + name
}

// promLabels renders a {label="..."} selector, with extra quantile pairs.
func promLabels(label string, extra ...string) string {
	var parts []string
	if label != "" {
		parts = append(parts, fmt.Sprintf("label=%q", label))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as summaries
// (quantile samples plus _sum/_count/_max). Sampled time-series are an
// in-memory concept and are not exported here; use WriteJSONL for those.
// Output is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	line := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format+"\n", args...)
		return err
	}
	lastType := ""
	typeHeader := func(fq, typ string) error {
		key := fq + "/" + typ
		if key == lastType {
			return nil
		}
		lastType = key
		return line("# TYPE %s %s", fq, typ)
	}
	for _, c := range s.Counters {
		fq := promName(c.Subsystem, c.Name)
		if err := typeHeader(fq, "counter"); err != nil {
			return err
		}
		if err := line("%s%s %d", fq, promLabels(c.Label), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		fq := promName(g.Subsystem, g.Name)
		if err := typeHeader(fq, "gauge"); err != nil {
			return err
		}
		if err := line("%s%s %d", fq, promLabels(g.Label), g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		fq := promName(h.Subsystem, h.Name)
		if err := typeHeader(fq, "summary"); err != nil {
			return err
		}
		for _, q := range [...]struct {
			q string
			v int64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			if err := line("%s%s %d", fq, promLabels(h.Label, "quantile", q.q), q.v); err != nil {
				return err
			}
		}
		if err := line("%s_sum%s %d", fq, promLabels(h.Label), h.Sum); err != nil {
			return err
		}
		if err := line("%s_count%s %d", fq, promLabels(h.Label), h.Count); err != nil {
			return err
		}
		if err := line("%s_max%s %d", fq, promLabels(h.Label), h.Max); err != nil {
			return err
		}
	}
	return nil
}
