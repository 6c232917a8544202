package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pasp/internal/obs"
)

// tracer records the traced pass's spans with obs.Recorder, on the host
// clock in seconds since the tracer was made. The spans stay in memory and
// are written once, at the end of the run (writeTrace). A nil *tracer is
// the untraced pass: every method is a no-op and returns -1.
type tracer struct {
	rec   *obs.Recorder
	epoch time.Time
}

func newTracer() *tracer {
	return &tracer{rec: obs.NewRecorder(), epoch: now()}
}

// at converts a host time to tracer seconds.
func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.epoch).Seconds() }

// begin opens a span named "<layer>.<call>" under parent on the given
// track (0 for the benchmark's own track).
func (t *tracer) begin(parent int, name string, track int, attrs ...obs.Attr) int {
	if t == nil {
		return -1
	}
	return t.rec.StartSpanAt(parent, name, track, since(t.epoch), attrs...)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.rec.EndSpan(id, since(t.epoch))
}

// add records a finished span with explicit tracer-clock bounds — spans a
// child process measured and reported back.
func (t *tracer) add(parent int, name string, track int, start, end float64) {
	if t == nil {
		return
	}
	t.rec.EndSpan(t.rec.StartSpanAt(parent, name, track, start), end)
}

// layerOf maps a span name "<layer>.<call>[:<arg>]" to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes sums each layer's self time — a span's duration minus the part
// its direct children cover — into self_ms.<layer>, and counts the spans.
func selfTimes(spans []obs.Span, m map[string]float64) {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.Duration()
		}
	}
	for _, l := range layers {
		m["self_ms."+l] = 0
	}
	for i, s := range spans {
		self := s.Duration() - child[i]
		if self < 0 {
			// Concurrent children (serve clients) can cover more than
			// their parent's wall time; the parent then has no self time.
			self = 0
		}
		m["self_ms."+layerOf(s.Name)] += self * msPerSec
	}
	m["workload.spans"] = float64(len(spans))
}

// writeTrace exports the recorded spans as one validated Perfetto file.
func writeTrace(cfg config, t *tracer, wl string) error {
	if cfg.out == "" {
		return nil
	}
	data := obs.SpansChromeTrace(t.rec.Spans(), "perfbench "+wl)
	n, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("perfbench: refusing to write invalid trace: %w", err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", wl, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d trace events to %s\n", n, path)
	return nil
}
