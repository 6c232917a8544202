package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The metric catalogue. Every workload prints every end-to-end metric
// (-trace 0) or every per-layer metric (-trace 1) under exactly these names,
// which BENCHMARK.json repeats; TestOutputContract holds the two together.

// spec names one metric and its unit.
type spec struct {
	name, unit string
}

// endToEndSpecs are what a user of the workload sees. An "operation" is the
// workload's unit of work: one cold paper reproduction, one round of the
// three scale cells, or one HTTP request.
var endToEndSpecs = []spec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"maxrss_mb", "MB"},
}

// kernelNames are the seven NAS kernels, in registry order.
var kernelNames = []string{"cg", "ep", "ft", "is", "lu", "mg", "sp"}

// layers are the span-name prefixes self time is reported for. "bench" is
// the benchmark's own glue around the calls.
var layers = []string{"bench", "cluster", "core", "experiments", "mpi", "npb", "obs", "serve", "simnet", "trace"}

// layerSpecs lists the per-layer metrics in report order.
func layerSpecs() []spec {
	out := []spec{
		{"mpi.handoff_ns", "ns"},
		{"mpi.allreduce_us.n16", "us"},
		{"mpi.allreduce_us.n256", "us"},
		{"mpi.allreduce_us.n1024", "us"},
		{"mpi.allreduce_allocs.n1024", "count"},
		{"mpi.alltoall_us.n256", "us"},
		{"mpi.alltoall_allocs.n256", "count"},
		{"simnet.p2p_ns", "ns"},
		{"simnet.contended_ns", "ns"},
		{"trace.append_ns", "ns"},
		{"experiments.peek_ns", "ns"},
		{"experiments.fitfp_ms", "ms"},
		{"core.fitsp_us", "us"},
		{"serve.predict_us", "us"},
		{"serve.sweep_us", "us"},
		{"serve.trace_ms", "ms"},
		{"serve.roundtrip_us", "us"},
		{"serve.transport_us", "us"},
		{"workload.traced_p50_ms", "ms"},
		{"workload.op_p99_ms", "ms"},
		{"workload.op_max_ms", "ms"},
		{"workload.trace_overhead_pct", "%"},
		{"workload.gc_pause_ms", "ms"},
		{"workload.heap_mb", "MB"},
		{"workload.spans", "count"},
		{"experiments.store_hits", "count"},
		{"experiments.store_misses", "count"},
	}
	for _, k := range kernelNames {
		out = append(out,
			spec{"npb." + k + ".run_ms", "ms"},
			spec{"npb." + k + ".allocs", "count"},
			spec{"trace.events." + k, "count"},
			spec{"cluster.sweep_s." + k, "s"},
			spec{"obs.chrometrace_ms." + k, "ms"},
			spec{"obs.validate_ms." + k, "ms"},
			spec{"obs.trace_bytes." + k, "bytes"},
		)
	}
	for _, r := range rowNames() {
		out = append(out, spec{"experiments.row_s." + r, "s"})
	}
	for _, l := range layers {
		out = append(out, spec{"self_ms." + l, "ms"})
	}
	return out
}

// pass accumulates one measured pass of a workload.
type pass struct {
	seconds float64 // measuring budget
	tr      *tracer // nil on untraced passes
	parent  int     // span the pass's spans nest under (-1: none)

	setups   []float64 // seconds per set-up
	ops      []float64 // seconds per operation
	window   float64   // wall seconds the operations took
	maxRSSMB float64   // peak RSS of the measured process
	proc     procStats

	attempted, failed int
	failures          []string
}

// procStats are counters read from the measured process.
type procStats struct {
	gcPauseMs, heapMB float64
}

func newPass(seconds float64, tr *tracer) *pass {
	return &pass{seconds: seconds, tr: tr, parent: -1}
}

// check counts one attempted operation and, when err is non-nil, one
// failed one. A wrong answer is a failure like an error.
func (p *pass) check(err error) {
	p.attempted++
	if err == nil {
		return
	}
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, err.Error())
	}
}

// report prints the pass's summary and first failures to stderr.
func (p *pass) report(w io.Writer, label string) {
	fmt.Fprintf(w, "perfbench: %s: %d ops in %.3fs, %d/%d failed, setup median %.4fs\n",
		label, len(p.ops), p.window, p.failed, p.attempted, median(p.setups))
	for _, f := range p.failures {
		fmt.Fprintf(w, "perfbench:   FAIL %s\n", f)
	}
}

// result wraps metrics into the output contract.
func (p *pass) result(m map[string]metric) *result {
	return &result{Correct: p.failed == 0 && p.attempted > 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *pass) map[string]metric {
	v := map[string]float64{
		"setup_s":   median(p.setups),
		"op_p50_ms": quantile(p.ops, 0.5) * msPerSec,
		"op_p90_ms": quantile(p.ops, 0.9) * msPerSec,
		"maxrss_mb": p.maxRSSMB,
	}
	if p.window > 0 {
		v["ops_per_s"] = float64(len(p.ops)) / p.window
	}
	out := map[string]metric{}
	for _, s := range endToEndSpecs {
		out[s.name] = metric{Value: v[s.name], Unit: s.unit}
	}
	return out
}

// workloadLayerMetrics reports the workload's own traced-pass numbers: its
// tail, its measured process's collector numbers, and the tracing overhead
// (traced versus untraced median operation).
func workloadLayerMetrics(plain, traced *pass, m map[string]float64) {
	m["workload.traced_p50_ms"] = quantile(traced.ops, 0.5) * msPerSec
	m["workload.op_p99_ms"] = quantile(traced.ops, 0.99) * msPerSec
	m["workload.op_max_ms"] = quantile(traced.ops, 1) * msPerSec
	if base := quantile(plain.ops, 0.5); base > 0 {
		m["workload.trace_overhead_pct"] = (quantile(traced.ops, 0.5)/base - 1) * 100
	}
	m["workload.gc_pause_ms"] = traced.proc.gcPauseMs
	m["workload.heap_mb"] = traced.proc.heapMB
}

// perLayer attaches units to the traced metrics; a catalogue name the run
// did not measure, or measured as a non-finite value, is an error.
func perLayer(m map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, s := range layerSpecs() {
		v, ok := m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured (%v)", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

// msPerSec converts host seconds to milliseconds for reporting.
const msPerSec = 1000

// bytesPerMB converts byte counts to the MB the memory metrics report in.
const bytesPerMB = 1 << 20

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (the "type 7" estimator); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// childRSSMB reports a finished child's peak resident set in MB.
func childRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / bytesPerMB // Linux reports KiB
	}
	return 0
}

// memStats reads this process's collector pause total and live heap.
func memStats() (gcPauseMs, heapMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6, float64(ms.HeapAlloc) / bytesPerMB
}

// hostRecord is the machine and source a run measured.
type hostRecord struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// SpeedMops is the host's speed when the run started: millions of
	// steps per second of a fixed one-core loop, run for calibrationTime.
	// A shared host's speed drifts; this tells a slow run from a slow
	// program.
	SpeedMops float64 `json:"speed_mops"`
}

func (h hostRecord) String() string {
	return fmt.Sprintf("host cores=%d gomaxprocs=%d go=%s %s/%s commit=%s speed=%.0fMops",
		h.Cores, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit, h.SpeedMops)
}

// calibrationTime is how long hostSpeed runs its loop.
const calibrationTime = 250 * time.Millisecond

// hostSpeed runs a fixed integer loop on one core for calibrationTime and
// returns its rate in millions of steps per second.
func hostSpeed() float64 {
	const block = 1 << 20
	x, steps := uint64(1), 0
	t0 := now()
	for time.Since(t0) < calibrationTime { //palint:ignore detsource -- the calibration measures host wall time by definition
		for i := 0; i < block; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		steps += block
	}
	sinkSteps += x
	return float64(steps) / since(t0) / 1e6
}

// sinkSteps keeps the calibration loop's result observable.
var sinkSteps uint64

// recordHost describes the machine and the source under test. The commit
// is git's HEAD when the checkout is a repository, otherwise a fingerprint
// of the Go sources and go.mod files (a plain source tree has no commit).
func recordHost(root string) hostRecord {
	h := hostRecord{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		SpeedMops:  hostSpeed(),
	}
	h.Commit = "tree:" + treeFingerprint(root)
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}
