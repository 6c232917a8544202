// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks every output it produces against a
// reference, and prints one JSON result as the last line of stdout:
//
//	perfbench -workload reproduce|scale|serve-hit|serve-sim -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics (see metrics.go);
// with -trace 1 it carries the per-layer metrics of a traced run, and the
// run's spans are written once, at the end, as a Perfetto file under -out.
// run.sh builds this binary and cmd/paserve from source and forwards its
// arguments; README.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool
	root     string
	paserve  string
	out      string
}

// workload is one benchmark scenario. run performs its set-up (recording
// each set-up duration in p.setups) and then measures whole operations
// until p.seconds have passed.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench, p *pass) error
}

var workloads = []workload{
	{name: "reproduce", run: runReproduce},
	{name: "scale", run: runScale},
	{name: "serve-hit", run: runServeHit},
	{name: "serve-sim", run: runServeSim},
}

// bench is the state shared by the passes of one invocation.
type bench struct {
	cfg  config
	refs *refs
	self string // this executable, re-run for fresh-process children
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the benchmark and returns the process exit code: 0 when
// every output was correct, 1 when an output was wrong (the result is still
// printed) and 2 when the benchmark could not run at all (nothing is printed).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: reproduce, scale, serve-hit or serve-sim")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measuring time per pass, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	small := fs.Bool("small", false, "smallest inputs (the output-contract self-check)")
	root := fs.String("root", ".", "repository root (reference data and goldens are read from here)")
	paserve := fs.String("paserve", "", "paserve binary for the serve workloads")
	out := fs.String("out", "", "directory for the run record and the Perfetto trace (empty: none)")
	child := fs.String("child", "", "internal: run as a fresh-process child of the reproduce workload")
	rows := fs.String("rows", "", "internal: reproduction rows a child runs, comma-separated")
	updateRef := fs.Bool("update-ref", false, "regenerate the reference files under <root>/perfbench/ref")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return runChild(*child, *small, *rows, stdout, stderr)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: float64(*seconds), trace: *traced == 1,
		small: *small, root: *root, paserve: *paserve, out: *out,
	}
	b := &bench{cfg: cfg, self: self}
	if *updateRef {
		if err := updateRefs(context.Background(), b, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if b.refs, err = loadRefs(cfg.root); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, rec, err := b.execute(context.Background(), w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	if err := writeRecord(cfg, res, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload once untraced, or — with -trace 1 — an
// untraced pass, a traced pass and the layer probes, and assembles the
// metrics the mode reports.
func (b *bench) execute(ctx context.Context, w workload, stderr io.Writer) (*result, *hostRecord, error) {
	host := recordHost(b.cfg.root)
	fmt.Fprintf(stderr, "perfbench: %s\n", host)
	if !b.cfg.trace {
		p := newPass(b.cfg.seconds, nil)
		if err := w.run(ctx, b, p); err != nil {
			return nil, nil, err
		}
		p.report(stderr, w.name)
		res := p.result(endToEnd(p))
		return res, &host, nil
	}
	// Untraced and traced passes share the -seconds budget, so a traced
	// invocation measures the same amount of work as an untraced one.
	half := math.Max(1, b.cfg.seconds/2)
	plain := newPass(half, nil)
	if err := w.run(ctx, b, plain); err != nil {
		return nil, nil, err
	}
	plain.report(stderr, w.name+" (untraced)")
	tr := newTracer()
	traced := newPass(half, tr)
	root := tr.begin(-1, "bench.pass:"+w.name, 0)
	traced.parent = root
	if err := w.run(ctx, b, traced); err != nil {
		return nil, nil, err
	}
	tr.end(root)
	traced.report(stderr, w.name+" (traced)")
	m := map[string]float64{}
	if err := probeLayers(ctx, b, traced, tr, m); err != nil {
		return nil, nil, err
	}
	workloadLayerMetrics(plain, traced, m)
	selfTimes(tr.rec.Spans(), m)
	if err := writeTrace(b.cfg, tr, w.name); err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed}
	res.Correct = res.Failed == 0
	var err error
	if res.Metrics, err = perLayer(m); err != nil {
		return nil, nil, err
	}
	return res, &host, nil
}

// writeRecord stores the run's numbers beside the host they were measured
// on, so a result file is never separated from its cores, GOMAXPROCS, Go
// version and commit.
func writeRecord(cfg config, res *result, host *hostRecord) error {
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rec := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Trace    bool        `json:"trace"`
		Host     *hostRecord `json:"host"`
		Result   *result     `json:"result"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, host, res}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
	return os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// since returns the seconds elapsed from t0 on the host's monotonic clock.
func since(t0 time.Time) float64 {
	return time.Since(t0).Seconds() //palint:ignore detsource -- the benchmark measures host wall time by definition
}

// now reads the host clock for a measurement start.
func now() time.Time {
	return time.Now() //palint:ignore detsource -- the benchmark measures host wall time by definition
}
