package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// The reproduce workload runs the whole paper reproduction — every row of
// bench_test.go — in a fresh child process, so the process-wide campaign
// store starts cold each time, and checks every reported value against
// ref/reproduce.json. One operation is one full reproduction.

// readySamples is how many extra bare child start-ups the set-up median is
// taken over, besides the one each reproduction pays.
const readySamples = 10

func runReproduce(ctx context.Context, b *bench, p *pass) error {
	names := permute(rowNames(), b.cfg.seed)
	for i := 0; i < readySamples; i++ {
		d, err := b.spawnReady(ctx)
		if err != nil {
			return err
		}
		p.setups = append(p.setups, d)
	}
	var rss []float64
	start := now()
	for rep := 0; ; rep++ {
		span := p.tr.begin(p.parent, fmt.Sprintf("bench.reproduction:%d", rep), 0)
		out, err := b.runChild(ctx, "reproduce", names)
		if err != nil {
			return err
		}
		p.setups = append(p.setups, out.setup)
		p.ops = append(p.ops, out.SuiteS)
		rss = append(rss, out.rssMB)
		p.proc = out.proc()
		for _, r := range out.Rows {
			p.check(b.refs.checkRow(b.suiteName(), r))
			if p.tr != nil {
				at := p.tr.at(out.readyAt) + r.Start
				p.tr.add(span, "experiments.row:"+r.Name, 0, at, at+r.Seconds)
			}
		}
		p.tr.end(span)
		if since(start) >= p.seconds {
			break
		}
	}
	p.window = since(start)
	p.maxRSSMB = median(rss)
	return nil
}

// suiteName is the experiments suite the reproduction runs at this size.
func (b *bench) suiteName() string {
	if b.cfg.small {
		return "quick"
	}
	return "paper"
}

// childRow is one row as a child measured it.
type childRow struct {
	Name    string             `json:"name"`
	Start   float64            `json:"start"` // seconds after the child was ready
	Seconds float64            `json:"seconds"`
	Values  map[string]float64 `json:"values"`
	Text    string             `json:"text"` // fingerprint of the row's printed text
	Err     string             `json:"err,omitempty"`
}

// childOut is the one JSON line a reproduction child prints.
type childOut struct {
	Rows        []childRow `json:"rows"`
	SuiteS      float64    `json:"suite_s"` // the listed tasks' total
	Warm        []childRow `json:"warm,omitempty"`
	WarmS       float64    `json:"warm_s"`
	GCPauseMs   float64    `json:"gc_pause_ms"`
	HeapMB      float64    `json:"heap_mb"`
	StoreHits   float64    `json:"store_hits"`
	StoreMisses float64    `json:"store_misses"`

	setup   float64   // parent-side: spawn to ready, seconds
	readyAt time.Time // parent-side: when the child said ready
	rssMB   float64   // parent-side: the child's peak RSS
}

func (o *childOut) proc() procStats {
	return procStats{gcPauseMs: o.GCPauseMs, heapMB: o.HeapMB}
}

// childCmd starts this executable in child mode with stdout piped.
func (b *bench) childCmd(ctx context.Context, args ...string) (*exec.Cmd, *bufio.Reader, error) {
	if b.cfg.small {
		args = append(args, "-small")
	}
	cmd := exec.CommandContext(ctx, b.self, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd, bufio.NewReader(pipe), nil
}

// awaitReady reads the child's ready line.
func awaitReady(r *bufio.Reader) error {
	line, err := r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("child exited before it was ready: %w", err)
	}
	if strings.TrimSpace(line) != "ready" {
		return fmt.Errorf("child said %q, want ready", line)
	}
	return nil
}

// spawnReady measures one bare child start-up: spawn to ready.
func (b *bench) spawnReady(ctx context.Context) (float64, error) {
	t0 := now()
	cmd, r, err := b.childCmd(ctx, "-child", "ready")
	if err != nil {
		return 0, err
	}
	rerr := awaitReady(r)
	d := since(t0)
	_, _ = io.Copy(io.Discard, r) // drain until exit so Wait can return
	if werr := cmd.Wait(); rerr == nil && werr != nil {
		rerr = werr
	}
	return d, rerr
}

// runChild runs the named tasks of a child mode, in order, in one fresh
// child process.
func (b *bench) runChild(ctx context.Context, mode string, names []string) (*childOut, error) {
	args := []string{"-child", mode, "-rows", strings.Join(names, ",")}
	t0 := now()
	cmd, r, err := b.childCmd(ctx, args...)
	if err != nil {
		return nil, err
	}
	out := &childOut{}
	rerr := awaitReady(r)
	out.readyAt = now()
	out.setup = out.readyAt.Sub(t0).Seconds()
	if rerr == nil {
		var line string
		line, rerr = r.ReadString('\n')
		if rerr == nil {
			rerr = json.Unmarshal([]byte(line), out)
		}
	}
	_, _ = io.Copy(io.Discard, r)
	werr := cmd.Wait()
	if rerr != nil {
		return nil, fmt.Errorf("%s child: %w", mode, rerr)
	}
	if werr != nil {
		return nil, fmt.Errorf("%s child: %w", mode, werr)
	}
	out.rssMB = childRSSMB(cmd.ProcessState)
	return out, nil
}

// permute returns names in a seed-determined order (Fisher–Yates driven by
// splitmix64), so each seed runs the rows in its own order.
func permute(names []string, seed uint64) []string {
	out := append([]string(nil), names...)
	state := seed
	for i := len(out) - 1; i > 0; i-- {
		state += 0x9e3779b97f4a7c15
		j := int(splitmix64(state) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// splitmix64 is the standard 64-bit finalizer, used as a counter-based PRNG.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// task is one unit of work a child runs and reports: a reproduction row
// or a scale cell.
type task struct {
	name string
	run  func(ctx context.Context) (rowVals, string, error)
}

// childTasks are the tasks a child mode can run, and the ones it runs
// untimed first to warm the process.
func childTasks(mode string, small bool) (all, warm []task, ok bool) {
	switch mode {
	case "reproduce":
		s := experiments.Paper()
		if small {
			s = experiments.Quick()
		}
		for _, r := range reproRows {
			all = append(all, task{r.name, func(ctx context.Context) (rowVals, string, error) { return r.run(ctx, s) }})
		}
		return all, nil, true
	case "scale":
		for _, c := range scaleCells(small) {
			all = append(all, task{c.name, func(ctx context.Context) (rowVals, string, error) {
				v, err := c.sweep(ctx)
				return v, "", err
			}})
		}
		return all, all, true
	}
	return nil, nil, false
}

// runChild is the child side. "ready" exits as soon as it is up;
// "reproduce" and "scale" run their warm-up tasks and then the listed
// tasks, in order, in this fresh process — for "reproduce" that means on a
// cold campaign store — and print one childOut line.
func runChild(mode string, small bool, list string, stdout, stderr io.Writer) int {
	if mode == "ready" {
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	all, warm, ok := childTasks(mode, small)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown child mode %q\n", mode)
		return 2
	}
	var todo []task
	for _, n := range strings.Split(list, ",") {
		i := slices.IndexFunc(all, func(t task) bool { return t.name == n })
		if i < 0 {
			fmt.Fprintf(stderr, "perfbench: unknown %s task %q\n", mode, n)
			return 2
		}
		todo = append(todo, all[i])
	}
	fmt.Fprintln(stdout, "ready")
	ctx := context.Background()
	out := childOut{}
	t0 := now()
	out.Warm, out.WarmS = runTasks(ctx, warm, t0)
	out.Rows, out.SuiteS = runTasks(ctx, todo, t0)
	out.GCPauseMs, out.HeapMB = memStats()
	snap := obs.Default().Snapshot()
	out.StoreHits = snap.Counter("store.hits")
	out.StoreMisses = snap.Counter("store.misses")
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runTasks runs tasks in order and returns their records, with starts
// relative to t0, and their total seconds.
func runTasks(ctx context.Context, tasks []task, t0 time.Time) ([]childRow, float64) {
	var out []childRow
	total := 0.0
	for _, t := range tasks {
		ts := now()
		vals, text, err := t.run(ctx)
		cr := childRow{Name: t.name, Start: ts.Sub(t0).Seconds(), Seconds: since(ts), Values: vals}
		if text != "" {
			cr.Text = fingerprint([]byte(text))
		}
		if err != nil {
			cr.Err = err.Error()
		}
		total += cr.Seconds
		out = append(out, cr)
	}
	return out, total
}

// dieWithParent makes the kernel kill a child if the benchmark itself dies
// first, so an interrupted run leaves no server or reproduction behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
